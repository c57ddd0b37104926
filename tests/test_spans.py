"""The span layer: graded_echelon, graded_kernel (center, invariants) and
the checks of subquotient, against the references in _spans.py."""

import io

import pytest
from hypothesis import given, settings, strategies as st

import _spans
from epslie import catalog, fileio
from epslie.algebra import AlgebraError, EpsLieAlgebra, graded_echelon
from epslie.cli import main
from epslie.exactlin import ONE
from epslie.gmodule import adjoint, invariants_subspace, trivial
from epslie.grading import super_factor

def _zero_dim_algebra():
    return EpsLieAlgebra(super_factor(), [], [], {})


@st.composite
def _vectors_over_catalog_degrees(draw):
    """A catalog algebra's grading and degrees, and vectors over them:
    homogeneous ones, their multiples, zero vectors and, when mixed is
    drawn, one vector that may span two degrees."""
    L = catalog.get_algebra(draw(st.sampled_from(catalog.algebra_names())))
    coeff = st.fractions(-3, 3, max_denominator=2)
    entries = st.dictionaries(st.integers(0, L.dim - 1), coeff, max_size=4)

    def homogeneous(v):
        if not v:
            return v
        d = L.degrees[min(v)]
        return {k: c for k, c in v.items() if L.degrees[k] == d}

    vectors = [homogeneous(v) for v in draw(st.lists(entries, max_size=8))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "zero entries", "duplicate"]))
        if kind == "zero":
            vectors.append({})
        elif kind == "zero entries":
            vectors.append({draw(st.integers(0, L.dim - 1)): 0})
        elif vectors:
            v = draw(st.sampled_from(vectors))
            c = draw(coeff)
            vectors.append({k: c * x for k, x in v.items()})
    if draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))), draw(entries))
    return L, vectors


def _echelon_or_error(fn, L, vectors):
    try:
        return fn(L.group, L.degrees, vectors)
    except AlgebraError:
        return AlgebraError


@settings(max_examples=300, deadline=None)
@given(_vectors_over_catalog_degrees())
def test_graded_echelon_equals_the_per_degree_trackers(case):
    L, vectors = case
    want = _echelon_or_error(_spans.graded_echelon, L, vectors)
    assert _echelon_or_error(graded_echelon, L, vectors) == want


def test_a_mixed_vector_raises_in_both():
    L = catalog.sl2()
    vectors = [{1: ONE}, {0: ONE, 2: ONE}]
    for fn in (graded_echelon, _spans.graded_echelon):
        with pytest.raises(AlgebraError):
            fn(L.group, L.degrees, vectors)


@pytest.mark.parametrize("name", catalog.algebra_names() + ["zero-dimensional"])
def test_center_equals_the_reference_and_the_adjoint_invariants(name):
    L = _zero_dim_algebra() if name == "zero-dimensional" else catalog.get_algebra(name)
    cen = L.center()
    assert cen == _spans.center(L)
    assert cen == invariants_subspace(adjoint(L))


def test_zero_dimensional_algebra_fixes_every_vector():
    L = _zero_dim_algebra()
    assert L.center() == []
    V = trivial(L, degrees=[(1,), (0,), (1,)])
    assert invariants_subspace(V) == [{1: ONE}, {0: ONE}, {2: ONE}]


def test_covering_of_a_zero_dimensional_algebra(tmp_path):
    path = str(tmp_path / "zero.json")
    fileio.save_algebra(_zero_dim_algebra(), path)
    buf = io.StringIO()
    assert main(["covering", "--algebra", path], stdout=buf) == 0
    assert "universal covering: dim 0" in buf.getvalue().splitlines()


E, H, F = ({0: ONE}, {1: ONE}, {2: ONE})


# each case has exactly one fault
@pytest.mark.parametrize("sub, ideal, message", [
    ([H], [E], "ideal is not contained in the subalgebra"),
    ([E, H, F], [E], "ideal_vectors do not span an ideal"),
    ([E, F], [], "sub_vectors do not span a subalgebra"),
])
def test_subquotient_names_each_fault(sub, ideal, message):
    with pytest.raises(AlgebraError) as err:
        catalog.sl2().subquotient(sub, ideal)
    assert str(err.value) == message
