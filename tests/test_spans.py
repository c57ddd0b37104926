"""The span layer: graded_echelon, graded_kernel (center, invariants,
intertwiners, invariant cochains) and the checks of subquotient, against
the references in _spans.py."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _spans
from _sectors import full_basis
from epslie import catalog, fileio
from epslie import algebra
from epslie.algebra import AlgebraError, EpsLieAlgebra, graded_echelon, graded_kernel
from epslie.cli import main
from epslie.cohomology import invariant_cochains
from epslie.exactlin import ONE, RationalSparseMatrix, SpanTracker
from epslie.gmodule import (
    adjoint,
    eps_power,
    intertwiner_defect,
    intertwiner_space,
    invariants_subspace,
    quotient,
    shift,
    submodule_generated,
    submodule_span,
    trivial,
    twist,
)
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
        return fn(L.degrees, vectors)
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
            fn(L.degrees, vectors)


@pytest.mark.parametrize("name", catalog.algebra_names() + ["zero-dimensional"])
def test_center_equals_the_reference_and_the_adjoint_invariants(name):
    L = _zero_dim_algebra() if name == "zero-dimensional" else catalog.get_algebra(name)
    cen = L.center()
    assert cen == _spans.center(L)
    assert cen == invariants_subspace(adjoint(L))


def test_graded_kernel_refuses_a_row_that_mixes_degrees():
    """The kernel of the row (1, 1) over columns of degrees 0 and 1 is
    spanned by (1, -1), which is not homogeneous; solving one block per
    degree has no block for that row, so it is refused, not split."""
    op = RationalSparseMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(AlgebraError):
        graded_kernel([(0,), (1,)], [op])


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


@pytest.mark.parametrize("bad", [1.0, 0.0])
def test_span_entry_points_refuse_a_float(bad):
    """Every spanning vector goes through vec_rational once, in
    graded_subquotient: a float entry raises TypeError, even 0.0, from
    graded_echelon and from each caller that spans a subspace."""
    L = catalog.sl2()
    V8 = catalog.module_v8(catalog.sl12())
    calls = [
        lambda: graded_echelon(L.degrees, [{1: bad}]),
        lambda: L.subquotient([{1: bad}]),
        lambda: L.subquotient([E, H, F], [{1: bad}]),
        lambda: quotient(V8, [{k: bad} for k in range(1, 8)]),
        lambda: invariant_cochains(L, trivial(L), 1, [{1: bad}]),
        lambda: submodule_generated(V8, [{0: bad, 1: ONE}]),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def _quotient(mod, labels):
    return quotient(mod, [{mod.labels.index(lab): ONE} for lab in labels])


def _first_odd(L):
    return min(i for i in range(L.dim) if L.signs[i][i] == -1)


def _intertwiner_case(name):
    """(V, W, phi) of an intertwiner case: the V(1/2) subquotients of the
    sl(1|2) lattice, the closure of the invariant in S^2 ad, and odd-degree
    maps ad -> shift(ad, sigma) for the degree sigma of an odd element."""
    if name.startswith("odd "):
        L = catalog.get_algebra(name[4:])
        ad = adjoint(L)
        sigma = L.degrees[_first_odd(L)]
        return ad, shift(ad, sigma), L.group.neg(sigma)
    L = catalog.sl12("Z2" if name == "v4bar/v1 -> twist" else "Z")
    fam = catalog.module_v8_family(L)
    Vh = catalog.module_v_half(L)
    zero = L.group.zero()
    if name == "v4/v1 -> v_half":
        return _quotient(fam["v4"], ["s"]), Vh, zero
    if name == "v7/v4bar -> v_half":
        return _quotient(fam["v7"], ["s", "w+", "w-", "w"]), Vh, zero
    if name == "v4bar/v1 -> twist":
        return _quotient(fam["v4bar"], ["s"]), twist(Vh, catalog.omega_matrix(L)), zero
    if name == "v8 -> v8":
        return fam["v8"], fam["v8"], zero
    ad = adjoint(L)
    S = eps_power(ad, 2, True)
    if name == "s2ad -> s2ad":
        return S, S, zero
    # Q+ ⊗ Q- + Q- ⊗ Q+ + 2 Q3 ⊗ Q3 + 2 B ⊗ B, in ad ⊗ ad coordinates
    QP, QM, Q3, B = range(4)
    d = L.dim
    t = {QP * d + QM: ONE, QM * d + QP: ONE, Q3 * d + Q3: Fraction(2), B * d + B: Fraction(2)}
    closure = submodule_generated(S, [S.embedding.image_membership(t)])
    return closure, catalog.module_v8(L), zero


def _map_span(maps):
    return SpanTracker([F.entries for F in maps]).basis()


@pytest.mark.parametrize("name", [
    "v4/v1 -> v_half", "v7/v4bar -> v_half", "v4bar/v1 -> twist", "v8 -> v8",
    "s2ad -> s2ad", "closure -> v8", "odd sl12_z2", "odd sl12", "odd osp12",
    "odd gl11", "odd psl22",
])
def test_intertwiner_space_equals_the_equation_reference(name):
    V, W, phi = _intertwiner_case(name)
    maps = intertwiner_space(V, W, phi)
    assert maps and _map_span(maps) == _map_span(_spans.intertwiner_space(V, W, phi))
    assert all(intertwiner_defect(F, V, W, phi) is None for F in maps)


@pytest.mark.parametrize("name", ["s2ad -> s2ad", "v8 -> v8", "odd psl22"])
def test_intertwiner_space_solves_only_the_degree_phi_block(name, monkeypatch):
    """graded_kernel sees only the entries (a, c) of W ⊗ V* with
    deg w_a - deg v_c = phi, not the whole of Hom(V, W)."""
    V, W, phi = _intertwiner_case(name)
    g = V.group
    entries = sum(g.sub(dw, dv) == g.reduce(phi) for dw in W.degrees for dv in V.degrees)
    solved = []
    kernel = algebra.rows_kernel

    def recorded(rows, cols):
        solved.append(cols)
        return kernel(rows, cols)

    monkeypatch.setattr(algebra, "rows_kernel", recorded)
    maps = intertwiner_space(V, W, phi)
    monkeypatch.undo()
    assert solved == [entries] and entries < V.dim * W.dim
    assert _map_span(maps) == _map_span(_spans.intertwiner_space(V, W, phi))


@pytest.mark.parametrize("name", ["sl12", "sl12_z2", "osp12", "gl11", "psl22"])
def test_intertwiner_defect_names_the_first_failing_element(name):
    """The identity ad -> shift(ad, sigma) has odd degree -sigma, so it
    fails exactly at the odd elements, where eps(-sigma, alpha) = -1."""
    V, W, phi = _intertwiner_case("odd " + name)
    ident = RationalSparseMatrix.identity(V.dim)
    assert intertwiner_defect(ident, V, W, phi) == _first_odd(V.algebra)
    assert intertwiner_defect(ident, V, V, V.group.zero()) is None


def _cochain_span(L, V, n, cochains):
    index = {p: k for k, p in enumerate(full_basis(L, V, n))}
    return SpanTracker([{index[(M, w)]: c for M, vec in g.values.items() for w, c in vec.items()}
                        for g in cochains]).basis()


@pytest.mark.parametrize("name, module, n, vectors", [
    ("sl12", catalog.module_v_half, 1, lambda L: []),
    ("sl12_z2", catalog.module_v_half, 1, lambda L: catalog.osp12_vectors()),
    ("psl22", trivial, 2, lambda L: [{i: ONE} for i in range(L.dim) if L.signs[i][i] == 1]),
    ("sl12", adjoint, 2, lambda L: [{i: ONE} for i in range(L.dim) if L.signs[i][i] == 1]),
])
def test_invariant_cochains_equal_the_equation_reference(name, module, n, vectors):
    L = catalog.get_algebra(name)
    V = module(L)
    got = invariant_cochains(L, V, n, vectors(L))
    want = _spans.invariant_cochains(L, V, n, vectors(L))
    assert _cochain_span(L, V, n, got) == _cochain_span(L, V, n, want)


def test_spans_reduce_by_no_empty_divisor(monkeypatch):
    """graded_subquotient passes by a divisor with no rows: spanning the
    derived subalgebra of psl(3|3) (203 nonzero brackets) or a submodule,
    no vector is reduced by a tracker that is empty and never grows."""
    express, add = SpanTracker.express, SpanTracker.add
    empty, grown = [], []  # the trackers of each call, kept alive for id()

    def recorded_express(self, vec):
        if not self.rows:
            empty.append(self)
        return express(self, vec)

    def recorded_add(self, vec):
        grown.append(self)
        return add(self, vec)

    monkeypatch.setattr(SpanTracker, "express", recorded_express)
    monkeypatch.setattr(SpanTracker, "add", recorded_add)
    L = catalog.get_algebra("psl33")
    assert len(L.derived_subalgebra()) == L.dim
    V = adjoint(catalog.psl_nn(2))
    assert submodule_span(V, [{a: ONE} for a in range(V.dim)]).dim == V.dim
    assert empty
    assert {id(t) for t in empty} <= {id(t) for t in grown}
