from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from epslie import catalog, extensions
from epslie.algebra import (
    AlgebraError,
    EpsLieAlgebra,
    ValidationReport,
    degree_of_vector,
    graded_subquotient,
)
from epslie.exactlin import (
    ONE,
    RationalSparseMatrix,
    SpanTracker,
    vec_axpy,
    vec_clean,
    vec_is_zero,
)
from epslie.grading import super_factor, trivial_factor

# catalog index map for sl(1|2): Q+ Q- Q3 B V+ V- W+ W-
QP, QM, Q3, B, VP, VM, WP, WM = range(8)


def vec_by_label(L, vec):
    return {L.labels[k]: v for k, v in vec.items()}


def test_sl12_named_brackets():
    L = catalog.sl12()
    assert vec_by_label(L, L.bracket_basis(QP, QM)) == {"Q3": Fraction(2)}
    assert vec_by_label(L, L.bracket_basis(VP, WP)) == {"Q+": Fraction(1)}
    assert vec_by_label(L, L.bracket_basis(VM, WM)) == {"Q-": Fraction(-1)}
    assert vec_by_label(L, L.bracket_basis(VP, WM)) == {
        "Q3": Fraction(-1),
        "B": Fraction(1),
    }
    assert vec_by_label(L, L.bracket_basis(VM, WP)) == {
        "Q3": Fraction(-1),
        "B": Fraction(-1),
    }
    # standard doublets
    assert vec_by_label(L, L.bracket_basis(QP, VM)) == {"V+": Fraction(1)}
    assert vec_by_label(L, L.bracket_basis(QM, VP)) == {"V-": Fraction(1)}


def test_even_self_bracket_vanishes():
    L = catalog.sl12()
    for i in (QP, QM, Q3, B):
        assert L.bracket({i: ONE}, {i: ONE}) == {}


def test_validate_catalog_passes():
    assert catalog.sl12().validate().ok
    assert catalog.sl12("Z2").validate().ok
    assert catalog.sl2().validate().ok


def test_validate_flags_perturbed_structure_constant():
    L = catalog.sl12()
    table = {k: dict(v) for k, v in L.table.items()}
    table[(QP, QM)] = {Q3: Fraction(3)}  # breaks Jacobi, not skew-symmetry
    bad = EpsLieAlgebra(L.factor, L.labels, L.degrees, table)
    rep = bad.validate()
    assert not rep.ok
    kinds = {p[0] for p in rep.problems}
    assert "jacobi" in kinds
    names = {p[1] for p in rep.problems if p[0] == "jacobi"}
    assert all(len(t) == 3 for t in names)


def reference_validate(self):
    """The triple loop EpsLieAlgebra.validate ran before the sparse join:
    three bracket calls on every (i, j, k >= j)."""
    rep = ValidationReport()
    g = self.group
    for (i, j), vec in sorted(self.table.items()):
        want = g.add(self.degrees[i], self.degrees[j])
        for k, c in vec.items():
            if g.reduce(self.degrees[k]) != want:
                rep.note(
                    "homogeneity",
                    (self.labels[i], self.labels[j]),
                    "component %s has degree %s, expected %s"
                    % (self.labels[k], self.degrees[k], want),
                )
    for i in range(self.dim):
        if self.parity(i) == 1 and not vec_is_zero(self.bracket_basis(i, i)):
            rep.note(
                "skew-symmetry",
                (self.labels[i], self.labels[i]),
                "even element with nonzero self-bracket",
            )
    for i in range(self.dim):
        for j in range(self.dim):
            eij = self.signs[i][j]
            for k in range(j, self.dim):
                lhs = self.bracket({i: 1}, self.bracket_basis(j, k))
                rhs = self.bracket(self.bracket_basis(i, j), {k: 1})
                vec_axpy(rhs, eij, self.bracket({j: 1}, self.bracket_basis(i, k)))
                if vec_clean(lhs) != vec_clean(rhs):
                    rep.note(
                        "jacobi",
                        (self.labels[i], self.labels[j], self.labels[k]),
                        "adjoint derivation identity fails",
                    )
    return rep


@pytest.mark.parametrize("name", catalog.algebra_names() + ["gl33"])
def test_validate_matches_the_reference_loop_on_the_catalog(name):
    L = catalog.gl(3, 3) if name == "gl33" else catalog.get_algebra(name)
    assert L.validate().problems == reference_validate(L).problems


def test_validate_matches_the_reference_loop_on_the_covering_of_psl22(monkeypatch):
    L = catalog.psl_nn(2)
    seen = []
    validate = EpsLieAlgebra.validate

    def recorded(self):
        seen.append(self)
        return validate(self)

    monkeypatch.setattr(EpsLieAlgebra, "validate", recorded)
    extensions.universal_covering(L)
    # the extension E of psl(2|2) by W = Lambda^2 / im d3, then the covering
    assert [A.dim for A in seen] == [31, 17]
    for A in seen:
        assert validate(A).problems == reference_validate(A).problems


_PERTURBED = ["sl12", "sl12_z2", "osp12", "psl22", "gl21", "sl3"]
_coeff = st.fractions(-3, 3, max_denominator=3)


@st.composite
def _perturbed_table(draw):
    """A catalog table with one to three coefficients changed (to any
    rational, zero included) or terms added."""
    L = catalog.get_algebra(draw(st.sampled_from(_PERTURBED)))
    table = {key: dict(vec) for key, vec in L.table.items()}
    filled = sorted(key for key, vec in table.items() if vec)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            key = draw(st.sampled_from(filled))
            k = draw(st.sampled_from(sorted(table[key])))
        else:
            i = draw(st.integers(0, L.dim - 1))
            key = (i, draw(st.integers(i, L.dim - 1)))
            k = draw(st.integers(0, L.dim - 1))
        table.setdefault(key, {})[k] = draw(_coeff)
    return EpsLieAlgebra(L.factor, L.labels, L.degrees, table)


@settings(max_examples=150, deadline=None)
@given(_perturbed_table())
def test_validate_matches_the_reference_loop_on_perturbed_tables(A):
    assert A.validate().problems == reference_validate(A).problems


def _odd_square(c):
    """A Lie superalgebra for c = 1: x, y odd; z, u, w even; <x,z> = y,
    <x,y> = w, <x,x> = 2u, <u,z> = c w.  Any other c breaks Jacobi only on
    the sorted triple (x, x, z), whose repeated element is odd."""
    x, y, z, u, w = range(5)
    table = {(x, z): {y: 1}, (x, y): {w: 1}, (x, x): {u: 2}, (u, z): {w: c}}
    return EpsLieAlgebra(super_factor(), "xyzuw", [(1,), (1,), (0,), (0,), (0,)], table)


def test_odd_square_fails_only_on_a_repeated_odd_element():
    assert _odd_square(1).validate().ok
    A = _odd_square(3)
    assert list(A._jacobi_failures(sorted_only=True)) == [(0, 0, 2)]
    assert [p[1] for p in A.validate().problems] == [("x", "x", "z"), ("z", "x", "x")]


def test_catalog_and_covering_never_run_the_full_jacobi_listing(monkeypatch):
    """validate lists every (i, j, k >= j) only after the sorted triples or
    a sign rule failed: building psl(3|3) and psl(2|2) and the covering of
    psl(2|2) checks each algebra with one sorted pass."""
    calls = []
    failures = EpsLieAlgebra._jacobi_failures

    def recorded(self, sorted_only):
        calls.append((self.dim, sorted_only))
        return failures(self, sorted_only)

    monkeypatch.setattr(EpsLieAlgebra, "_jacobi_failures", recorded)
    monkeypatch.setattr(catalog, "_CACHE", {})
    catalog.get_algebra("psl33")
    extensions.universal_covering(catalog.psl_nn(2))
    # sl(3|3), psl(3|3), sl(2|2), psl(2|2), then E and the covering
    assert calls == [(d, True) for d in (35, 34, 15, 14, 31, 17)]


@st.composite
def _recoefficiented_table(draw):
    """A valid table with one to three of its terms given new coefficients
    (any rational, zero included).  The brackets stay homogeneous and even
    self-brackets stay zero, so the sorted triples decide Jacobi."""
    if draw(st.booleans()):
        L = catalog.get_algebra(draw(st.sampled_from(_PERTURBED)))
    else:
        L = _odd_square(1)
    table = {key: dict(vec) for key, vec in L.table.items()}
    terms = sorted((key, k) for key, vec in table.items() for k in vec)
    for _ in range(draw(st.integers(1, 3))):
        key, k = draw(st.sampled_from(terms))
        table[key][k] = draw(_coeff)
    return EpsLieAlgebra(L.factor, L.labels, L.degrees, table)


@settings(max_examples=150, deadline=None)
@given(_recoefficiented_table())
@example(_odd_square(2))
def test_validate_matches_the_reference_loop_on_recoefficiented_tables(A):
    assert A.validate().problems == reference_validate(A).problems


@pytest.mark.parametrize("degrees, table", [
    # inhomogeneous <a,a>, <a,b> and <b,c>
    ([(1,), (0,), (1,)], {(0, 0): {2: -1}, (0, 1): {1: 1}, (1, 2): {1: 2}}),
    # the even self-bracket <a,a> = b
    ([(0,), (0,), (0,)], {(0, 0): {1: 1}, (0, 2): {0: 1}}),
])
def test_validate_lists_every_triple_after_a_sign_rule_fails(degrees, table):
    """Without homogeneity or skew-symmetry the Jacobi defect need not be
    eps-alternating: these tables pass on the sorted triples and fail on
    others, which validate still reports."""
    A = EpsLieAlgebra(super_factor(), "abc", degrees, table)
    assert next(A._jacobi_failures(sorted_only=True), None) is None
    problems = A.validate().problems
    assert "jacobi" in {kind for kind, _, _ in problems}
    assert problems == reference_validate(A).problems


def test_validate_makes_no_bracket_calls(monkeypatch):
    L = catalog.psl_nn(3)
    calls = {"bracket": 0}
    bracket = EpsLieAlgebra.bracket

    def counted(self, x, y):
        calls["bracket"] += 1
        return bracket(self, x, y)

    monkeypatch.setattr(EpsLieAlgebra, "bracket", counted)
    assert L.validate().ok
    assert calls == {"bracket": 0}


def test_subquotient_brackets_each_unordered_pair_once(monkeypatch):
    L = catalog.sl(2, 2)
    calls = {"bracket": 0}
    bracket = EpsLieAlgebra.bracket

    def counted(self, x, y):
        calls["bracket"] += 1
        return bracket(self, x, y)

    monkeypatch.setattr(EpsLieAlgebra, "bracket", counted)
    P, reps = L.subquotient(
        [{a: ONE} for a in range(L.dim)], [catalog.identity_vector_sl(2, 2)]
    )
    s, q = L.dim, P.dim
    # ideal: sub x ideal; table, which also decides closure: q(q+1)/2
    assert (s, q) == (15, 14)
    assert calls == {"bracket": s + q * (q + 1) // 2}


def test_abelian_validates_and_has_everything_central():
    f = trivial_factor(0, (2,))
    A = EpsLieAlgebra(f, ["a", "b"], [(0,), (1,)], {})
    assert A.validate().ok
    assert A.derived_subalgebra() == []
    assert not A.is_perfect()
    assert len(A.center()) == 2


def test_derived_subalgebra_sl2_full():
    L = catalog.sl2()
    assert len(L.derived_subalgebra()) == 3
    assert L.is_perfect()


def test_derived_subalgebra_gl11_proper():
    G = catalog.gl(1, 1)
    der = G.derived_subalgebra()
    assert len(der) == 3  # span{E12, E21, E11+E22}
    assert not G.is_perfect()


def test_center_of_sl_nn():
    S = catalog.sl(2, 2)
    cen = S.center()
    assert len(cen) == 1
    ivec = catalog.identity_vector_sl(2, 2)
    from epslie.exactlin import SpanTracker

    assert SpanTracker(cen).contains(ivec)


def test_sl12_center_trivial_and_perfect():
    L = catalog.sl12()
    assert L.center() == []
    assert L.is_perfect()


def test_subquotient_psl_dims():
    for n in (2, 3):
        P = catalog.psl_nn(n)
        assert P.dim == 4 * n * n - 2
        assert P.validate().ok
        assert P.is_perfect()


def test_subquotient_degenerate_cases():
    L = catalog.sl2()
    everything = [{i: ONE} for i in range(L.dim)]
    Q, _ = L.subquotient(everything, everything)
    assert Q.dim == 0
    Q2, reps = L.subquotient(everything, ())
    assert Q2.dim == L.dim
    assert not Q2.homomorphism_defect(
        L, RationalSparseMatrix.from_columns(reps, L.dim)
    )


def test_subquotient_rejects_non_ideal():
    L = catalog.sl2()
    with pytest.raises(AlgebraError):
        L.subquotient([{i: ONE} for i in range(3)], [{0: ONE}])  # K e not ideal


def test_subquotient_rejects_non_subalgebra():
    L = catalog.sl12()
    with pytest.raises(AlgebraError):
        L.subquotient([{VP: ONE}, {WM: ONE}], ())


def test_subquotient_rejects_non_subalgebra_modulo_an_ideal():
    """span{E_12, E_21, I} in sl(2|2) holds the central I but not
    <E_12, E_21> = E_11 - E_22; the quotient by I must still see that."""
    L, reps, _ = catalog._sl_data(2, 2)
    e12 = reps.index({0 * 4 + 1: ONE})
    e21 = reps.index({1 * 4 + 0: ONE})
    ivec = catalog.identity_vector_sl(2, 2)
    with pytest.raises(AlgebraError, match="sub_vectors do not span a subalgebra"):
        L.subquotient([{e12: ONE}, {e21: ONE}, ivec], [ivec])


def test_degree_of_vector():
    L = catalog.sl12()
    assert degree_of_vector(L.degrees, {VP: ONE, VM: ONE}) == (1,)
    with pytest.raises(AlgebraError):
        degree_of_vector(L.degrees, {VP: ONE, WP: ONE})


def test_derived_is_ideal():
    for L in (catalog.sl12(), catalog.gl(1, 1), catalog.osp12()):
        from epslie.exactlin import SpanTracker

        der = L.derived_subalgebra()
        span = SpanTracker(der)
        for v in der:
            for i in range(L.dim):
                assert span.contains(L.bracket({i: ONE}, v))


def test_homomorphism_defect_detects_failure():
    L = catalog.sl2()
    ident = RationalSparseMatrix.identity(3)
    assert not L.homomorphism_defect(L, ident)
    wrong = RationalSparseMatrix.from_dense([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert L.homomorphism_defect(L, wrong)


_DIM = 6
_entries = st.dictionaries(
    st.integers(0, _DIM - 1), st.fractions(-3, 3, max_denominator=2), max_size=_DIM
)


@st.composite
def _graded_case(draw):
    """Degrees on Z, homogeneous spanning and divided-out vectors, and a
    test vector that is a combination of both, sometimes plus a unit vector."""
    degrees = [(d,) for d in draw(st.lists(st.integers(0, 2), min_size=_DIM,
                                           max_size=_DIM))]

    def homogeneous(v):
        if not v:
            return v
        d = degrees[min(v)]
        return {k: c for k, c in v.items() if degrees[k] == d}

    vectors = [homogeneous(v) for v in draw(st.lists(_entries, max_size=5))]
    divided = [homogeneous(v) for v in draw(st.lists(_entries, max_size=3))]
    vec = {}
    for v in vectors + divided:
        vec_axpy(vec, draw(st.fractions(-2, 2, max_denominator=2)), v)
    if draw(st.booleans()):
        vec_axpy(vec, ONE, {draw(st.integers(0, _DIM - 1)): ONE})
    return degrees, vectors, divided, vec


@given(_graded_case())
def test_graded_subquotient_coordinates_rebuild_modulo_the_span(case):
    degrees, vectors, divided, vec = case
    basis, degs, coords = graded_subquotient(degrees, vectors, SpanTracker(divided))
    assert len(basis) == SpanTracker(vectors + divided).dim - SpanTracker(divided).dim
    assert degs == [degree_of_vector(degrees, b) for b in basis]
    assert [(d, min(b)) for d, b in zip(degs, basis)] == sorted(
        (d, min(b)) for d, b in zip(degs, basis)
    )
    c = coords(vec)
    assert (c is None) == (not SpanTracker(vectors + divided).contains(vec))
    if c is not None:
        rest = dict(vec)
        for a, x in c.items():
            vec_axpy(rest, -x, basis[a])
        assert SpanTracker(divided).contains(rest)


def _lower_triangle(L):
    """L.table given as <e_j, e_i> = -eps(j, i) <e_i, e_j> below the
    diagonal, with eps from the commutation factor, not the sign table."""
    eps = L.factor.eps
    return {(j, i): {k: -eps(L.degrees[j], L.degrees[i]) * c for k, c in vec.items()}
            if i != j else vec for (i, j), vec in L.table.items()}


@pytest.mark.parametrize("name", ["sl12", "sl12_z2", "osp12", "psl22", "gl21"])
def test_an_algebra_given_by_its_lower_triangle_is_the_same(name):
    L = catalog.get_algebra(name)
    for table in (_lower_triangle(L), {**L.table, **_lower_triangle(L)}):
        A = EpsLieAlgebra(L.factor, L.labels, L.degrees, table)
        assert A.table == L.table
        for i in range(L.dim):
            for j in range(L.dim):
                assert A.bracket_basis(i, j) == L.bracket_basis(i, j)


def test_a_pair_given_both_ways_with_the_wrong_sign_is_rejected():
    L = catalog.sl12()
    for i, j in ((QP, QM), (VP, WP)):  # even x even, odd x odd
        e = L.factor.eps(L.degrees[j], L.degrees[i])
        table = dict(L.table)
        table[(j, i)] = {k: -e * c for k, c in L.table[(i, j)].items()}
        assert EpsLieAlgebra(L.factor, L.labels, L.degrees, table).table == L.table
        table[(j, i)] = {k: e * c for k, c in L.table[(i, j)].items()}
        with pytest.raises(AlgebraError, match="inconsistent skew pair"):
            EpsLieAlgebra(L.factor, L.labels, L.degrees, table)


@pytest.mark.parametrize("name", catalog.algebra_names() + ["psl22-covering"])
def test_every_bracket_view_reads_the_one_table(name):
    """bracket_basis obeys <e_j,e_i> = -eps(i,j) <e_i,e_j>; bracket_terms,
    ad_matrix and bracket_preimages agree with it and with table."""
    if name == "psl22-covering":
        L = extensions.universal_covering(catalog.psl_nn(2)).covering
    else:
        L = catalog.get_algebra(name)
    eps, n = L.factor.eps, L.dim
    for i in range(n):
        for j in range(n):
            e = eps(L.degrees[i], L.degrees[j])
            vec = L.bracket_basis(i, j)
            assert L.bracket_basis(j, i) == {k: -e * c for k, c in vec.items()}
            assert L.bracket_terms[i][j] == tuple(vec.items())
        ad = L.ad_matrix(i)
        assert ad == {(k, j): c for j in range(n)
                      for k, c in L.bracket({i: ONE}, {j: ONE}).items()}
        assert [j for _, j in ad] == sorted(j for _, j in ad)
    made = {(a, b, k): c for k, triples in enumerate(L.bracket_preimages)
            for a, b, c in triples}
    assert made == {(a, b, k): c for (a, b), vec in L.table.items() for k, c in vec.items()}
    assert all(ts == sorted(ts, key=lambda t: t[:2]) for ts in L.bracket_preimages)
