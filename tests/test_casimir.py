import io
import itertools
import json
import os
import sys
from fractions import Fraction

import pytest

from epslie import casimir, catalog, cli, gmodule
from epslie.casimir import (
    CasimirError,
    CasimirOperator,
    InvariantForm,
    casimir_operator,
    homotopy_matrix,
    invariant_multilinear_forms,
    vanishing_witness,
    quadratic_invariant_forms,
    verify_homotopy_identity,
)
from epslie.cohomology import CochainComplex
from epslie.exactlin import ONE, RationalSparseMatrix, ShapeError, SpanTracker
from epslie.gmodule import adjoint, coadjoint, trivial

from _sectors import full_sector_positions


def _reference_forms(M, r, symmetry):
    """The full-tuple system for the forms of a symmetry: one unknown per
    ordered r-tuple, the invariance equations of every tuple, and for
    eps-skew/eps-symmetric forms the (skew)symmetry imposed as extra
    equations on adjacent swaps.  It uses no inner torus."""
    L = M.algebra
    g = M.group
    fac = M.factor
    by_deg = {}
    for T in itertools.product(range(M.dim), repeat=r):
        by_deg.setdefault(g.sum(M.degrees[t] for t in T), []).append(T)
    colmaj = [
        [sorted(col.items()) for col in m.columns()] for m in M.action
    ]

    out = []
    for D in sorted(by_deg):
        tuples = by_deg[D]
        pos = {T: k for k, T in enumerate(tuples)}
        eta = g.neg(D)
        rows = {}
        ent = {}

        def put(row_key, col, c):
            if not c:
                return
            rr = rows.setdefault(row_key, len(rows))
            v = ent.get((rr, col), Fraction(0)) + c
            if v:
                ent[(rr, col)] = v
            else:
                ent.pop((rr, col), None)

        for i in range(L.dim):
            src = by_deg.get(g.sub(D, L.degrees[i]), [])
            e_eta = fac.eps(L.degrees[i], eta)
            for T in src:
                e = e_eta
                for k, tk in enumerate(T):
                    for (s, c) in colmaj[i][tk]:
                        U = T[:k] + (s,) + T[k + 1 :]
                        put(("inv", i, T), pos[U], e * c)
                    e *= M.signs[i][tk]
        want = 1 if symmetry == "eps_symmetric" else -1
        for T in tuples if symmetry != "none" else ():
            for k in range(r - 1):
                e = fac.eps(M.degrees[T[k]], M.degrees[T[k + 1]])
                U = T[:k] + (T[k + 1], T[k]) + T[k + 2 :]
                put(("sym", T, k), pos[U], ONE)
                put(("sym", T, k), pos[T], -want * e)
        mat = RationalSparseMatrix(len(rows), len(tuples), ent)
        for kv in mat.kernel_basis():
            out.append(InvariantForm(M, r, {tuples[k]: c for k, c in kv.items()}))
    return out


def _substitution_failures(form, symmetry):
    """Every invariance equation and adjacent-swap relation the form breaks,
    checked on every ordered tuple of basis indices."""
    M = form.module
    L = M.algebra
    g = M.group
    fac = M.factor
    r = form.arity
    want = 1 if symmetry == "eps_symmetric" else -1
    eps = {}
    bad = []
    for T in itertools.product(range(M.dim), repeat=r):
        for k in range(r - 1):
            U = T[:k] + (T[k + 1], T[k]) + T[k + 2 :]
            e = fac.eps(M.degrees[T[k]], M.degrees[T[k + 1]])
            if form(*U) != want * e * form(*T):
                bad.append(("swap", T, k))
        # phi(e_i . v_T) with the Leibniz rule on the tensor power
        for i in range(L.dim):
            acc = Fraction(0)
            for k in range(r):
                pair = (L.degrees[i], g.sum(M.degrees[t] for t in T[:k]))
                if pair not in eps:
                    eps[pair] = fac.eps(*pair)
                e = eps[pair]
                for s, c in M.action[i].column(T[k]).items():
                    acc += e * c * form(*T[:k], s, *T[k + 1 :])
            if acc:
                bad.append(("invariance", i, T))
    return bad


def test_sl2_invariant_form_dimensions():
    L = catalog.sl2()
    ad = adjoint(L)
    assert len(invariant_multilinear_forms(ad, 2, "eps_skew")) == 0
    assert len(invariant_multilinear_forms(ad, 3, "eps_skew")) == 1
    sym = invariant_multilinear_forms(ad, 2, "eps_symmetric")
    assert len(sym) == 1  # the Killing line
    none = invariant_multilinear_forms(ad, 2, "none")
    assert len(none) == 1  # every invariant bilinear form on sl(2) is symmetric


def test_invariant_form_values_recognize_killing():
    L = catalog.sl2()
    k = invariant_multilinear_forms(adjoint(L), 2, "eps_symmetric")[0]
    # basis (e, h, f): kappa(h,h)/kappa(e,f) = 2 for any scalar multiple
    assert k(1, 1) == 2 * k(0, 2) != 0
    assert k(0, 2) == k(2, 0)
    assert k(0, 0) == 0


def test_invariance_equations_hold():
    L = catalog.sl12()
    co = coadjoint(L)
    for form in quadratic_invariant_forms(L):
        # re-check by brute force on the module action
        for i in range(L.dim):
            for a in range(L.dim):
                for b in range(L.dim):
                    acc = Fraction(0)
                    eta = form.degree
                    e1 = L.factor.eps(L.degrees[i], eta)
                    for s, c in co.action[i].column(a).items():
                        acc += e1 * c * form(s, b)
                    e2 = L.factor.eps(
                        L.degrees[i], L.group.add(eta, co.degrees[a])
                    )
                    for s, c in co.action[i].column(b).items():
                        acc += e2 * c * form(a, s)
                    assert acc == 0


def test_quadratic_casimir_sl2_is_scalar():
    L = catalog.sl2()
    ad = adjoint(L)
    cas = casimir_operator(L, quadratic_invariant_forms(L)[0], ad)
    d = cas.operator.get(0, 0)
    assert d != 0
    assert cas.operator == RationalSparseMatrix.identity(3).scale(d)
    assert cas.is_invertible()


def test_casimir_on_trivial_module_is_zero():
    L = catalog.sl12()
    K = trivial(L)
    cas = casimir_operator(L, quadratic_invariant_forms(L)[0], K)
    assert cas.operator.is_zero()
    assert not cas.is_invertible()


def test_casimir_graded_centrality_on_catalog_modules():
    L = catalog.sl12()
    form = quadratic_invariant_forms(L)[0]
    for V in (
        adjoint(L),
        catalog.module_v_half(L),
        catalog.module_typical_v0_half(L),
        catalog.module_v8(L),
    ):
        casimir_operator(L, form, V)  # raises on a centrality failure


def test_casimir_scalar_on_typical_module():
    L = catalog.sl12()
    Vt = catalog.module_typical_v0_half(L)
    cas = vanishing_witness(L, Vt)
    assert cas is not None
    c = cas.operator.get(0, 0)
    assert c != 0
    assert cas.operator == RationalSparseMatrix.identity(Vt.dim).scale(c)


def test_no_witness_for_atypical_and_trivial():
    L = catalog.sl12()
    assert vanishing_witness(L, catalog.module_v_half(L)) is None
    assert vanishing_witness(L, trivial(L)) is None
    assert vanishing_witness(L, catalog.module_wn(L, 2)) is None


def test_witness_implies_vanishing_cohomology():
    L = catalog.sl12()
    Vt = catalog.module_typical_v0_half(L)
    assert vanishing_witness(L, Vt) is not None
    res = CochainComplex(L, Vt, 2).cohomology()
    assert [res.total(n) for n in range(3)] == [0, 0, 0]
    L2 = catalog.sl2()
    ad2 = adjoint(L2)
    assert vanishing_witness(L2, ad2) is not None
    res2 = CochainComplex(L2, ad2, 3).cohomology()
    assert [res2.total(n) for n in range(4)] == [0, 0, 0, 0]


@pytest.mark.parametrize("n", [1, 2])
def test_homotopy_identity_sl12_typical(n, monkeypatch):
    """The identity holds, per sector and with no full coboundary matrix,
    and fails once C_V is doubled while the partial operators are kept."""
    def no_full_delta(self, level):
        raise AssertionError("the full delta(%d) was built" % level)

    monkeypatch.setattr(CochainComplex, "delta", no_full_delta)
    L = catalog.sl12()
    Vt = catalog.module_typical_v0_half(L)
    cas = casimir_operator(L, quadratic_invariant_forms(L)[0], Vt)
    cx = CochainComplex(L, Vt, n)
    assert verify_homotopy_identity(cas, cx, n)
    doubled = CasimirOperator(cas.form, Vt, cas.operator.scale(2), cas.partials, cas.degree)
    assert not verify_homotopy_identity(doubled, cx, n)


def test_homotopy_identity_sl2_adjoint():
    L = catalog.sl2()
    ad = adjoint(L)
    cas = casimir_operator(L, quadratic_invariant_forms(L)[0], ad)
    cx = CochainComplex(L, ad, 1)
    assert verify_homotopy_identity(cas, cx, 1)


def test_homotopy_identity_more_modules():
    L = catalog.sl12()
    form = quadratic_invariant_forms(L)[0]
    for V in (catalog.module_v_half(L), catalog.module_v8(L)):
        cas = casimir_operator(L, form, V)
        cx = CochainComplex(L, V, 1)
        assert verify_homotopy_identity(cas, cx, 1)


def test_homotopy_operator_level_one_shape():
    """Each sector block maps the sector gamma of C^1 to the sector
    gamma + eta of C^0, with the sizes of the full bases split by degree."""
    L = catalog.sl2()
    ad = adjoint(L)
    cas = casimir_operator(L, quadratic_invariant_forms(L)[0], ad)
    cx = CochainComplex(L, ad, 1)
    sizes = [{deg: len(ps) for deg, ps in full_sector_positions(L, ad, n).items()}
             for n in (0, 1)]
    assert cx.sector_degrees(1) == list(sizes[1])
    for deg in cx.sector_degrees(1):
        d1 = homotopy_matrix(cas, cx, 1, deg)
        target = L.group.add(deg, cas.degree)
        assert (d1.rows, d1.cols) == (sizes[0].get(target, 0), sizes[1][deg])
        z = RationalSparseMatrix.zero(d1.cols, 1)
        assert d1.multiply(z).is_zero()


def test_homotopy_matrix_rejects_a_term_that_leaves_its_sector():
    """The same action on vectors all of degree 0: the partial operators of
    the odd elements now cross sectors, and the sector blocks refuse them
    as the assembly of the coboundary blocks does."""
    L = catalog.sl12()
    V = catalog.module_typical_v0_half(L)
    flat = gmodule.GradedModule(L, V.labels, [L.group.zero()] * V.dim, V.action)
    cas = casimir_operator(L, quadratic_invariant_forms(L)[0], flat)
    cx = CochainComplex(L, flat, 1)
    with pytest.raises(ShapeError, match="leaves its degree sector"):
        for deg in cx.sector_degrees(1):
            homotopy_matrix(cas, cx, 1, deg)


# The full-tuple reference has dim^r unknowns: r = 3 on sl(3|3) and
# psl(3|3) (42,875 and 39,304 tuples) takes minutes, so they stop at r = 2.
_CROSS_CHECK = [
    ("sl2", 3), ("sl3", 3), ("osp12", 3), ("sl12", 3), ("sl12_z2", 3),
    ("gl11", 3), ("gl21", 3), ("gl12", 3), ("sl21", 3),
    pytest.param("gl22", 3, marks=pytest.mark.slow),
    pytest.param("sl22", 3, marks=pytest.mark.slow),
    pytest.param("psl22", 3, marks=pytest.mark.slow),
    pytest.param("sl33", 2, marks=pytest.mark.slow),
    pytest.param("psl33", 2, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("algebra, rmax", _CROSS_CHECK)
def test_symmetric_forms_match_the_full_tuple_reference(algebra, rmax):
    L = catalog.get_algebra(algebra)
    for M in (adjoint(L), coadjoint(L)):
        for r in range(1, rmax + 1):
            # "none" at r <= 2, where quadratic_invariant_forms uses it
            for symmetry in ("none", "eps_skew", "eps_symmetric")[r > 2:]:
                got = invariant_multilinear_forms(M, r, symmetry)
                want = _reference_forms(M, r, symmetry)
                assert [f.degree for f in got] == [f.degree for f in want], (
                    r, symmetry)
                assert _spans_by_degree(got) == _spans_by_degree(want), (r, symmetry)


def _spans_by_degree(forms):
    """{degree: reduced echelon basis of the span of the forms' values}; the
    basis of a span does not depend on the spanning set."""
    spans = {}
    for f in forms:
        assert spans.setdefault(f.degree, SpanTracker()).add(f.values)
    return {deg: span.basis() for deg, span in spans.items()}


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _form_values(L):
    """Exact values of the eps-skew and eps-symmetric forms of arity <= 3 on
    the adjoint and coadjoint modules, keyed as in golden/forms-*.json."""
    out = {}
    for name, M in (("adjoint", adjoint(L)), ("coadjoint", coadjoint(L))):
        for symmetry in ("eps_skew", "eps_symmetric"):
            for r in (1, 2, 3):
                out["%s %s r=%d" % (name, symmetry, r)] = [
                    {",".join(map(str, k)): str(v) for k, v in f.values.items()}
                    for f in invariant_multilinear_forms(M, r, symmetry)]
    return out


# Pinned when the forms were still read off eps_power and its embedding.
@pytest.mark.parametrize("algebra", ["sl2", "sl12", "sl12_z2", "osp12", "gl11", "gl21"])
def test_symmetric_form_values_match_the_pinned_ones(algebra):
    with open(os.path.join(GOLDEN, "forms-%s.json" % algebra), encoding="utf-8") as fh:
        want = json.load(fh)
    assert _form_values(catalog.get_algebra(algebra)) == want


def test_form_system_keeps_only_inner_weight_zero_unknowns(monkeypatch):
    """x of an inner torus pair acts on a monomial m as chi(deg m) * id, so
    only the weight-zero monomials are unknowns and only the rows that meet
    them are built; an algebra without a torus keeps every monomial."""
    seen = []
    original = casimir.rows_kernel

    def recorded(rows, cols):
        seen.append((len(rows), cols))
        return original(rows, cols)

    monkeypatch.setattr(casimir, "rows_kernel", recorded)
    assert invariant_multilinear_forms(adjoint(catalog.sl12()), 4, "eps_skew") == []
    assert seen == [(264, 34)]  # of 8 * 192 rows over 192 monomials
    for name in ("osp12", "sl12_z2"):
        M = adjoint(catalog.get_algebra(name))
        for r, symmetry in ((2, "none"), (3, "eps_skew"), (3, "eps_symmetric")):
            if symmetry == "none":
                monos = M.dim ** r
            else:
                monos = len(gmodule.power_monomials(M, r, symmetry == "eps_symmetric")[1])
            seen.clear()
            invariant_multilinear_forms(M, r, symmetry)
            assert seen == [(M.algebra.dim * monos, monos)], (name, r, symmetry)


def test_oracle_check_builds_no_eps_power(monkeypatch):
    calls = []
    original = gmodule.eps_power

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    holders = [m for name, m in sys.modules.items()
               if name.startswith("epslie") and getattr(m, "eps_power", None) is original]
    assert gmodule in holders
    for m in holders:
        monkeypatch.setattr(m, "eps_power", counted)
    args = ["cohomology", "--algebra", "sl12", "--module", "trivial", "--nmax", "4",
            "--oracle-check"]
    assert cli.main(args, stdout=io.StringIO()) == 0
    assert calls == []
    gmodule.eps_power(adjoint(catalog.sl12()), 2, False)
    assert calls == [(2, False)]


@pytest.mark.parametrize(
    "algebra", ["sl2", "sl3", "osp12", "sl12", "sl12_z2", "gl11", "gl21"]
)
def test_symmetric_forms_pass_substitution(algebra):
    L = catalog.get_algebra(algebra)
    checked = 0
    for M in (adjoint(L), coadjoint(L)):
        for r in (1, 2, 3):
            for symmetry in ("eps_skew", "eps_symmetric"):
                for form in invariant_multilinear_forms(M, r, symmetry):
                    assert not form.is_zero()
                    assert _substitution_failures(form, symmetry) == []
                    checked += 1
    assert checked >= 4


_ORACLE_NMAX = {"sl2": 6, "sl3": 6, "osp12": 6, "sl12": 4, "sl12_z2": 4}


@pytest.mark.parametrize("algebra", list(_ORACLE_NMAX))
def test_oracle_equivalence_trivial_coefficients(algebra):
    nmax = _ORACLE_NMAX[algebra]
    L = catalog.get_algebra(algebra)
    K = trivial(L)
    res = CochainComplex(L, K, nmax).cohomology()
    ad = adjoint(L)
    for n in range(1, nmax + 1):
        oracle = len(invariant_multilinear_forms(ad, n, "eps_skew"))
        assert res.total(n) == oracle


@pytest.mark.parametrize(
    "algebra, n, h, forms",
    [("sl12", 5, 0, 1), ("sl12_z2", 5, 0, 1), ("gl11", 3, 0, 1), ("psl22", 2, 3, 0)],
    ids=["sl12", "sl12_z2", "gl11", "psl22"],
)
def test_oracle_first_disagreement_on_super_algebras(algebra, n, h, forms):
    """dim H^k(L, K) equals the number of invariant eps-skew k-forms on the
    adjoint for k < n and differs at n, so the identity is a cross-check
    only below the first such n."""
    L = catalog.get_algebra(algebra)
    res = CochainComplex(L, trivial(L), n).cohomology()
    ad = adjoint(L)
    for k in range(1, n):
        assert res.total(k) == len(invariant_multilinear_forms(ad, k, "eps_skew"))
    found = invariant_multilinear_forms(ad, n, "eps_skew")
    assert (res.total(n), len(found)) == (h, forms)
    assert all(f.degree == L.group.zero() for f in found)


def test_form_homogeneity_enforced():
    L = catalog.sl12()
    co = coadjoint(L)
    with pytest.raises(CasimirError):
        InvariantForm(co, 1, {(4,): Fraction(1), (3,): Fraction(1)})
    # a float value is not coerced to its binary fraction
    with pytest.raises(TypeError):
        InvariantForm(coadjoint(catalog.sl2()), 2, {(0, 1): 0.1})
    # off its support a form reads an int 0, as a stored coefficient would
    off = InvariantForm(co, 1, {(4,): Fraction(2, 2)})
    assert (off(4), off(3)) == (1, 0)
    assert (type(off(4)), type(off(3))) == (int, int)


def test_non_invariant_form_rejected():
    L = catalog.sl12()
    co = coadjoint(L)
    bogus = InvariantForm(co, 2, {(0, 1): Fraction(1)})
    with pytest.raises(CasimirError):
        casimir_operator(L, bogus, adjoint(L))
