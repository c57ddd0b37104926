import hashlib
import importlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epslie import catalog, exterior
from epslie.algebra import EpsLieAlgebra
from epslie.cohomology import (
    Cochain,
    CochainComplex,
    CochainError,
    act,
    coboundary,
    cochain_add,
    cochain_eq,
    cochain_scale,
    cochain_sub,
    components,
    cup_product,
    evaluate,
    insertion,
    invariant_cochains,
    is_cocycle,
    make_cochain,
    pull_back,
    push_forward,
    zero_cochain,
    _cup_value,
    _sub_terms,
    _theta,
)
from epslie.exactlin import (
    ONE,
    RationalSparseMatrix,
    ShapeError,
    rational,
    vec_axpy,
    vec_eq,
    vec_scale,
)
from epslie.gmodule import (
    GradedModule,
    adjoint,
    dual,
    inner_torus,
    intertwiner_space,
    shift,
    tensor,
    torus_defect,
    torus_weight,
    trivial,
)
from epslie.grading import GradingGroup

from _sectors import (
    full_basis,
    full_sector_positions,
    pair_degree,
    split_sectors,
    sweep_coboundary,
)

QP, QM, Q3, B, VP, VM, WP, WM = range(8)


def random_cochain(rng, L, V, level, density=0.35):
    vals = {}
    for mono in exterior.basis(L.signs, level):
        vec = {
            w: Fraction(rng.randint(-3, 3))
            for w in range(V.dim)
            if rng.random() < density
        }
        vec = {w: c for w, c in vec.items() if c}
        if vec:
            vals[mono] = vec
    return make_cochain(L, V, level, vals)


def catalog_pairs():
    L = catalog.sl12()
    yield L, trivial(L)
    yield L, catalog.module_v_half(L)
    yield L, catalog.module_typical_v0_half(L)
    L2 = catalog.sl2()
    yield L2, adjoint(L2)
    G = catalog.osp12()
    yield G, trivial(G)


# ------------------------------------------------------------- the operator


@pytest.mark.parametrize("pair", list(catalog_pairs()), ids=lambda p: repr(p[1]))
def test_delta_squared_zero_up_to_level_four(pair):
    L, V = pair
    cx = CochainComplex(L, V, 4)
    for n in range(4):
        prod = cx.delta(n + 1).multiply(cx.delta(n))
        assert prod.is_zero()


# Above level 5 the bracket sum of _sub_terms has no term-by-term check;
# the blocks are compared there column by column with the push-forward
# coboundary (test_delta_sector_equals_the_push_forward_at_levels_five_and_six),
# and d∘d = 0 is checked per sector block at n = 5 and 6.  sl12 and sl21
# have an inner torus, so their sectors lie on both sides of K; osp12 has
# none.
_HIGH_LEVEL_CASES = [
    ("sl12", "trivial", {True, False}),
    ("osp12", "trivial", {True}),
    ("sl21", "adjoint", {True, False}),
]


@pytest.mark.parametrize("algebra, module, sides", _HIGH_LEVEL_CASES)
def test_delta_squared_zero_per_sector_at_levels_five_and_six(algebra, module, sides):
    L = catalog.get_algebra(algebra)
    V = trivial(L) if module == "trivial" else adjoint(L)
    cx = CochainComplex(L, V, 7)
    seen = set()
    composed = 0
    for n in (5, 6):
        # a sector empty at level n + 1 composes to zero trivially
        for deg in cx.sector_degrees(n + 1):
            outer, inner = cx.delta_sector(n + 1, deg), cx.delta_sector(n, deg)
            assert outer.multiply(inner).is_zero(), (n, deg)
            seen.add(cx.vanishing_certificate(deg) is None)
            composed += bool(outer.entries and inner.entries)
    assert seen == sides
    assert composed >= 4


@pytest.mark.parametrize("algebra, module, sides", _HIGH_LEVEL_CASES)
def test_delta_sector_equals_the_push_forward_at_levels_five_and_six(algebra, module, sides):
    """Every block of delta(5) and delta(6), on both sides of K, column by
    column: column k is coboundary() of the k-th basis cochain of the
    sector, whose push-forward shares no code with the assembly."""
    L = catalog.get_algebra(algebra)
    V = trivial(L) if module == "trivial" else adjoint(L)
    cx = CochainComplex(L, V, 6)
    seen = set()
    nnz = 0
    for n in (5, 6):
        for deg in cx.sector_degrees(n):
            cols = cx.sector(n, deg)[0]
            rows, at = cx.sector(n + 1, deg)
            ent = {}
            for k, (M, w) in enumerate(cols):
                dg = coboundary(make_cochain(L, V, n, {M: {w: 1}}))
                for N, vec in dg.values.items():
                    for w2, c in vec.items():
                        ent[(at[(N, w2)], k)] = c
            block = cx.delta_sector(n, deg)
            assert block == RationalSparseMatrix(len(rows), len(cols), ent), (n, deg)
            seen.add(cx.vanishing_certificate(deg) is None)
            nnz += len(ent)
    assert seen == sides
    assert nnz


def test_delta_preserves_sectors():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    cx = CochainComplex(L, V, 2)
    for n in range(3):
        for deg in cx.sector_degrees(n):
            cx.delta_sector(n, deg)  # raises if an entry leaves the sector


def _del1_direct(L, V, g, a0, a1):
    """Independent transcription of the two-argument specialization."""
    fac, gr = L.factor, L.group
    gamma = g.degree
    d0, d1 = L.degrees[a0], L.degrees[a1]
    out = {}
    vec_axpy(out, fac.eps(gamma, d0), V.apply_basis(a0, evaluate(g, (a1,))))
    vec_axpy(out, -fac.eps(gr.add(gamma, d0), d1), V.apply_basis(a1, evaluate(g, (a0,))))
    for k, c in L.bracket_basis(a0, a1).items():
        vec_axpy(out, -c, evaluate(g, (k,)))
    return out


def _del2_direct(L, V, g, a0, a1, a2):
    fac, gr = L.factor, L.group
    gamma = g.degree
    d = [L.degrees[a] for a in (a0, a1, a2)]
    out = {}
    vec_axpy(out, fac.eps(gamma, d[0]), V.apply_basis(a0, evaluate(g, (a1, a2))))
    vec_axpy(out, -fac.eps(gr.add(gamma, d[0]), d[1]),
             V.apply_basis(a1, evaluate(g, (a0, a2))))
    vec_axpy(out, fac.eps(gr.sum([gamma, d[0], d[1]]), d[2]),
             V.apply_basis(a2, evaluate(g, (a0, a1))))
    for k, c in L.bracket_basis(a0, a1).items():
        vec_axpy(out, -c, evaluate(g, (k, a2)))
    e12 = fac.eps(d[1], d[2])
    for k, c in L.bracket_basis(a0, a2).items():
        vec_axpy(out, e12 * c, evaluate(g, (k, a1)))
    for k, c in L.bracket_basis(a1, a2).items():
        vec_axpy(out, c, evaluate(g, (a0, k)))
    return out


def test_coboundary_matches_low_level_specializations():
    rng = random.Random(41)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    for piece in components(random_cochain(rng, L, V, 1)).values():
        dg = coboundary(piece)
        for a0 in range(L.dim):
            for a1 in range(L.dim):
                assert vec_eq(evaluate(dg, (a0, a1)), _del1_direct(L, V, piece, a0, a1))
    for piece in components(random_cochain(rng, L, V, 2)).values():
        dg = coboundary(piece)
        for _ in range(60):
            a0, a1, a2 = (rng.randrange(L.dim) for _ in range(3))
            assert vec_eq(
                evaluate(dg, (a0, a1, a2)), _del2_direct(L, V, piece, a0, a1, a2)
            )


def test_delta_zero_formula_and_gtwo():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    e0 = make_cochain(L, V, 0, {(): {2: ONE}})
    d = coboundary(e0)
    # (delta^0 x)(A) = eps(xi, alpha) A.x; here xi is even so this is A.e0
    for i in range(L.dim):
        want = V.apply_basis(i, {2: ONE})
        e = L.factor.eps((2,), L.degrees[i])
        assert vec_eq(evaluate(d, (i,)), vec_scale(want, e))
    assert cochain_eq(d, catalog.cocycle_g2(L))


def test_trivial_coefficients_level_one():
    L = catalog.sl12()
    K = trivial(L)
    g = make_cochain(L, K, 1, {(Q3,): {0: ONE}})
    dg = coboundary(g)
    for i in range(L.dim):
        for j in range(L.dim):
            want = {}
            for k, c in L.bracket_basis(i, j).items():
                vec_axpy(want, -c, evaluate(g, (k,)))
            assert vec_eq(evaluate(dg, (i, j)), want)


def test_evaluate_skew_symmetry():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    rng = random.Random(43)
    g = random_cochain(rng, L, V, 2)
    # swap two even arguments: sign flip
    assert vec_eq(evaluate(g, (QP, QM)), vec_scale(evaluate(g, (QM, QP)), -1))
    # repeated even argument: zero
    assert evaluate(g, (Q3, Q3)) == {}
    # odd-odd swap: plus sign
    assert vec_eq(evaluate(g, (VP, WM)), evaluate(g, (WM, VP)))


# module degrees enter the action sign eps(a_r, v_w) in every pair
@pytest.mark.parametrize("algebra, module", [
    ("sl12", catalog.module_typical_v0_half),
    ("sl12", lambda L: shift(catalog.module_typical_v0_half(L), (1,))),
    ("sl12_z2", lambda L: dual(catalog.module_v_half(L))),
    ("psl22", adjoint),
], ids=["sl12-v_typical", "sl12-v_typical-shifted", "sl12_z2-dual-v_half",
        "psl22-adjoint"])
def test_matrix_and_direct_coboundary_agree(algebra, module):
    rng = random.Random(47)
    L = catalog.get_algebra(algebra)
    V = module(L)
    cx = CochainComplex(L, V, 2)
    for level in (0, 1, 2):
        g = random_cochain(rng, L, V, level)
        dg = coboundary(g)
        for deg, piece in components(g).items():
            vec = cx.cochain_vector(piece)
            image = cx.delta_sector(level, deg).apply(vec)
            back = cx.cochain_from_vector(level + 1, image, deg)
            dpiece = coboundary(piece)
            assert cochain_eq(back, dpiece)
        total = zero_cochain(L, V, level + 1)
        for piece in components(g).values():
            total = cochain_add(total, coboundary(piece))
        assert cochain_eq(total, dg)


# (algebra, module, highest level drawn); psl22 stops at 3 to keep the
# sweep's level-5 table out of the suite
_PUSH_FORWARD_CASES = [
    ("sl2", "adjoint", 3), ("osp12", "adjoint", 4), ("sl12", "v_half", 4),
    ("sl12", "adjoint", 4), ("sl12_z2", "v_typical", 4), ("gl11", "coadjoint", 4),
    ("sl21", "adjoint", 4), ("psl22", "adjoint", 3),
]


@st.composite
def _catalog_cochains(draw):
    """A random cochain on a catalog pair: ints and Fractions, odd indices
    often repeated, and values in several degree sectors."""
    name, module, top = draw(st.sampled_from(_PUSH_FORWARD_CASES))
    L = catalog.get_algebra(name)
    V = catalog.get_module(L, name, module)
    level = draw(st.integers(0, top))
    # two odd indices, drawn often, so that runs of one index appear
    odd = [i for i in range(L.dim) if L.signs[i][i] == -1] or list(range(L.dim))
    index = st.one_of(st.integers(0, L.dim - 1), st.sampled_from(odd[:2]))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    vals = {}
    for _ in range(draw(st.integers(1, 5))):
        sign, M = exterior.canonicalize(L.signs, draw(st.lists(index, min_size=level,
                                                                max_size=level)))
        if sign:
            vals.setdefault(M, {})[draw(st.integers(0, V.dim - 1))] = rational(draw(coeff))
    return make_cochain(L, V, level, vals)


@settings(max_examples=150, deadline=None)
@given(_catalog_cochains())
def test_push_forward_coboundary_equals_the_sector_sweep(g):
    """coboundary() pushes each value forward from the support of g; the
    reference reads every monomial of each component's sector.  The two
    agree, and the push-forward writes rational() entries."""
    dg = coboundary(g)
    assert dg.values == sweep_coboundary(g).values
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for vec in dg.values.values() for c in vec.values())


def test_psl22_adjoint_representatives_hold_no_float():
    """Every coefficient of a verified representative of H^n(psl(2|2), ad),
    n <= 3, follows rational(): an int where integral, else a Fraction with
    denominator > 1."""
    L = catalog.get_algebra("psl22")
    cx = CochainComplex(L, adjoint(L), 3)
    res = cx.cohomology()
    coeffs = [c for n in range(4) for deg, _ in res.sector_table(n)
              for g in cx.representatives(n, deg)
              for vec in g.values.values() for c in vec.values()]
    assert coeffs
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in coeffs)


def _delta_by_columns(L, V, n):
    """The unsplit coboundary C^n -> C^{n+1} from the direct formula, over
    the full bases of the two levels: column k is d of basis cochain k."""
    cols = full_basis(L, V, n)
    rows = {p: k for k, p in enumerate(full_basis(L, V, n + 1))}
    ent = {}
    for col, (M, w) in enumerate(cols):
        dg = coboundary(make_cochain(L, V, n, {M: {w: ONE}}))
        for N, vec in dg.values.items():
            for w2, c in vec.items():
                ent[(rows[(N, w2)], col)] = c
    return RationalSparseMatrix(len(rows), len(cols), ent)


@pytest.mark.parametrize("algebra, module, nmax", [
    ("sl12", catalog.module_v_half, 2),
    ("sl12_z2", lambda L: dual(catalog.module_v_half(L)), 2),
    ("psl22", adjoint, 1),
], ids=["sl12-v_half", "sl12_z2-dual-v_half", "psl22-adjoint"])
def test_delta_equals_the_direct_formula_column_by_column(algebra, module, nmax):
    L = catalog.get_algebra(algebra)
    V = module(L)
    cx = CochainComplex(L, V, nmax)
    for n in range(nmax + 1):
        blocks = split_sectors(_delta_by_columns(L, V, n), full_sector_positions(L, V, n + 1),
                               full_sector_positions(L, V, n))
        assert blocks == {deg: cx.delta_sector(n, deg) for deg in blocks}


def _bracket_sum(L, N):
    """The second sum of the coboundary formula on N, term by term:
    (-1)^s eps(a_{r+1}+..+a_{s-1}, a_s) g(.., <A_r, A_s>, .., A_s omitted, ..)
    as {monomial: coefficient}, with eps from CommutationFactor.eps."""
    out = {}
    group, eps, degs = L.group, L.factor.eps, L.degrees
    for s in range(1, len(N)):
        for r in range(s):
            sign = (-1) ** s * eps(group.sum(degs[t] for t in N[r + 1 : s]), degs[N[s]])
            for k, c in L.bracket_basis(N[r], N[s]).items():
                tup = N[:r] + (k,) + N[r + 1 : s] + N[s + 1 :]
                sg, mono = exterior.canonicalize(L.signs, tup)
                if sg:
                    out[mono] = out.get(mono, 0) + sign * sg * c
    return {mono: c for mono, c in out.items() if c}


@pytest.mark.parametrize("name", catalog.algebra_names())
def test_sub_terms_equal_the_bracket_sum_of_the_formula(name):
    """_sub_terms is the bracket part of the assembled blocks, term by term
    against the formula.  coboundary() pushes its bracket sum forward from
    the support instead, and the blocks are compared with it column by
    column at levels up to 6.  Levels 3-5 on the small algebras, 3-4 on the
    others; every 8th monomial of a level with more than 20,000 keeps sl33
    and psl33 short."""
    L = catalog.get_algebra(name)
    for n in (3, 4, 5) if L.dim < 10 else (3, 4):
        monos = exterior.basis(L.signs, n)
        if len(monos) > 20000:
            monos = monos[::8]
        for N in monos:
            assert _sub_terms(L.signs, L.bracket_terms, N) == _bracket_sum(L, N), N


def _end_to_end(positions):
    """The sectors of full_sector_positions laid end to end in degree order,
    as delta(n) lays out its blocks."""
    out, start = {}, 0
    for deg, ps in positions.items():
        out[deg] = list(range(start, start + len(ps)))
        start += len(ps)
    return out


@pytest.mark.parametrize("name", catalog.algebra_names())
def test_split_of_delta_equals_the_assembled_blocks(name):
    """delta(n) is the blocks laid end to end in degree order, and has the
    shape of the full bases."""
    L = catalog.get_algebra(name)
    for V in (trivial(L), adjoint(L)):
        cx = CochainComplex(L, V, 2)
        for n in range(-1, 3):
            rows, cols = full_sector_positions(L, V, n + 1), full_sector_positions(L, V, n)
            delta = cx.delta(n)
            assert (delta.rows, delta.cols) == (len(full_basis(L, V, n + 1)),
                                                len(full_basis(L, V, n)))
            blocks = split_sectors(delta, _end_to_end(rows), _end_to_end(cols))
            assert blocks == {deg: cx.delta_sector(n, deg) for deg in blocks}


@pytest.mark.parametrize("name", catalog.algebra_names())
def test_sectors_follow_pair_degree(name):
    """sector_degrees and sector give the split of the full basis by pair
    degree, each sector in basis order."""
    L = catalog.get_algebra(name)
    V = adjoint(L)
    cx = CochainComplex(L, V, 2)
    for n in range(3):
        basis = full_basis(L, V, n)
        want = {deg: [basis[p] for p in ps] for deg, ps in full_sector_positions(L, V, n).items()}
        assert cx.sector_degrees(n) == list(want)
        assert {deg: cx.sector(n, deg)[0] for deg in want} == want


def test_sector_layout_adds_each_prefix_degree_once(monkeypatch):
    L = catalog.psl_nn(2)
    V = adjoint(L)
    cx = CochainComplex(L, V, 2)
    monos = [M for n in range(4) for M in exterior.basis(L.signs, n)]
    calls = dict.fromkeys(["sum", "add", "sub", "reduce"], 0)

    def counted(name):
        method = getattr(GradingGroup, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(GradingGroup, name, counted(name))
    for n in range(4):
        for weight_zero in (True, False):
            cx._layout(n, weight_zero)
    monkeypatch.undo()
    g = L.group
    deg = {M: g.sum(L.degrees[i] for i in M) for M in monos}
    prefix_pairs = {(deg[M[:-1]], L.degrees[M[-1]]) for M in monos if M}
    keys = {(deg[M], d) for M in monos for d in V.degrees}
    # deg M = deg M[:-1] + deg of the last index, one add per distinct pair
    assert calls["sum"] == 0
    assert calls["add"] <= len(prefix_pairs) < len(monos)
    assert calls["sub"] <= len(keys)
    assert calls["reduce"] == calls["add"] + calls["sub"]


@pytest.mark.parametrize("name", catalog.algebra_names())
def test_each_side_layout_agrees_with_pair_degree(name):
    L = catalog.get_algebra(name)
    for V in (trivial(L), adjoint(L)):
        cx = CochainComplex(L, V, 2)
        for n in range(3):
            basis = full_basis(L, V, n)
            index = {p: k for k, p in enumerate(basis)}
            placed = []
            for weight_zero in (True, False):
                sectors, local = cx._layout(n, weight_zero)
                assert list(sectors) == sorted(sectors)
                for deg, pairs in sectors.items():
                    assert all(pair_degree(L, V, p) == deg for p in pairs)
                    # basis order inside the sector
                    assert [index[p] for p in pairs] == sorted(index[p] for p in pairs)
                    assert local[deg] == {p: k for k, p in enumerate(pairs)}
                    placed += pairs
            assert sorted(placed) == basis
            degs = {pair_degree(L, V, p) for p in basis}
            weight_zero = {d for d in degs if cx.vanishing_certificate(d) is None}
            assert set(cx._layout(n, True)[0]) == weight_zero


@pytest.mark.parametrize("name", catalog.algebra_names())
def test_k_table_is_the_full_table_filtered_by_the_certificates(name):
    """The weight-pruned table of the K side lists, at every level up to
    n_max + 1, exactly the monomials of the algebra's table that have a
    sector in K, each degree's list in the same order."""
    L = catalog.get_algebra(name)
    nmax = 3 if L.dim > 20 else 4
    for module in catalog.module_names(name):
        V = catalog.get_module(L, name, module)
        cx = CochainComplex(L, V, nmax)
        for n in range(nmax + 2):
            want = {
                md: monos for md, monos in L.monomials_by_degree(n).items()
                if any(cx.vanishing_certificate(L.group.sub(d, md)) is None
                       for d in set(V.degrees))
            }
            assert cx._monomials(n, True) == want, (module, n)


@pytest.mark.parametrize("name, module", [("sl12", "v_half"), ("psl22", "adjoint")])
def test_k_side_past_n_max_plus_one_reads_the_full_table(name, module):
    """The packed weights are exact up to level n_max + 1; past it the side
    in K is laid out from the algebra's table, and agrees with a complex
    whose weight-pruned walk covers that level."""
    L = catalog.get_algebra(name)
    V = catalog.get_module(L, name, module)
    low, high = CochainComplex(L, V, 0), CochainComplex(L, V, 3)
    for n in range(4):
        assert low._layout(n, True) == high._layout(n, True)
        for deg in high._layout(n, True)[0]:
            assert low.delta_sector(n, deg) == high.delta_sector(n, deg)


def test_default_path_never_enumerates_a_full_level(monkeypatch):
    calls = {}

    def count(owner, name):
        method = getattr(owner, name)
        key = "%s.%s" % (owner.__name__, name)
        calls[key] = []

        def wrapper(*args):
            calls[key].append(args[1])  # the level
            return method(*args)

        monkeypatch.setattr(owner, name, wrapper)

    count(exterior, "basis")
    count(EpsLieAlgebra, "monomials_by_degree")
    layouts = []
    layout = CochainComplex._layout

    def recorded_layout(self, n, weight_zero):
        layouts.append((n, weight_zero))
        return layout(self, n, weight_zero)

    monkeypatch.setattr(CochainComplex, "_layout", recorded_layout)
    # cohomology() lists only the monomials that can lie in K: no full table
    # of any level is built
    P3 = catalog.psl_nn(3)
    assert CochainComplex(P3, trivial(P3), 2).cohomology().total(2) == 1
    L = catalog.psl_nn(2)
    cx = CochainComplex(L, adjoint(L), 3)
    res = cx.cohomology()
    assert calls["EpsLieAlgebra.monomials_by_degree"] == []
    reps = [cx.representatives(n, deg) for n in range(4) for deg, _ in res.sector_table(n)]
    assert len(reps) == 8 and all(reps)
    # nor does verifying the representatives
    assert calls["EpsLieAlgebra.monomials_by_degree"] == []
    assert calls["epslie.exterior.basis"] == []
    # only the side of K is laid out: the other side's sectors vanish
    assert layouts and all(weight_zero for _, weight_zero in layouts)
    # the direct formula pushes forward from the support: it lists no level
    P = EpsLieAlgebra(L.factor, L.labels, L.degrees, L.table)
    rng = random.Random(7)
    # drawn first: random_cochain walks exterior.basis, itself a
    # basis_by_degree walk
    cochains = [random_cochain(rng, P, trivial(P), 1) for _ in range(2)]
    count(exterior, "basis_by_degree")
    for g in cochains:
        coboundary(g)
    assert calls["epslie.exterior.basis_by_degree"] == []


def test_cohomology_assembles_each_level_once_and_no_full_matrix(monkeypatch):
    calls = {"delta": 0, "levels": []}
    delta, assemble = CochainComplex.delta, CochainComplex._assemble

    def counted_delta(self, n):
        calls["delta"] += 1
        return delta(self, n)

    def counted_assemble(self, n, weight_zero):
        calls["levels"].append((n, weight_zero))
        return assemble(self, n, weight_zero)

    monkeypatch.setattr(CochainComplex, "delta", counted_delta)
    monkeypatch.setattr(CochainComplex, "_assemble", counted_assemble)
    L = catalog.psl_nn(2)
    CochainComplex(L, adjoint(L), 2).cohomology()
    # only the sectors in the inner-weight-zero kernel are assembled
    assert calls == {"delta": 0, "levels": [(0, True), (1, True), (2, True)]}


def test_assembly_rejects_a_term_that_leaves_its_sector():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    # the same action on vectors all of degree 0: odd elements now cross sectors
    flat = GradedModule(L, V.labels, [L.group.zero()] * V.dim, V.action)
    cx = CochainComplex(L, flat, 1)
    with pytest.raises(ShapeError, match="leaves its degree sector"):
        cx.delta_sector(0, L.group.zero())


def test_coboundary_hands_make_cochain_no_cancelled_value(monkeypatch):
    """coboundary drops an accumulator once its terms cancel, so every value
    it hands make_cochain is nonzero; on d(dg) = 0 it hands an empty
    cochain, although the terms reach many monomials."""
    module = importlib.import_module("epslie.cohomology")
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    g = random_cochain(random.Random(29), L, V, 1)
    dg = coboundary(g)
    assert not dg.is_zero()
    make, seen = module.make_cochain, []

    def recorded(L, V, level, values):
        seen.append(values)
        return make(L, V, level, values)

    monkeypatch.setattr(module, "make_cochain", recorded)
    assert coboundary(g).values == dg.values
    assert coboundary(dg).is_zero()
    assert len(seen) == 2 and all(seen[0].values()) and seen[1] == {}


@pytest.mark.parametrize("module", ["adjoint", "trivial"])
@pytest.mark.parametrize("weight_zero", [True, False], ids=["in K", "outside K"])
def test_assembly_sums_the_brackets_once_per_row_monomial(monkeypatch, module, weight_zero):
    """One side's assembly of delta(2) on psl(2|2) calls _sub_terms exactly
    once per level-3 monomial with a row there: with more than one module
    vector the rows of a monomial share its bracket sum, and with one
    vector no monomial has two rows."""
    cohomology = importlib.import_module("epslie.cohomology")
    L = catalog.psl_nn(2)
    cx = CochainComplex(L, adjoint(L) if module == "adjoint" else trivial(L), 2)
    sub, calls = cohomology._sub_terms, []

    def counted(signs, brackets, N):
        calls.append(N)
        return sub(signs, brackets, N)

    monkeypatch.setattr(cohomology, "_sub_terms", counted)
    cx._assemble(2, weight_zero)
    rows = {N for pairs in cx._layout(3, weight_zero)[0].values() for N, _ in pairs}
    assert rows and sorted(calls) == sorted(rows)


# ---------------------------------------------------------- module structure


def test_act_module_structure():
    rng = random.Random(53)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    g = random_cochain(rng, L, V, 2)
    for _ in range(12):
        i = rng.randrange(L.dim)
        j = rng.randrange(L.dim)
        lhs = act(L.bracket_basis(i, j), g) if L.bracket_basis(i, j) else None
        rhs = cochain_sub(
            act({i: ONE}, act({j: ONE}, g)),
            cochain_scale(
                act({j: ONE}, act({i: ONE}, g)),
                L.factor.eps(L.degrees[i], L.degrees[j]),
            ),
        )
        if lhs is None:
            assert rhs.is_zero()
        else:
            assert cochain_eq(lhs, rhs)


def test_act_commutes_with_delta():
    rng = random.Random(59)
    for L, V in catalog_pairs():
        for _ in range(6):
            level = rng.randint(0, 2)
            g = random_cochain(rng, L, V, level)
            i = rng.randrange(L.dim)
            assert cochain_eq(act({i: ONE}, coboundary(g)), coboundary(act({i: ONE}, g)))


def test_act_on_zero_and_act_of_cocycle_is_coboundary():
    rng = random.Random(61)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    z = zero_cochain(L, V, 1)
    assert act({VP: ONE}, z).is_zero()
    cx = CochainComplex(L, V, 2)
    g0 = catalog.cocycle_g0(L)
    for i in range(L.dim):
        moved = act({i: ONE}, g0)
        if moved.is_zero():
            continue
        assert is_cocycle(moved)
        assert cx.coboundary_witness(moved) is not None


def test_insertion_identities():
    rng = random.Random(67)
    L = catalog.sl12()
    V = catalog.module_typical_v0_half(L)
    fac, gr = L.factor, L.group
    for level in (0, 1, 2):
        for piece in components(random_cochain(rng, L, V, level)).values():
            gamma = piece.degree
            for i in range(L.dim):
                # recursion defining the operator: (d g)_A = eps(gamma, alpha) A.g - d(g_A)
                lhs = insertion(coboundary(piece), {i: ONE})
                rhs = cochain_sub(
                    cochain_scale(act({i: ONE}, piece), fac.eps(gamma, L.degrees[i])),
                    coboundary(insertion(piece, {i: ONE})),
                )
                assert cochain_eq(lhs, rhs)
    # B . g_A = (B . g)_A + eps(beta, gamma) g_<B,A>
    for piece in components(random_cochain(rng, L, V, 2)).values():
        gamma = piece.degree
        for _ in range(10):
            i, j = rng.randrange(L.dim), rng.randrange(L.dim)
            lhs = act({j: ONE}, insertion(piece, {i: ONE}))
            rhs = insertion(act({j: ONE}, piece), {i: ONE})
            br = L.bracket_basis(j, i)
            if br:
                rhs = cochain_add(
                    rhs,
                    cochain_scale(
                        insertion(piece, br), fac.eps(L.degrees[j], gamma)
                    ),
                )
            assert cochain_eq(lhs, rhs)


def test_insertion_levels():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    g0 = catalog.cocycle_g0(L)
    g0_V = insertion(g0, {VP: ONE})
    assert g0_V.level == 0 and g0_V.values == {(): {0: ONE}}  # g0(V+) = e+
    x = make_cochain(L, V, 0, {(): {2: ONE}})
    assert insertion(x, {VP: ONE}).is_zero()


def test_delalt_identity_on_samples():
    """Twice the operator equals the two-sum alternating form."""
    rng = random.Random(71)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    fac, gr = L.factor, L.group
    for piece in components(random_cochain(rng, L, V, 2)).values():
        gamma = piece.degree
        dg = coboundary(piece)
        acts = [act({i: ONE}, piece) for i in range(L.dim)]
        for _ in range(25):
            tup = tuple(rng.randrange(L.dim) for _ in range(3))
            total = {}
            prefix = gamma
            for r, idx in enumerate(tup):
                rest = tup[:r] + tup[r + 1 :]
                e = fac.eps(prefix, L.degrees[idx]) * (-1 if r % 2 else 1)
                vec_axpy(total, e, evaluate(acts[idx], rest))
                vec_axpy(total, e, V.apply_basis(idx, evaluate(piece, rest)))
                prefix = gr.add(prefix, L.degrees[idx])
            assert vec_eq(total, vec_scale(evaluate(dg, tup), 2))


# ------------------------------------------------------------- cup products


def test_cup_product_level_zero_cases():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    W = catalog.module_typical_v0_half(L)
    x = make_cochain(L, V, 0, {(): {0: ONE}})
    y = make_cochain(L, W, 0, {(): {1: Fraction(2)}})
    xy = cup_product(x, y)
    assert xy.level == 0
    assert xy.values == {(): {0 * W.dim + 1: Fraction(2)}}


def test_cup_value_is_skew():
    rng = random.Random(73)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    for gp in components(random_cochain(rng, L, V, 1)).values():
        for hp in components(random_cochain(rng, L, V, 1)).values():
            for _ in range(20):
                a, b = rng.randrange(L.dim), rng.randrange(L.dim)
                v1 = _cup_value(gp, hp, (a, b))
                v2 = _cup_value(gp, hp, (b, a))
                e = L.factor.eps(L.degrees[a], L.degrees[b])
                assert vec_eq(v1, vec_scale(v2, -e))


def test_leibniz_rule_random():
    rng = random.Random(79)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    W = catalog.module_typical_v0_half(L)
    T = tensor(V, W)
    for m, n in ((0, 1), (1, 1), (1, 2), (2, 1)):
        for _ in range(3):
            g = random_cochain(rng, L, V, m, density=0.25)
            h = random_cochain(rng, L, W, n, density=0.25)
            lhs = coboundary(cup_product(g, h, target=T))
            rhs = cochain_add(
                cup_product(coboundary(g), h, target=T),
                cochain_scale(cup_product(g, coboundary(h), target=T), (-1) ** m),
            )
            assert cochain_eq(lhs, rhs)


def test_cup_associativity_random():
    rng = random.Random(83)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    for levels in ((1, 1, 1), (0, 1, 2), (2, 1, 1), (1, 1, 2)):
        if sum(levels) > 4:
            continue
        f = random_cochain(rng, L, V, levels[0], density=0.2)
        g = random_cochain(rng, L, V, levels[1], density=0.2)
        h = random_cochain(rng, L, V, levels[2], density=0.2)
        left = cup_product(cup_product(f, g), h)
        right = cup_product(f, cup_product(g, h))
        # identify (VxV)xV with Vx(VxV): flat index coincides
        assert left.level == right.level
        flat_l = {m: dict(v) for m, v in left.values.items()}
        flat_r = {m: dict(v) for m, v in right.values.items()}
        assert flat_l == flat_r


def test_cup_invariance_rule():
    rng = random.Random(89)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    T = tensor(V, V)
    for gp in components(random_cochain(rng, L, V, 1)).values():
        for hp in components(random_cochain(rng, L, V, 1)).values():
            gamma = gp.degree
            for i in range(L.dim):
                lhs = act({i: ONE}, cup_product(gp, hp, target=T))
                rhs = cochain_add(
                    cup_product(act({i: ONE}, gp), hp, target=T),
                    cochain_scale(
                        cup_product(gp, act({i: ONE}, hp), target=T),
                        L.factor.eps(L.degrees[i], gamma),
                    ),
                )
                assert cochain_eq(lhs, rhs)


def test_g0_squared_lands_in_skew_tensors():
    L = catalog.sl12()
    g0 = catalog.cocycle_g0(L)
    sq = cup_product(g0, g0)
    assert not sq.is_zero() and is_cocycle(sq)
    W2 = catalog.module_wn(L, 2)
    sqW = catalog.restrict_to_submodule(W2, sq)
    assert is_cocycle(sqW)
    cx = CochainComplex(L, W2, 2)
    assert cx.coboundary_witness(sqW) is None


# --------------------------------------------------- transport of structure


def test_push_forward_identity_and_invariance_check():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    g0 = catalog.cocycle_g0(L)
    ident = RationalSparseMatrix.identity(V.dim)
    assert cochain_eq(push_forward(ident, V, g0), g0)
    bad = RationalSparseMatrix(V.dim, V.dim, {(0, 0): ONE})
    with pytest.raises(Exception):
        push_forward(bad, V, g0)


def test_pull_back_along_omega():
    L = catalog.sl12("Z2")
    g0 = catalog.cocycle_g0(L)
    om = catalog.omega_matrix(L)
    gw, Vw = pull_back(om, L, g0)
    assert is_cocycle(gw)
    cx = CochainComplex(L, Vw, 1)
    assert cx.coboundary_witness(gw) is None
    assert cx.cohomology().total(1) == 1


def test_pull_back_rejects_non_homomorphism():
    L = catalog.sl12("Z2")
    g0 = catalog.cocycle_g0(L)
    bad = RationalSparseMatrix.identity(L.dim).scale(2)
    with pytest.raises(Exception):
        pull_back(bad, L, g0)


def test_shift_isomorphism_on_sector_dimensions():
    L = catalog.sl12()
    V = catalog.module_v8(L)
    from epslie.gmodule import shift

    sigma = (2,)
    Vs = shift(V, sigma)
    r = CochainComplex(L, V, 2).cohomology()
    rs = CochainComplex(L, Vs, 2).cohomology()
    for n in range(3):
        want = {d: t[2] for d, t in r.dims(n).items() if t[2]}
        got = {
            tuple(x + 2 for x in d): t[2] for d, t in rs.dims(n).items() if t[2]
        }
        assert want == got


def test_sector_sum_matches_unsplit():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    cx = CochainComplex(L, V, 2)
    res = cx.cohomology()
    for n in range(3):
        # ranks of the full coboundaries from the direct formula, with no
        # split into sectors
        z = len(full_basis(L, V, n)) - _delta_by_columns(L, V, n).rank()
        b = _delta_by_columns(L, V, n - 1).rank() if n > 0 else 0
        dims = res.dims(n).values()
        assert (sum(t[0] for t in dims), sum(t[1] for t in dims), res.total(n)) == (z, b, z - b)


# ------------------------------------------------------------ inner torus


def _full_result(L, V, nmax):
    """Every sector ranked: the complex with no inner torus."""
    cx = CochainComplex(L, V, nmax)
    cx.torus = []
    return cx.cohomology()


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in ("sl33", "psl33") else name
    for name in catalog.algebra_names()
])
def test_weight_zero_ranking_matches_the_full_computation(name):
    L = catalog.get_algebra(name)
    for V in (trivial(L), adjoint(L)):
        # ranking C^4 of the dim-34 and dim-35 adjoints in full takes minutes
        nmax = 2 if L.dim > 30 and V.dim > 1 else 3
        full = _full_result(L, V, nmax)
        res = CochainComplex(L, V, nmax).cohomology()
        for n in range(nmax + 1):
            # total and sector_table come from the weight-zero sectors alone
            assert res.total(n) == full.total(n)
            assert res.sector_table(n) == full.sector_table(n)
            assert all(not full.dims(n)[deg][2] for deg in res.vanishing(n))
            # dims ranks the vanishing sectors lazily
            assert res.dims(n) == full.dims(n)
            assert list(res.dims(n)) == list(full.dims(n))


def test_catalog_inner_tori():
    def found(name, module=adjoint):
        L = catalog.get_algebra(name)
        return [
            ({L.labels[j]: c for j, c in x.items()}, chi)
            for x, chi in inner_torus(module(L))
        ]

    half = Fraction(1, 2)
    assert found("psl22") == [({"[[E22]]": 1}, (0, 1, 0, 1)), ({"[[E33]]": 1}, (0, 0, 1, -1))]
    assert [x for x, _ in found("psl33")] == [
        {"[[E22]]": 1}, {"[[E33]]": 1}, {"[[E44]]": 1}, {"[[E55]]": 1}
    ]
    for module in (trivial, adjoint, catalog.module_v_half, catalog.module_v8):
        assert found("sl12", module) == [({"B": 1}, (half,))]
    for name in ("osp12", "sl12_z2"):
        assert found(name) == found(name, trivial) == []


def test_inner_torus_verifier_rejects_mutations():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    [(x, chi)] = inner_torus(V)
    assert (x, chi) == ({B: 1}, (Fraction(1, 2),))
    assert torus_defect(V, x, chi) is None
    # a perturbed chi
    assert torus_defect(V, x, (chi[0] + 1,)) is not None
    assert torus_defect(V, x, (2 * chi[0],)) is not None
    assert torus_defect(V, x, chi + (0,)) is not None
    # an x whose ad x is not diagonal
    assert "ad x" in torus_defect(V, {B: ONE, QP: ONE}, chi)
    # a module on which rho(B) is not diagonal: no inner torus, every sector ranked
    mats = list(V.action)
    mats[B] = mats[B].add(RationalSparseMatrix(V.dim, V.dim, {(0, 1): ONE}))
    bent = GradedModule(L, V.labels, V.degrees, mats)
    assert "rho(x)" in torus_defect(bent, x, chi)
    assert inner_torus(bent) == []
    assert CochainComplex(L, bent, 0).torus == []


def test_a_wrong_certificate_fails_the_lazy_rank_check():
    L = catalog.sl12()
    # shifted, v_half is no weight module for B: chi(deg v_w) is off by one
    V = shift(catalog.module_v_half(L), (2,))
    wrong = ({B: ONE}, (Fraction(1, 2),))
    assert inner_torus(V) == [] and torus_defect(V, *wrong) is not None
    assert _full_result(L, V, 1).sector_table(1) == [((-2,), (1, 0, 1))]
    cx = CochainComplex(L, V, 1)
    cx.torus = [wrong]
    res = cx.cohomology()
    assert res.vanishing(1)[(-2,)] == wrong
    assert res.total(1) == 0
    with pytest.raises(CochainError, match="torus certificate"):
        res.dims(1)


@pytest.mark.parametrize("name, module", [
    ("psl22", adjoint), ("psl22", trivial), ("sl12", catalog.module_v_half),
    ("sl12", adjoint), ("sl21", adjoint), ("sl21", trivial),
])
def test_cartan_formula_on_vanishing_sectors(name, module):
    rng = random.Random(101)
    L = catalog.get_algebra(name)
    V = module(L)
    pairs = inner_torus(V)
    assert pairs
    checked = 0
    for x, chi in pairs:
        for level in (0, 1, 2):
            for deg, piece in components(random_cochain(rng, L, V, level, 0.2)).items():
                weight = torus_weight(chi, deg)
                theta = act(x, piece)
                # x acts on the sector of degree deg as chi(deg) * id ...
                assert cochain_eq(theta, cochain_scale(piece, weight))
                if not weight:
                    continue
                # ... and theta_x = d i_x + i_x d, so a cocycle there is d(i_x g / chi(deg))
                homotopy = cochain_add(
                    coboundary(insertion(piece, x)), insertion(coboundary(piece), x)
                )
                assert cochain_eq(theta, homotopy)
                checked += 1
    assert checked


# ------------------------------------------------------- invariant cochains


def test_invariant_cochains_trivial_subalgebra():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    inv = invariant_cochains(L, V, 1, [])
    assert len(inv) == L.dim * V.dim


def test_invariant_cochains_osp_line():
    L = catalog.sl12("Z2")
    V = catalog.module_v_half(L)
    inv = invariant_cochains(L, V, 1, catalog.osp12_vectors())
    assert len(inv) == 1
    g = inv[0]
    # spanned by the map vanishing on the subalgebra with g(B) = e0,
    # g(V±) = e±, g(W±) = -e±, up to one overall scalar
    scale = g.values[(3,)][2]
    want = {
        (3,): {2: scale},
        (VP,): {0: scale},
        (VM,): {1: scale},
        (WP,): {0: -scale},
        (WM,): {1: -scale},
    }
    assert g.values == want
    assert is_cocycle(g)
    # vanishes on the subalgebra span
    for v in catalog.osp12_vectors():
        got = {}
        for i, c in v.items():
            vec_axpy(got, c, evaluate(g, (i,)))
        assert not got


def test_invariant_cochains_psl22_even_part():
    P = catalog.psl_nn(2)
    K = trivial(P)
    evens = [{i: ONE} for i in range(P.dim) if P.factor.parity(P.degrees[i]) == 1]
    inv = invariant_cochains(P, K, 2, evens)
    assert len(inv) == 3


def test_act_visits_only_the_monomials_it_can_reach(monkeypatch):
    """A.g of degree gamma + alpha lives on the monomials of degree
    deg v_w - gamma - alpha, which act reads from the algebra's table: the
    matrices of invariant_cochains take no walk of a whole level."""
    walks = []
    basis = exterior.basis

    def counted(signs, n):
        walks.append(n)
        return basis(signs, n)

    monkeypatch.setattr(exterior, "basis", counted)
    P = catalog.psl_nn(2)
    evens = [{i: ONE} for i in range(P.dim) if P.factor.parity(P.degrees[i]) == 1]
    assert len(invariant_cochains(P, trivial(P), 2, evens)) == 3
    assert walks == []


@pytest.mark.parametrize("name", [
    "act", "insertion", "cup_product", "pull_back", "invariant_cochains", "intertwiner_space",
])
def test_cochain_operators_take_no_walk_of_a_whole_level(monkeypatch, name):
    """Each operator reads the monomials of its target sectors from the
    algebra's table of monomials by degree; none calls exterior.basis."""
    L = catalog.sl12("Z2")
    V = catalog.module_v_half(L)
    g = random_cochain(random.Random(7), L, V, 2)  # walks exterior.basis itself
    g0 = catalog.cocycle_g0(L)
    calls = {
        "act": lambda: act({QP: ONE}, g),
        "insertion": lambda: insertion(g, {VP: ONE, Q3: ONE}),
        "cup_product": lambda: cup_product(g0, g),
        "pull_back": lambda: pull_back(catalog.omega_matrix(L), L, g)[0],
        "invariant_cochains": lambda: invariant_cochains(L, V, 2, [{Q3: ONE}, {B: ONE}]),
        "intertwiner_space": lambda: intertwiner_space(V, V, L.group.zero()),
    }
    walks = []
    basis = exterior.basis

    def counted(signs, n):
        walks.append(n)
        return basis(signs, n)

    monkeypatch.setattr(exterior, "basis", counted)
    out = calls[name]()
    assert walks == []
    assert out if isinstance(out, list) else not out.is_zero()


@pytest.mark.parametrize("name, module", [("psl22", adjoint), ("psl33", trivial)])
def test_assembling_delta_adds_no_degrees(monkeypatch, name, module):
    """sector_map is given the degree of its target sector, and each block of
    delta maps a sector to the sector of the same degree: once the layouts
    are built, assembling delta makes no GradingGroup.add call."""
    L = catalog.get_algebra(name)
    cx = CochainComplex(L, module(L), 2)
    for n in (1, 2):
        for side in (True, False):
            cx._layout(n, side)
    calls = []
    add = GradingGroup.add

    def counted(self, a, b):
        calls.append((a, b))
        return add(self, a, b)

    monkeypatch.setattr(GradingGroup, "add", counted)
    blocks = {**cx._blocks(1, True), **cx._blocks(1, False)}
    assert blocks
    assert calls == []


@pytest.mark.parametrize("name, module", [("psl22", adjoint), ("sl12", catalog.module_v_half)])
def test_theta_block_of_the_complex_equals_act(name, module):
    """The theta rows that invariant_cochains turns into a block with
    CochainComplex.sector_map give act on sector vectors: the block of A
    applied to cochain_vector(piece) is act(A, piece) in the target sector."""
    rng = random.Random(113)
    L = catalog.get_algebra(name)
    V = module(L)
    cx = CochainComplex(L, V, 2)
    checked = 0
    for level in (0, 1, 2):
        g = random_cochain(rng, L, V, level, 0.1)
        for _ in range(3):
            avec = {rng.randrange(L.dim): Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 2]))}
            alpha, rows = _theta(L, V, avec)
            for gamma, piece in components(g).items():
                target = L.group.add(gamma, alpha)
                block = cx.sector_map(level, gamma, level, target, rows(gamma))
                image = block.apply(cx.cochain_vector(piece))
                got = cx.cochain_from_vector(level, image, target)
                assert cochain_eq(got, act(avec, piece))
                checked += not got.is_zero()
    assert checked


def test_invariant_cochains_below_level_zero_are_empty():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    assert invariant_cochains(L, V, -1, []) == []
    assert invariant_cochains(L, V, -1, [{Q3: ONE}]) == []


def test_psl22_adjoint_even_part_invariants_at_level_3():
    """The even-part invariant 3-cochains of psl(2|2) in the adjoint: 38
    cochains, each killed by every even basis element, with values pinned
    by a SHA-256 digest of the (degree, pivot) echelon basis."""
    P = catalog.psl_nn(2)
    evens = [{i: ONE} for i in range(P.dim) if P.factor.parity(P.degrees[i]) == 1]
    inv = invariant_cochains(P, adjoint(P), 3, evens)
    assert len(inv) == 38
    assert all(act(A, g).is_zero() for A in evens for g in inv)
    values = [sorted([list(M), w, str(c)] for M, vec in g.values.items() for w, c in vec.items())
              for g in inv]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                        "invariant-cochains.json")
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)["psl22/adjoint/3/even"]
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == want


# ------------------------------------------------ representatives / witness


def test_representatives_are_verified():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    cx = CochainComplex(L, V, 1)
    res = cx.cohomology()
    reps = []
    for deg, t in res.sector_table(1):
        reps.extend(cx.representatives(1, deg))
    assert len(reps) == 1
    diff = cochain_sub(reps[0], cochain_scale(catalog.cocycle_g0(L), reps[0].values[(VP,)][0]))
    assert cx.coboundary_witness(diff) is not None


@pytest.mark.parametrize("fake", ["coboundary", "repeat"])
def test_representatives_refuse_a_combination_that_is_a_coboundary(monkeypatch, fake):
    """H^1(gl(1|1), ad) has two classes in the sector 0 and delta^0 has rank
    1 there.  Cocycles passed off as the kernel vectors of the free columns
    (a coboundary each time, or the first kernel vector twice) keep the
    count and the cocycle check, and fail the one rank of
    [delta^0 | g_1 g_2] per sector."""
    module = importlib.import_module("epslie.cohomology")
    L = catalog.get_algebra("gl11")
    cx = CochainComplex(L, adjoint(L), 1)
    deg = L.group.zero()
    assert cx.cohomology().levels[1][deg] == (3, 1, 2)
    assert len(cx.representatives(1, deg)) == 2
    if fake == "coboundary":
        vec = next(col for col in cx.delta_sector(0, deg).columns() if col)
    else:
        piv_cols, piv_rows = cx.delta_sector(1, deg).rref()
        free = min(set(range(cx.delta_sector(1, deg).cols)) - set(piv_cols))
        vec = module.kernel_vector(piv_cols, piv_rows, free)
    monkeypatch.setattr(module, "kernel_vector", lambda *args: dict(vec))
    with pytest.raises(CochainError, match="is a coboundary"):
        cx.representatives(1, deg)


def test_cochain_vector_round_trip_and_degree_check():
    rng = random.Random(89)
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    cx = CochainComplex(L, V, 2)
    for level in (0, 1, 2):
        for deg, piece in components(random_cochain(rng, L, V, level)).items():
            vec = cx.cochain_vector(piece)
            assert cochain_eq(cx.cochain_from_vector(level, vec, deg), piece)
            wrong = Cochain(L, V, level, piece.values, L.group.add(deg, (1,)))
            with pytest.raises(CochainError):
                cx.cochain_vector(wrong)


def test_witness_of_coboundaries():
    rng = random.Random(97)
    L = catalog.sl12()
    V = catalog.module_typical_v0_half(L)
    cx = CochainComplex(L, V, 2)
    for _ in range(5):
        b = random_cochain(rng, L, V, 1)
        g = coboundary(b)
        w = cx.coboundary_witness(g)
        assert w is not None
        assert cochain_eq(coboundary(w), g)


def test_v8_cocycle_witness_identity():
    L = catalog.sl12()
    V8 = catalog.module_v8(L)
    g, gbar, tvec = catalog.v8_cocycles(L)
    assert is_cocycle(g) and is_cocycle(gbar)
    cx = CochainComplex(L, V8, 1)
    assert cx.coboundary_witness(g) is None
    assert cx.coboundary_witness(gbar) is None
    s = cochain_add(g, gbar)
    w = cx.coboundary_witness(s)
    assert w is not None and w.values == {(): {0: ONE}}  # exactly t
    d0t = coboundary(make_cochain(L, V8, 0, {(): tvec}))
    assert cochain_eq(s, d0t)


def test_g_decomposition_by_z_degree():
    L = catalog.sl12()
    g = catalog.cocycle_g_v_half(L)
    parts = components(g)
    assert set(parts) == {(0,), (2,)}
    assert cochain_eq(parts[(0,)], catalog.cocycle_g0(L))
    assert cochain_eq(parts[(2,)], catalog.cocycle_g2(L))
    # the combined table: g(B) = e0, g(V±) = e±, g(W±) = -e±
    assert evaluate(g, (B,)) == {2: ONE}
    assert evaluate(g, (VP,)) == {0: ONE}
    assert evaluate(g, (WP,)) == {0: -ONE}


def test_cochain_scale_refuses_a_float():
    L = catalog.sl12()
    g = catalog.cocycle_g0(L)
    assert cochain_scale(g, Fraction(1, 2)).values == {(4,): {0: Fraction(1, 2)},
                                                       (5,): {1: Fraction(1, 2)}}
    for bad in (0.5, 0.0, True):
        with pytest.raises(TypeError):
            cochain_scale(g, bad)


def test_make_cochain_stores_integral_entries_as_ints():
    """A stored entry is an int when it is integral: the named sl(1|2)
    cocycles and the psl(2|2) trace cocycle hold ints, and a float value
    raises TypeError even when it is 0.0."""
    L = catalog.sl12()
    cocycles = [*catalog.named_cocycles(L).values(), catalog.trace_cocycle_psl(2)]
    entries = [c for g in cocycles for vec in g.values.values() for c in vec.values()]
    assert entries and {type(c) for c in entries} == {int}
    V = catalog.module_v_half(L)
    g = make_cochain(L, V, 1, {(VP,): {0: Fraction(4, 2), 1: Fraction(1, 2)}})
    assert g.values == {(VP,): {0: 2, 1: Fraction(1, 2)}}
    assert type(g.values[(VP,)][0]) is int
    for bad in (0.5, 0.0):
        with pytest.raises(TypeError):
            make_cochain(L, V, 1, {(VP,): {0: bad}})
