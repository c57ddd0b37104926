"""Acceptance gate: one test per criterion, exact values, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every dimension is asserted exactly; the time bounds are the
stated budgets.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from epslie import catalog, exterior
from epslie.casimir import (
    casimir_operator,
    invariant_multilinear_forms,
    vanishing_witness,
    quadratic_invariant_forms,
    verify_homotopy_identity,
)
from epslie.cohomology import (
    CochainComplex,
    act,
    coboundary,
    cochain_add,
    cochain_eq,
    cochain_scale,
    cochain_sub,
    components,
    cup_product,
    is_cocycle,
    make_cochain,
)
from epslie.exactlin import ONE
from epslie.extensions import h2_pairing_check, homology_h2, universal_covering
from epslie.glmn import (
    all_casimirs_vanish,
    dominant_integral_weights,
    family_images,
    matched_pairs_count,
    q_s,
)
from epslie.gmodule import adjoint, trivial
from epslie.grading import super_factor

H = Fraction(1, 2)
QP, QM, Q3, B, VP, VM, WP, WM = range(8)


class Budget:
    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                "%s exceeded its %ss budget (%.1fs)"
                % (self.label, self.seconds, self.elapsed)
            )
            print("ACCEPTANCE %s PASS (%.2fs)" % (self.label, self.elapsed))
        else:
            print("ACCEPTANCE %s FAIL" % self.label)
        return False


def test_criterion_01_sl2_trivial_coefficients():
    with Budget(5, "1 sl(2) trivial coefficients"):
        L = catalog.sl2()
        res = CochainComplex(L, trivial(L), 3).cohomology()
        assert [res.total(n) for n in range(4)] == [1, 0, 0, 1]
        oracle = len(invariant_multilinear_forms(adjoint(L), 3, "eps_skew"))
        assert res.total(3) == oracle == 1


def test_criterion_02_sl2_adjoint():
    with Budget(5, "2 sl(2) adjoint"):
        L = catalog.sl2()
        ad = adjoint(L)
        res = CochainComplex(L, ad, 3).cohomology()
        assert [res.total(n) for n in range(4)] == [0, 0, 0, 0]
        witness = vanishing_witness(L, ad)
        assert witness is not None and witness.is_invertible()


def test_criterion_03_osp12_oracle_equivalence():
    with Budget(30, "3 osp(1|2) oracle equivalence"):
        G = catalog.osp12()
        res = CochainComplex(G, trivial(G), 4).cohomology()
        ad = adjoint(G)
        for n in range(1, 5):
            oracle = len(invariant_multilinear_forms(ad, n, "eps_skew"))
            assert res.total(n) == oracle


def test_criterion_04_sl12_first_cohomology():
    with Budget(60, "4 sl(1|2) H^1 of V(q)"):
        L = catalog.sl12()
        expected = {0: 0, 1: 1, 2: 0, 3: 0}
        for q2, want in expected.items():
            V = catalog.module_vq(L, q2)
            assert CochainComplex(L, V, 1).cohomology().total(1) == want
        V = catalog.module_vq(L, 1)
        cx = CochainComplex(L, V, 1)
        res = cx.cohomology()
        reps = []
        for deg, t in res.sector_table(1):
            reps.extend(cx.representatives(1, deg))
        assert len(reps) == 1
        rep = reps[0]
        g0 = catalog.cocycle_g0(L)
        scale = rep.values[(VP,)][0]
        assert scale != 0
        diff = cochain_sub(cochain_scale(rep, Fraction(1, scale)), g0)
        if not diff.is_zero():
            w = cx.coboundary_witness(diff)
            assert w is not None
            assert cochain_eq(coboundary(w), diff)


def test_criterion_05_sl12_second_cohomology():
    with Budget(300, "5 sl(1|2) H^2 of V(q)"):
        L = catalog.sl12()
        assert len(exterior.basis(L.signs, 2)) == 32
        expected = {0: 0, 1: 0, 2: 1, 3: 0}
        for q2, want in expected.items():
            V = catalog.module_vq(L, q2)
            assert CochainComplex(L, V, 2).cohomology().total(2) == want


def test_criterion_06_higher_cup_cocycles():
    with Budget(300, "6 cup powers of the basic cocycle"):
        L = catalog.sl12()
        g0 = catalog.cocycle_g0(L)
        power = g0
        for n in (2, 3):
            power = cup_product(power, g0)
            Wn = catalog.module_wn(L, n)
            gn = catalog.restrict_to_submodule(Wn, power)
            assert not gn.is_zero()
            assert is_cocycle(gn)
            cx = CochainComplex(L, Wn, n)
            assert cx.coboundary_witness(gn) is None
            assert cx.cohomology().total(n) >= 1


def test_criterion_07_homotopy_identity():
    with Budget(60, "7 contracting homotopy identity"):
        L = catalog.sl12()
        Vt = catalog.module_typical_v0_half(L)
        cas = casimir_operator(L, quadratic_invariant_forms(L)[0], Vt)
        cx = CochainComplex(L, Vt, 2)
        assert verify_homotopy_identity(cas, cx, 1)
        assert verify_homotopy_identity(cas, cx, 2)
        L2 = catalog.sl2()
        ad2 = adjoint(L2)
        cas2 = casimir_operator(L2, quadratic_invariant_forms(L2)[0], ad2)
        cx2 = CochainComplex(L2, ad2, 1)
        assert verify_homotopy_identity(cas2, cx2, 1)


def test_criterion_08_indecomposable_module_suite():
    with Budget(120, "8 indecomposable-module suite"):
        L = catalog.sl12()
        fam = catalog.module_v8_family(L)
        dims1 = {
            name: CochainComplex(L, fam[name], 1).cohomology().total(1)
            for name in ("v4", "v4bar", "v7", "v8")
        }
        assert dims1 == {"v4": 1, "v4bar": 1, "v7": 2, "v8": 1}
        for name in ("v4", "v4bar"):
            assert CochainComplex(L, fam[name], 2).cohomology().total(2) == 0
        g, gbar, tvec = catalog.v8_cocycles(L)
        V8 = fam["v8"]
        d0t = coboundary(make_cochain(L, V8, 0, {(): tvec}))
        assert cochain_eq(cochain_add(g, gbar), d0t)


def test_criterion_09_central_extensions():
    with Budget(600, "9 central extensions"):
        P2 = catalog.psl_nn(2)
        res2 = CochainComplex(P2, trivial(P2), 3).cohomology()
        assert res2.total(2) == 3
        assert res2.total(3) != 0
        S22 = catalog.sl(2, 2)
        res_s = CochainComplex(S22, trivial(S22), 3).cohomology()
        assert res_s.total(3) != 0
        cov = universal_covering(P2)
        assert cov.covering.is_perfect()
        assert cov.covering.dim == 17
        assert cov.center_total() == 3
        for name in ("sl2", "sl12", "psl22"):
            assert h2_pairing_check(catalog.get_algebra(name))


@pytest.mark.slow
def test_criterion_09b_psl33_flagged_slow():
    with Budget(1800, "9b psl(3|3) second cohomology"):
        P3 = catalog.psl_nn(3)
        res3 = CochainComplex(P3, trivial(P3), 2).cohomology()
        assert res3.total(2) == 1


def test_criterion_10_atypicality_scan():
    with Budget(120, "10 gl(m|n) atypicality scan"):
        for (m, n) in ((1, 1), (2, 1), (1, 2), (2, 2)):
            bound, smax = 4, m + n + 2
            vanishing = set()
            for w in dominant_integral_weights(m, n, bound):
                multiset = all_casimirs_vanish(w)
                powers = all(q_s(w, s) == 0 for s in range(1, smax + 1))
                assert multiset == powers
                if multiset:
                    vanishing.add(w.L)
                    assert sum(w.L) == 0
                    assert matched_pairs_count(w) == min(m, n)
            assert vanishing == family_images(m, n, bound)


def _acceptance_pairs():
    L2 = catalog.sl2()
    yield L2, trivial(L2), 4
    yield L2, adjoint(L2), 4
    L3 = catalog.sl3()
    yield L3, trivial(L3), 3
    G = catalog.osp12()
    yield G, trivial(G), 4
    yield G, adjoint(G), 3
    gl11 = catalog.gl(1, 1)
    yield gl11, trivial(gl11), 4
    yield gl11, adjoint(gl11), 4
    L = catalog.sl12()
    yield L, trivial(L), 4
    yield L, adjoint(L), 3
    from epslie.gmodule import coadjoint

    yield L, coadjoint(L), 3
    yield L, catalog.module_v_half(L), 4
    yield L, catalog.module_typical_v0_half(L), 3
    yield L, catalog.module_wn(L, 2), 3
    yield L, catalog.module_wn(L, 3), 3
    fam = catalog.module_v8_family(L)
    for name in ("v1", "v4", "v4bar", "v7", "v8"):
        yield L, fam[name], 3
    yield L, catalog.module_ts2(L), 2
    P = catalog.psl_nn(2)
    yield P, trivial(P), 3


def test_criterion_11_property_suites():
    with Budget(300, "11 property suites"):
        rng = random.Random(20260809)

        # d o d = 0 on every sector of every catalog pair
        for L, V, nmax in _acceptance_pairs():
            cx = CochainComplex(L, V, nmax)
            for n in range(nmax):
                assert cx.delta(n + 1).multiply(cx.delta(n)).is_zero()
                for deg in cx.sector_degrees(n):
                    up = cx.delta_sector(n + 1, deg)
                    dn = cx.delta_sector(n, deg)
                    assert up.multiply(dn).is_zero()

        # eps_n multiplicativity, exhaustive over super degrees, n <= 4
        f = super_factor()
        for n in range(1, 5):
            perms = list(itertools.permutations(range(n)))
            for degs in itertools.product([(0,), (1,)], repeat=n):
                degs = list(degs)
                for p in perms:
                    for t in perms:
                        comp = tuple(p[t[i]] for i in range(n))
                        assert f.eps_n(comp, degs) == f.eps_n(p, degs) * f.eps_n(
                            t, [degs[p[i]] for i in range(n)]
                        )

        # Leibniz and associativity on 100 random homogeneous cochain triples
        L = catalog.sl12()
        V = catalog.module_v_half(L)
        from epslie.gmodule import tensor

        T2 = tensor(V, V)

        def random_homogeneous(level, density=0.3):
            vals = {}
            for mono in exterior.basis(L.signs, level):
                vec = {
                    w: Fraction(rng.randint(-2, 2))
                    for w in range(V.dim)
                    if rng.random() < density
                }
                vec = {w: c for w, c in vec.items() if c}
                if vec:
                    vals[mono] = vec
            g = make_cochain(L, V, level, vals)
            parts = components(g)
            if not parts:
                return g
            keys = sorted(parts)
            return parts[keys[rng.randrange(len(keys))]]

        count = 0
        while count < 100:
            lf, lg, lh = rng.choice(
                [(0, 1, 1), (1, 1, 1), (1, 1, 2), (0, 2, 1), (2, 1, 1), (1, 2, 1)]
            )
            fch = random_homogeneous(lf)
            gch = random_homogeneous(lg)
            hch = random_homogeneous(lh)
            lhs = coboundary(cup_product(fch, gch, target=T2))
            rhs = cochain_add(
                cup_product(coboundary(fch), gch, target=T2),
                cochain_scale(cup_product(fch, coboundary(gch), target=T2), (-1) ** lf),
            )
            assert cochain_eq(lhs, rhs)
            left = cup_product(cup_product(fch, gch), hch)
            right = cup_product(fch, cup_product(gch, hch))
            assert {m: dict(v) for m, v in left.values.items()} == {
                m: dict(v) for m, v in right.values.items()
            }
            count += 1

        # act / coboundary commutation on 100 random samples
        mods = [V, catalog.module_typical_v0_half(L)]
        for _ in range(100):
            W = mods[rng.randrange(2)]
            level = rng.randint(0, 2)
            vals = {}
            for mono in exterior.basis(L.signs, level):
                vec = {
                    w: Fraction(rng.randint(-2, 2))
                    for w in range(W.dim)
                    if rng.random() < 0.25
                }
                vec = {w: c for w, c in vec.items() if c}
                if vec:
                    vals[mono] = vec
            g = make_cochain(L, W, level, vals)
            i = rng.randrange(L.dim)
            assert cochain_eq(
                act({i: ONE}, coboundary(g)), coboundary(act({i: ONE}, g))
            )

        # the action of the algebra on 50 random cocycles lands in coboundaries
        done = 0
        complexes = {}
        while done < 50:
            W = mods[rng.randrange(2)]
            level = rng.randint(1, 2)
            key = (id(W), level)
            if key not in complexes:
                complexes[key] = CochainComplex(L, W, level)
            cx = complexes[key]
            degs = sorted(cx.sector_degrees(level))
            deg = degs[rng.randrange(len(degs))]
            kb = cx.delta_sector(level, deg).kernel_basis()
            if not kb:
                continue
            vec = {}
            for v in kb:
                c = Fraction(rng.randint(-2, 2))
                if c:
                    for k, x in v.items():
                        vec[k] = vec.get(k, Fraction(0)) + c * x
            vec = {k: x for k, x in vec.items() if x}
            if not vec:
                continue
            g = cx.cochain_from_vector(level, vec, deg)
            assert is_cocycle(g)
            i = rng.randrange(L.dim)
            moved = act({i: ONE}, g)
            if moved.is_zero():
                done += 1
                continue
            assert cx.coboundary_witness(moved) is not None
            done += 1


def test_desk_scale_substitute_for_infinite_coefficients():
    """The finite evidence used in place of the enveloping-algebra statement:
    the eight-dimensional summand of the symmetric square realizes a
    nontrivial first class, while the allowed simple subquotients have no
    second cohomology."""
    with Budget(120, "S infinite-coefficient substitute"):
        L = catalog.sl12()
        V8 = catalog.module_v8(L)
        assert CochainComplex(L, V8, 1).cohomology().total(1) == 1
        for q2 in (0, 1):  # trivial and V(1/2): the allowed subquotients
            V = catalog.module_vq(L, q2)
            assert CochainComplex(L, V, 2).cohomology().total(2) == 0
