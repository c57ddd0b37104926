import itertools
import random
from fractions import Fraction

import pytest

from epslie import catalog, exterior, fileio
from epslie.cohomology import CochainComplex
from epslie.exactlin import ONE, RationalSparseMatrix, SpanTracker, vec_eq
from epslie.gmodule import (
    GradedModule,
    ModuleError,
    adjoint,
    coadjoint,
    direct_sum,
    dual,
    eps_power,
    intertwiner_space,
    invariants_subspace,
    quotient,
    shift,
    submodule_generated,
    submodule_span,
    tensor,
    trivial,
    twist,
    weight_spaces,
)

QP, QM, Q3, B, VP, VM, WP, WM = range(8)


def test_adjoint_modules_validate():
    for L in (catalog.sl2(), catalog.sl12(), catalog.sl12("Z2"), catalog.osp12()):
        assert adjoint(L).validate().ok


def test_catalog_modules_validate():
    L = catalog.sl12()
    assert catalog.module_v_half(L).validate().ok
    assert catalog.module_typical_v0_half(L).validate().ok
    assert catalog.module_v8(L).validate().ok


def test_perturbed_action_fails_with_named_pair():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    mats = [RationalSparseMatrix(V.dim, V.dim, dict(m.entries)) for m in V.action]
    bad = dict(mats[QP].entries)
    bad[(0, 1)] = Fraction(2)  # Q+ e- = 2 e+
    mats[QP] = RationalSparseMatrix(V.dim, V.dim, bad)
    W = GradedModule(L, V.labels, V.degrees, mats)
    rep = W.validate()
    assert not rep.ok
    assert any(p[0] == "bracket-compatibility" for p in rep.problems)


def test_trivial_module():
    L = catalog.sl12()
    K = trivial(L, degrees=[(2,)])
    assert K.dim == 1 and K.degrees == [(2,)]
    assert all(m.is_zero() for m in K.action)
    assert K.validate().ok


def test_adjoint_sl2_h_eigenvalues():
    L = catalog.sl2()
    ad = adjoint(L)
    h = ad.action[1]
    eig = sorted(h.get(i, i) for i in range(3))
    assert eig == [Fraction(-2), Fraction(0), Fraction(2)]


def test_coadjoint_pairing_invariance():
    L = catalog.sl12()
    ad = adjoint(L)
    co = coadjoint(L)
    rng = random.Random(5)
    for _ in range(30):
        i = rng.randrange(L.dim)
        a = rng.randrange(L.dim)  # xi in the dual basis
        b = rng.randrange(L.dim)  # x in the algebra
        # <A.xi, x> + eps(alpha, deg xi) <xi, A.x> = 0
        lhs = co.action[i].get(b, a)
        e = L.factor.eps(L.degrees[i], co.degrees[a])
        rhs = e * ad.action[i].get(a, b)
        assert lhs + rhs == 0
    assert co.validate().ok


def test_tensor_dual_shift_closures():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    W = catalog.module_typical_v0_half(L)
    T = tensor(V, W)
    assert T.dim == V.dim * W.dim
    assert T.validate().ok
    D = dual(V)
    assert D.validate().ok
    S = shift(shift(V, (1,)), (-1,))
    assert S.degrees == V.degrees
    DS = direct_sum(V, W)
    assert DS.dim == 7 and DS.validate().ok


def test_square_dimensions():
    L = catalog.sl12()
    ad = adjoint(L)
    S = eps_power(ad, 2, True)
    A = eps_power(ad, 2, False)
    assert (S.dim, A.dim) == (32, 32)
    assert S.validate().ok and A.validate().ok
    # purely even module: classical dimensions
    L2 = catalog.sl2()
    ad2 = adjoint(L2)
    assert eps_power(ad2, 2, True).dim == 6
    assert eps_power(ad2, 2, False).dim == 3


# The tensor-power constructions that eps_power replaced, kept as references:
# each builds the eps-(skew)symmetric tensors inside the tensor power and
# takes the submodule they span.


def _reference_square(V, sym):
    T = tensor(V, V)
    d = V.dim
    vecs = []
    for a in range(d):
        for b in range(a, d):
            e = V.factor.eps(V.degrees[a], V.degrees[b])
            s = e if sym else -e
            if a == b:
                if s == 1:
                    vecs.append({a * d + a: ONE})
            else:
                vecs.append({a * d + b: ONE, b * d + a: Fraction(s)})
    return submodule_span(T, vecs)


def _reference_power(V, k, sym):
    """Sum over all k! permutations of each monomial, with eps_n and, for
    the skew power, the permutation sign."""
    T = V
    for _ in range(k - 1):
        T = tensor(T, V)
    d = V.dim
    fac = V.factor
    degs = V.degrees
    table = fac.sign_table(degs, degs)
    if sym:
        table = [[-s for s in row] for row in table]
    vecs = []
    for mono in exterior.basis(table, k):
        mdeg = [degs[i] for i in mono]
        acc = {}
        for perm in itertools.permutations(range(k)):
            sgn = 1 if sym else exterior.permutation_sign(perm)
            epsn = fac.eps_n(perm, mdeg)
            idx = 0
            for t in range(k):
                idx = idx * d + mono[perm[t]]
            c = acc.get(idx, 0) + sgn * epsn
            if c:
                acc[idx] = c
            else:
                acc.pop(idx, None)
        if acc:
            vecs.append({i: Fraction(c) for i, c in acc.items()})
    return submodule_span(T, vecs)


def _assert_same_module(got, want):
    assert fileio.module_to_dict(got) == fileio.module_to_dict(want)
    assert got.embedding == want.embedding


@pytest.mark.parametrize("name", ["sl12", "sl12_z2"])
def test_catalog_powers_match_the_tensor_power_reference(name):
    L = catalog.get_algebra(name)
    for k in range(1, 5):
        W = catalog.get_module(L, name, "w%d" % k)
        _assert_same_module(W, _reference_power(catalog.module_v_half(L), k, False))
    ts2 = catalog.get_module(L, name, "ts2")
    _assert_same_module(ts2, _reference_square(adjoint(L), True))


@pytest.mark.parametrize("name", ["sl2", "sl12", "sl12_z2", "osp12", "gl21", "psl22"])
@pytest.mark.parametrize("sym", [True, False])
def test_adjoint_squares_match_the_tensor_power_reference(name, sym):
    ad = adjoint(catalog.get_algebra(name))
    S = eps_power(ad, 2, sym)
    _assert_same_module(S, _reference_square(ad, sym))
    _assert_same_module(S, _reference_power(ad, 2, sym))


@pytest.mark.parametrize("sym", [True, False])
def test_adjoint_cubes_match_the_tensor_power_reference(sym):
    ad = adjoint(catalog.sl12())
    S = eps_power(ad, 3, sym)
    assert S.validate().ok
    _assert_same_module(S, _reference_power(ad, 3, sym))


def test_eps_power_needs_a_positive_exponent():
    with pytest.raises(ModuleError):
        eps_power(adjoint(catalog.sl2()), 0, True)


@pytest.mark.parametrize("name", ["sl12", "sl21"])
def test_symmetric_powers_of_the_adjoint(name):
    """H^0..2(L, S^k L) for k <= 3, S^0 L the trivial module.  By PBW for
    color Lie algebras, H^2(L, U(L)) is the sum over k of H^2(L, S^k L);
    H^0 counts the Casimir elements in S^k L."""
    L = catalog.get_algebra(name)
    want = [(1, 1, 0, 0), (8, 0, 0, 0), (32, 1, 1, 0), (88, 1, 1, 0)]
    for k, (dim, *hs) in enumerate(want):
        S = trivial(L) if k == 0 else eps_power(adjoint(L), k, True)
        assert S.dim == dim
        res = CochainComplex(L, S, 2).cohomology()
        assert [res.total(n) for n in range(3)] == hs, k


def test_sym_square_contains_the_invariant_generator():
    L = catalog.sl12()
    S = eps_power(adjoint(L), 2, True)
    # t = Q+ x Q- + Q- x Q+ + 2 Q3 x Q3 + 2 B x B in tensor coordinates
    d = L.dim
    t = {
        QP * d + QM: ONE,
        QM * d + QP: ONE,
        Q3 * d + Q3: Fraction(2),
        B * d + B: Fraction(2),
    }
    tin = S.embedding.image_membership(t)
    assert tin is not None
    closure = submodule_generated(S, [tin])
    assert closure.dim == 8
    inv = invariants_subspace(closure)
    assert len(inv) == 1


def test_invariants():
    L = catalog.sl12()
    K = trivial(L)
    assert len(invariants_subspace(K)) == 1
    V = catalog.module_v_half(L)
    assert invariants_subspace(V) == []
    V8 = catalog.module_v8(L)
    inv = invariants_subspace(V8)
    assert inv == [{1: ONE}]  # span{s}


def test_invariants_of_endomorphism_module_contain_identity():
    L = catalog.sl12()
    for V in (catalog.module_v_half(L), adjoint(L)):
        E = tensor(V, dual(V))
        ident = {a * V.dim + a: ONE for a in range(V.dim)}
        inv = invariants_subspace(E)
        assert len(inv) >= 1
        assert SpanTracker(inv).contains(ident)


def test_submodule_lattice_of_v8():
    L = catalog.sl12()
    V8 = catalog.module_v8(L)
    assert submodule_generated(V8, [{0: ONE}]).dim == 8  # t generates
    assert submodule_generated(V8, [{1: ONE}]).dim == 1  # s spans V1
    fam = catalog.module_v8_family(L)
    assert [fam[k].dim for k in ("v1", "v4", "v4bar", "v7", "v8")] == [1, 4, 4, 7, 8]
    for k in ("v1", "v4", "v4bar", "v7"):
        assert fam[k].validate().ok


def test_quotient_v8_by_v7_is_trivial():
    L = catalog.sl12()
    V8 = catalog.module_v8(L)
    sub = [{k: ONE} for k in range(1, 8)]  # everything except t
    Q = quotient(V8, sub)
    assert Q.dim == 1
    assert all(m.is_zero() for m in Q.action)


def test_quotient_rejects_non_invariant():
    L = catalog.sl12()
    V8 = catalog.module_v8(L)
    with pytest.raises(ModuleError):
        quotient(V8, [{0: ONE}])  # t does not span a submodule


def test_weight_spaces_v_half():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    ws = weight_spaces(V, [{B: ONE}, {Q3: ONE}])
    half = Fraction(1, 2)
    assert set(ws) == {(half, half), (half, -half), (Fraction(1), Fraction(0))}
    assert ws[(Fraction(1), Fraction(0))] == [{2: ONE}]


def test_weight_spaces_rejects_nondiagonalizable():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    with pytest.raises(ModuleError):
        weight_spaces(V, [{QP: ONE}])  # nilpotent


def test_weight_spaces_needs_a_diagonal_action():
    """On the basis (e+ + e-, e-, e0) of v_half, rho(Q3) is diagonalizable
    with eigenvalues +-1/2 but no longer diagonal, so no weights are read."""
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    P = RationalSparseMatrix.from_dense([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    P_inv = RationalSparseMatrix.from_dense([[1, 0, 0], [-1, 1, 0], [0, 0, 1]])
    W = GradedModule(L, ["f0", "f1", "f2"], V.degrees,
                     [P_inv.multiply(m).multiply(P) for m in V.action])
    assert W.degrees[0] == W.degrees[1] and W.validate().ok
    assert weight_spaces(W, [{B: ONE}]) == weight_spaces(V, [{B: ONE}])
    with pytest.raises(ModuleError, match="not diagonal"):
        weight_spaces(W, [{B: ONE}, {Q3: ONE}])


def test_quotients_identify_across_the_lattice():
    """V4/V1 and V7/V4bar carry the (1/2,1/2) module; V4bar/V1 its twist."""
    L = catalog.sl12()
    fam = catalog.module_v8_family(L)
    Vh = catalog.module_v_half(L)

    def q(mod, sublabels):
        idxs = [mod.labels.index(lab) for lab in sublabels]
        return quotient(mod, [{i: ONE} for i in idxs])

    q41 = q(fam["v4"], ["s"])
    maps = intertwiner_space(q41, Vh, (0,))
    assert len(maps) == 1 and maps[0].rank() == 3
    q74 = q(fam["v7"], ["s", "w+", "w-", "w"])
    maps2 = intertwiner_space(q74, Vh, (0,))
    assert len(maps2) == 1 and maps2[0].rank() == 3


def test_twisted_quotients_on_z2_catalog():
    """Over the plain super grading, V4bar/V1 is the omega-twist of V(1/2)."""
    L = catalog.sl12("Z2")
    fam = catalog.module_v8_family(L)
    Vh = catalog.module_v_half(L)
    om = catalog.omega_matrix(L)
    Vtw = twist(Vh, om)
    assert Vtw.validate().ok
    sub = [{fam["v4bar"].labels.index("s"): ONE}]
    qbar = quotient(fam["v4bar"], sub)
    maps = intertwiner_space(qbar, Vtw, (0,))
    assert len(maps) == 1 and maps[0].rank() == 3


def test_submodule_span_requires_invariance():
    L = catalog.sl12()
    V8 = catalog.module_v8(L)
    with pytest.raises(ModuleError):
        submodule_span(V8, [{0: ONE}])
