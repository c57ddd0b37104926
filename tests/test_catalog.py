import hashlib
import json
import os
from fractions import Fraction

import pytest

from epslie import catalog, fileio
from epslie.algebra import AlgebraError
from epslie.cohomology import CochainComplex
from epslie.exactlin import ONE, RationalSparseMatrix, SpanTracker
from epslie.gmodule import (
    adjoint,
    coadjoint,
    eps_power,
    intertwiner_space,
    invariants_subspace,
    quotient,
    regrade_algebra,
    submodule_generated,
    twist,
    weight_spaces,
)
from epslie.grading import super_factor, trivial_factor

QP, QM, Q3, B, VP, VM, WP, WM = range(8)
H = Fraction(1, 2)


def test_every_catalog_algebra_validates():
    for name in catalog.algebra_names():
        L = catalog.get_algebra(name)
        assert L.validate().ok, name


def test_every_catalog_module_validates():
    for aname in ("sl2", "sl12", "sl12_z2"):
        L = catalog.get_algebra(aname)
        for mname in catalog.module_names(aname):
            V = catalog.get_module(L, aname, mname)
            assert V.validate().ok, (aname, mname)


def test_gl_dimension_and_sl_center():
    assert catalog.gl(2, 1).dim == 9
    assert catalog.gl(2, 2).dim == 16
    S = catalog.sl(2, 2)
    assert S.dim == 15
    cen = S.center()
    assert len(cen) == 1
    assert SpanTracker(cen).contains(catalog.identity_vector_sl(2, 2))


def test_psl22_is_perfect_and_simple_sized():
    P = catalog.psl_nn(2)
    assert P.dim == 14
    assert P.is_perfect()
    assert P.center() == []


def test_sl12_gradings():
    L = catalog.sl12()
    assert L.degrees == [(0,)] * 4 + [(1,), (1,), (-1,), (-1,)]
    # consistency: the Z-degree is the eigenvalue of ad(2B)
    for i in range(8):
        br = L.bracket_basis(B, i)
        z = L.degrees[i][0]
        want = {} if z == 0 else {i: Fraction(z, 2)}
        assert br == want
    L2 = catalog.sl12("Z2")
    assert [L2.factor.parity(d) for d in L2.degrees] == [1] * 4 + [-1] * 4


def test_omega_is_an_automorphism():
    L = catalog.sl12("Z2")
    om = catalog.omega_matrix(L)
    assert not L.homomorphism_defect(L, om)
    assert om.multiply(om) == RationalSparseMatrix.identity(8)
    # on the Z-graded algebra it flips degrees, so it is not degree-zero there
    Lz = catalog.sl12()
    assert Lz.degrees[VP] != Lz.degrees[WP]


def test_osp_subalgebra_relations():
    L = catalog.sl12("Z2")
    up, um = catalog.osp12_vectors()[3:]
    assert L.bracket(up, up) == {QP: H}
    assert L.bracket(um, um) == {QM: -H}
    assert L.bracket(up, um) == {Q3: -H}
    G, vecs = catalog.osp12_in_sl12()
    assert G.dim == 5 and G.validate().ok
    # closure of the span
    span = SpanTracker(vecs)
    for a in vecs:
        for b in vecs:
            assert span.contains(L.bracket(a, b))


def test_x_pair_relations_are_sign_twisted():
    L = catalog.sl12("Z2")
    xp, xm = catalog.x_vectors()
    assert L.bracket(xp, xp) == {QP: -H}
    assert L.bracket(xm, xm) == {QM: H}
    assert L.bracket(xp, xm) == {Q3: H}
    # X± and B close into the Q-span: a five-dimensional subalgebra again
    span = [{QP: ONE}, {QM: ONE}, {Q3: ONE}, xp, xm]
    G2, _ = L.subquotient(span, ())
    assert G2.dim == 5 and G2.validate().ok


def test_v_half_weights_and_action_table():
    L = catalog.sl12()
    V = catalog.module_v_half(L)
    ws = weight_spaces(V, [{B: ONE}, {Q3: ONE}])
    assert set(ws) == {(H, H), (H, -H), (Fraction(1), Fraction(0))}
    # V± e∓ = ∓e0, W± e0 = -e±, everything else zero on the odd side
    assert V.action[VP].column(1) == {2: -ONE}
    assert V.action[VM].column(0) == {2: ONE}
    assert V.action[WP].column(2) == {0: -ONE}
    assert V.action[WM].column(2) == {1: -ONE}
    assert V.action[VP].column(0) == {}
    assert V.action[WP].column(0) == {}
    assert invariants_subspace(V) == []


def test_wn_modules():
    L = catalog.sl12()
    for k, dim in ((1, 3), (2, 5), (3, 7), (4, 9)):
        W = catalog.module_wn(L, k)
        assert W.dim == dim
        assert W.validate().ok
        # consistent Z-grading: degrees at least k (at most one even factor)
        degs = sorted(d[0] for d in W.degrees)
        assert degs[0] == k and degs[-1] == k + 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wn_simple_for_small_k(k):
    L = catalog.sl12()
    W = catalog.module_wn(L, k)
    # weight spaces are one-dimensional, so scanning basis vectors scans all
    # weight vectors
    ws = weight_spaces(W, [{B: ONE}, {Q3: ONE}])
    assert all(len(v) == 1 for v in ws.values())
    for a in range(W.dim):
        assert submodule_generated(W, [{a: ONE}]).dim == W.dim


def test_w2_is_v1_highest_weight():
    L = catalog.sl12()
    W2 = catalog.module_wn(L, 2)
    ws = weight_spaces(W2, [{B: ONE}, {Q3: ONE}])
    assert (Fraction(1), Fraction(1)) in ws  # highest weight (b, q) = (1, 1)
    assert len(ws) == 5


def test_typicality_labels():
    assert catalog.typicality_sl12(0, H) == ("typical", 4)
    assert catalog.typicality_sl12(H, H) == ("atypical", 3)
    assert catalog.typicality_sl12(1, 1) == ("atypical", 5)
    assert catalog.typicality_sl12(0, 1) == ("typical", 8)
    assert catalog.typicality_sl12(Fraction(7), Fraction(7)) == ("atypical", 29)
    assert catalog.typicality_sl12(0, 0) == ("atypical", 1)
    with pytest.raises(ValueError):
        catalog.typicality_sl12(1, Fraction(1, 3))
    for b, q in ((0.5, 0.5), (0, 1.0), ("1/2", H)):  # refused, not coerced
        with pytest.raises(TypeError):
            catalog.typicality_sl12(b, q)


def test_adjoint_is_the_typical_q1_module():
    """The adjoint module has highest weight (0, 1): typical of dimension 8."""
    L = catalog.sl12()
    ad = adjoint(L)
    from epslie.casimir import vanishing_witness

    assert vanishing_witness(L, ad) is not None
    from epslie.cohomology import CochainComplex

    res = CochainComplex(L, ad, 2).cohomology()
    assert [res.total(n) for n in range(3)] == [0, 0, 0]


def test_sym_square_decomposition_witnesses():
    L = catalog.sl12()
    ad = adjoint(L)
    S = eps_power(ad, 2, True)
    A = eps_power(ad, 2, False)
    assert (S.dim, A.dim) == (32, 32)
    assert invariants_subspace(A) == []
    assert len(invariants_subspace(S)) == 1
    d = L.dim
    t = {
        QP * d + QM: ONE,
        QM * d + QP: ONE,
        Q3 * d + Q3: Fraction(2),
        B * d + B: Fraction(2),
    }
    tin = S.embedding.image_membership(t)
    closure = submodule_generated(S, [tin])
    assert closure.dim == 8
    # the closure carries the eight-dimensional catalog module
    V8 = catalog.module_v8(L)
    maps = intertwiner_space(closure, V8, (0,))
    assert any(m.rank() == 8 for m in maps)
    # nested invariant lattice dims 1, 4, 4, 7 inside the closure
    inv = invariants_subspace(closure)
    assert len(inv) == 1
    sub1 = submodule_generated(closure, inv)
    assert sub1.dim == 1


def test_v8_lattice_quotient_identifications():
    L = catalog.sl12()
    fam = catalog.module_v8_family(L)
    assert [fam[k].dim for k in ("v1", "v4", "v4bar", "v7", "v8")] == [1, 4, 4, 7, 8]
    V8 = fam["v8"]
    q87 = quotient(
        V8, [{k: ONE} for k in range(1, 8)]
    )
    assert q87.dim == 1 and all(m.is_zero() for m in q87.action)


def test_atypical_subquotients_of_v8_are_the_allowed_ones():
    """The simple graded subquotients in the lattice are the trivial module
    and the two (±1/2, 1/2) modules; the B-eigenvalues stay in {0, ±1/2, ±1}."""
    L = catalog.sl12()
    fam = catalog.module_v8_family(L)
    Vh = catalog.module_v_half(L)
    for name, labels in (("v4", ["s"]), ("v7", ["s", "w+", "w-", "w"])):
        mod = fam[name]
        sub = [{mod.labels.index(lab): ONE} for lab in labels]
        q = quotient(mod, sub)
        assert len(intertwiner_space(q, Vh, (0,))) == 1
    # B-eigenvalues on the sym square: {0, ±1/2, ±1} (adjoint degrees halved)
    S = eps_power(adjoint(L), 2, True)
    bvals = set()
    for V in (S, fam["v8"]):
        ws = weight_spaces(V, [{B: ONE}])
        bvals.update(k[0] for k in ws)
    assert bvals <= {Fraction(0), H, -H, Fraction(1), Fraction(-1)}


def test_regrade_z_to_z2_matches_catalog():
    Lz = catalog.sl12()
    L2 = regrade_algebra(Lz, super_factor(), lambda d: (d[0] % 2,))
    ref = catalog.sl12("Z2")
    assert L2.table == ref.table
    assert L2.degrees == ref.degrees
    with pytest.raises(AlgebraError):
        regrade_algebra(Lz, trivial_factor(1), lambda d: d)


def test_vq_realizations():
    L = catalog.sl12()
    assert catalog.module_vq(L, 0).dim == 1
    assert catalog.module_vq(L, 1).dim == 3
    assert catalog.module_vq(L, 2).dim == 5


def test_named_cocycles_contract():
    from epslie.cohomology import CochainComplex, is_cocycle

    L = catalog.sl12()
    named = catalog.named_cocycles(L)
    assert set(named) == {"g0", "g2", "g", "v8_g", "v8_gbar"}
    for g in named.values():
        assert is_cocycle(g)
    cx = CochainComplex(L, named["g0"].module, 1)
    assert cx.coboundary_witness(named["g0"]) is None
    assert cx.coboundary_witness(named["g"]) is None
    assert cx.coboundary_witness(named["g2"]) is not None


def test_trace_cocycle_invariance_properties():
    """Invariant under the even part, but not under all of psl(2|2)."""
    from epslie.cohomology import act, is_cocycle

    P = catalog.psl_nn(2)
    g = catalog.trace_cocycle_psl(2)
    assert is_cocycle(g)
    evens = [i for i in range(P.dim) if P.factor.parity(P.degrees[i]) == 1]
    for i in evens:
        assert act({i: ONE}, g).is_zero()
    odds = [i for i in range(P.dim) if P.factor.parity(P.degrees[i]) == -1]
    assert any(not act({i: ONE}, g).is_zero() for i in odds)


def test_sign_tables_agree_with_the_factor():
    """Every catalog algebra and registered module: the tables the assembly
    reads equal CommutationFactor.eps entry by entry."""
    for name in catalog.algebra_names():
        L = catalog.get_algebra(name)
        eps, degs = L.factor.eps, L.degrees
        assert L.signs == [[eps(a, b) for b in degs] for a in degs]
        for mname in catalog.module_names(name):
            V = catalog.get_module(L, name, mname)
            assert V.signs == [[eps(a, v) for v in V.degrees] for a in degs], mname


def _export_digests():
    """SHA-256 of the sorted JSON export of every catalog algebra and of every
    (algebra, module) pair that `epslie catalog list` shows."""
    def digest(data):
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

    out = {}
    for aname in catalog.algebra_names():
        L = catalog.get_algebra(aname)
        out[aname] = digest(fileio.algebra_to_dict(L))
        for mname in catalog.module_names(aname):
            V = catalog.get_module(L, aname, mname)
            out["%s/%s" % (aname, mname)] = digest(fileio.module_to_dict(V))
    return out


# Pinned while subquotient, submodule_span and eps_power still kept their own
# span trackers: every basis, label and order of the catalog.
def test_catalog_exports_match_the_pinned_digests():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                        "catalog-exports.json")
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)
    got = _export_digests()
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def _stored(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_every_catalog_coefficient_is_stored_as_int_or_proper_fraction():
    """Structure constants, action entries and the coboundary blocks of the
    trivial and adjoint complexes (n <= 2) hold ints where integral."""
    for aname in catalog.algebra_names():
        L = catalog.get_algebra(aname)
        assert all(_stored(c) for vec in L.table.values() for c in vec.values()), aname
        for mname in catalog.module_names(aname):
            V = catalog.get_module(L, aname, mname)
            assert all(_stored(c) for m in V.action for c in m.entries.values()), mname
            if mname not in ("trivial", "adjoint"):
                continue
            cx = CochainComplex(L, V, 2)
            for n in range(3):
                for deg in cx.sector_degrees(n):
                    block = cx.delta_sector(n, deg)
                    assert all(_stored(c) for c in block.entries.values()), (
                        aname, mname, n, deg)
