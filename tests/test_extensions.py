import functools
from fractions import Fraction

import pytest

from epslie import catalog, exterior, gmodule
from epslie.algebra import EpsLieAlgebra
from epslie.cohomology import (
    CochainComplex,
    cochain_add,
    cochain_sub,
    is_cocycle,
    make_cochain,
)
from epslie.exactlin import (
    ONE,
    RationalSparseMatrix,
    ShapeError,
    SpanTracker,
    vec_axpy,
)
from epslie.extensions import (
    CentralExtension,
    ExtensionError,
    NotPerfectError,
    boundary2,
    boundary3,
    cocycle_from_section,
    covering_from_h2_basis,
    covering_morphism,
    extension_from_cocycle,
    h2_pairing_check,
    homology_h2,
    universal_covering,
)
from epslie.gmodule import trivial
from epslie.grading import trivial_factor

from _sectors import sector_positions, split_sectors


def catalog_algebras():
    return [
        catalog.sl2(),
        catalog.sl12(),
        catalog.sl12("Z2"),
        catalog.osp12(),
        catalog.gl(1, 1),
        catalog.psl_nn(2),
        catalog.sl(2, 2),
    ]


def test_boundary_composition_vanishes_everywhere():
    for L in catalog_algebras():
        assert boundary2(L).multiply(boundary3(L)).is_zero()


@pytest.mark.parametrize("name", catalog.algebra_names())
def test_boundaries_are_transposed_trivial_coboundaries(name):
    """d2 and d3 are the transposes of delta^1 and delta^2 with trivial
    coefficients, sector by sector, entry by entry and with no sign change.
    The monomials of degree D carry the cochains of degree -D."""
    L = catalog.get_algebra(name)
    g = L.group
    cx = CochainComplex(L, trivial(L), 2)
    pos = [sector_positions([g.sum(L.degrees[i] for i in m) for m in exterior.basis(L.signs, n)])
           for n in (1, 2, 3)]
    for n, d in ((1, boundary2(L)), (2, boundary3(L))):
        blocks = split_sectors(d, pos[n - 1], pos[n])
        assert sorted(g.neg(D) for D in blocks) == sorted(
            set(cx.sector_degrees(n)) | set(cx.sector_degrees(n + 1)))
        assert blocks == {D: cx.delta_sector(n, g.neg(D)).transpose() for D in blocks}


def test_boundary2_abelian_and_sl2():
    f = trivial_factor(0, (2,))
    A = EpsLieAlgebra(f, ["a", "b"], [(0,), (1,)], {})
    assert boundary2(A).is_zero()
    assert boundary2(catalog.sl2()).rank() == 3  # perfect => surjective


def test_homology_h2_values():
    assert homology_h2(catalog.sl2()).total() == 0
    assert homology_h2(catalog.sl12()).total() == 0
    h2 = homology_h2(catalog.psl_nn(2))
    assert h2.total() == 3
    # cycle representatives are genuine cycles, not boundaries
    d2 = boundary2(catalog.psl_nn(2))
    for deg, reps in h2.cycles.items():
        for v in reps:
            assert not d2.apply(v)


def reference_homology_h2(L):
    """H_2 by a SpanTracker over the columns of each d3 block that
    split_sectors cuts from boundary3."""
    g = L.group
    monos2 = exterior.basis(L.signs, 2)
    degs2 = [g.sum(L.degrees[i] for i in m) for m in monos2]
    pos1 = sector_positions(L.degrees)
    pos2 = sector_positions(degs2)
    pos3 = sector_positions(
        [g.sum(L.degrees[i] for i in m) for m in exterior.basis(L.signs, 3)]
    )
    blocks2 = split_sectors(boundary2(L), pos1, pos2)
    blocks3 = split_sectors(boundary3(L), pos2, pos3)
    dims, cycles, boundaries = {}, {}, {}
    for D, cols2 in pos2.items():
        z = len(cols2) - blocks2[D].rank()
        b = blocks3[D].rank()
        if not (z or b):
            continue
        dims[D] = (z, b, z - b)
        span = SpanTracker(blocks3[D].columns())
        for p, row in span.rows.items():
            boundaries[cols2[p]] = {cols2[k]: c for k, c in row.items()}
        cycles[D] = [{cols2[k]: c for k, c in kv.items()}
                     for kv in blocks2[D].kernel_basis() if span.add(kv)]
    return dims, cycles, boundaries, degs2


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in ("sl33", "psl33") else name
    for name in catalog.algebra_names()
])
def test_homology_h2_matches_the_column_by_column_reference(name):
    L = catalog.get_algebra(name)
    h2 = homology_h2(L)
    assert (h2.dims, h2.cycles, h2.boundaries, h2.degrees) == reference_homology_h2(L)


def _inhomogeneous(degrees, brackets):
    f = trivial_factor(1)
    labels = "abcd"[: len(degrees)]
    return EpsLieAlgebra(f, labels, [(d,) for d in degrees], brackets)


def test_homology_h2_rejects_an_inhomogeneous_d2():
    # a, b of degree 1 and c of degree 0 with <a, b> = c: d3(a^b^c) = -c^c
    # vanishes, so the row a^b of delta^1, the first pair of the cochain
    # sector -2, is the first to leave its sector, at the monomial c
    L = _inhomogeneous([1, 1, 0], {(0, 1): {2: ONE}})
    with pytest.raises(ShapeError, match=r"entry \(0, \(\(2,\), 0\)\) of sector \(-2,\) "
                                         r"leaves its degree sector"):
        homology_h2(L)


def test_homology_h2_rejects_an_inhomogeneous_d3():
    # with a fourth index d of degree 0, d3(a^b^d) = -c^d: the row a^b^d of
    # delta^2 (triple 1 of the cochain sector -2) meets the pair c^d of
    # sector 0; the delta^2 blocks of a degree are assembled before its
    # delta^1 blocks
    L = _inhomogeneous([1, 1, 0, 0], {(0, 1): {2: ONE}})
    with pytest.raises(ShapeError, match=r"entry \(1, \(\(2, 3\), 0\)\) of sector \(-2,\) "
                                         r"leaves its degree sector"):
        homology_h2(L)


@pytest.mark.slow
def test_homology_h2_psl33():
    assert homology_h2(catalog.psl_nn(3)).total() == 1


def test_trivial_cocycle_gives_direct_product():
    L = catalog.sl2()
    H = trivial(L, degrees=[(0,), (0,)], labels=["x", "y"])
    z = make_cochain(L, H, 2, {})
    ext = extension_from_cocycle(L, H, z)
    assert ext.total.dim == 5
    assert len(ext.total.center()) == 2
    assert ext.total.validate().ok


def test_extension_rejects_non_cocycles_and_wrong_degree():
    L = catalog.sl12()
    K = trivial(L)
    bad = make_cochain(L, K, 2, {(0, 1): {0: ONE}})  # not a cocycle
    with pytest.raises(ExtensionError):
        extension_from_cocycle(L, K, bad)
    Kshift = trivial(L, degrees=[(1,)])
    gshift = make_cochain(L, Kshift, 2, {})
    ext = extension_from_cocycle(L, Kshift, gshift)  # zero cochain is fine
    assert ext.total.dim == 9


def _sl_trace_free_columns(n):
    """Matched-basis columns: supertrace-free lifts of the psl basis plus
    the scaled identity, all in sl(n|n) coordinates."""
    SL, slreps, GL = catalog._sl_data(n, n)
    _, preps, _ = catalog._psl_data(n)
    ivec = catalog.identity_vector_sl(n, n)
    total = 2 * n

    def tr(v):
        acc = Fraction(0)
        for i, c in v.items():
            for flat, cc in slreps[i].items():
                r, col = divmod(flat, total)
                if r == col:
                    acc += c * cc
        return acc

    cols = []
    for v in preps:
        w = dict(v)
        vec_axpy(w, Fraction(-tr(v), 2 * n), ivec)
        cols.append(w)
    center = {k: Fraction(c, 2 * n) for k, c in ivec.items()}
    return SL, cols, center


@pytest.mark.parametrize("n", [2, 3])
def test_trace_cocycle_extension_is_sl_nn(n):
    P = catalog.psl_nn(n)
    g = catalog.trace_cocycle_psl(n)
    assert is_cocycle(g) and g.degree == P.group.zero()
    ext = extension_from_cocycle(P, g.module, g)
    SL, cols, center = _sl_trace_free_columns(n)
    phi = RationalSparseMatrix.from_columns(cols + [center], SL.dim)
    assert phi.rank() == SL.dim == ext.total.dim
    assert not ext.total.homomorphism_defect(SL, phi)


def test_cohomologous_cocycles_give_equivalent_extensions():
    """Adding a coboundary is undone by the explicit base change
    (A, x) -> (A, x + b(A))."""
    P = catalog.psl_nn(2)
    g = catalog.trace_cocycle_psl(2)
    H = g.module
    zero = P.group.zero()
    cartan = next(i for i, d in enumerate(P.degrees) if d == zero)
    b = make_cochain(P, H, 1, {(cartan,): {0: ONE}})
    from epslie.cohomology import coboundary, cochain_add

    g2 = cochain_add(g, coboundary(b))
    assert is_cocycle(g2)
    e1 = extension_from_cocycle(P, H, g)
    e2 = extension_from_cocycle(P, H, g2)
    n = P.dim
    # (A, x) -> (A, x - b(A)) undoes the added coboundary, since on trivial
    # coefficients (d b)(A, B) = -b(<A, B>)
    ent = {(i, i): ONE for i in range(e1.total.dim)}
    for mono, vec in b.values.items():
        (i,) = mono
        for h, c in vec.items():
            ent[(n + h, i)] = -c
    phi = RationalSparseMatrix(e1.total.dim, e1.total.dim, ent)
    assert phi.rank() == e1.total.dim
    assert not e1.total.homomorphism_defect(e2.total, phi)


def test_cocycle_from_section():
    n = 2
    P = catalog.psl_nn(n)
    SL, cols, center = _sl_trace_free_columns(n)
    _, preps, _ = catalog._psl_data(n)
    ivec = catalog.identity_vector_sl(n, n)
    repmat = RationalSparseMatrix.from_columns(
        [dict(v) for v in preps] + [ivec], SL.dim
    )
    ent = {}
    for i in range(SL.dim):
        sol = repmat.image_membership({i: ONE})
        for a, c in sol.items():
            if a < P.dim and c:
                ent[(a, i)] = c
    proj = RationalSparseMatrix(P.dim, SL.dim, ent)
    # a linear section that happens to be a homomorphism gives the zero cocycle
    # (no such section exists here, so use the trace-free one and compare values)
    sect = RationalSparseMatrix.from_columns(cols, SL.dim)
    g2, H2 = cocycle_from_section(SL, P, proj, sect)
    assert is_cocycle(g2) and H2.dim == 1
    gref = catalog.trace_cocycle_psl(n)
    k0 = proj.kernel_basis()[0]
    some = next(iter(k0))
    beta = Fraction(k0[some], ivec[some])
    # values agree after rescaling by the kernel-basis normalization
    for mono, vec in gref.values.items():
        assert g2.values.get(mono, {}).get(0, 0) * beta == Fraction(vec[0], 2 * n)
    assert set(g2.values) == set(gref.values)


def test_section_of_direct_product_is_homomorphism_gives_zero():
    L = catalog.sl2()
    H = trivial(L, degrees=[(0,)], labels=["z"])
    z = make_cochain(L, H, 2, {})
    ext = extension_from_cocycle(L, H, z)
    sect = RationalSparseMatrix(
        ext.total.dim, L.dim, {(i, i): ONE for i in range(L.dim)}
    )
    g, Hk = cocycle_from_section(ext.total, L, ext.project, sect)
    assert g.is_zero()


def test_round_trip_extension_from_section_cocycle():
    n = 2
    P = catalog.psl_nn(n)
    SL, cols, center = _sl_trace_free_columns(n)
    gref = catalog.trace_cocycle_psl(n)
    ext = extension_from_cocycle(P, gref.module, gref)
    # section into the reconstructed extension: sigma(A) = (A, 0)
    sect = RationalSparseMatrix(
        ext.total.dim, P.dim, {(i, i): ONE for i in range(P.dim)}
    )
    g2, _ = cocycle_from_section(ext.total, P, ext.project, sect)
    diff = cochain_sub(
        make_cochain(P, g2.module, 2, g2.values),
        make_cochain(P, g2.module, 2, {m: dict(v) for m, v in gref.values.items()}),
    )
    assert diff.is_zero()


def test_universal_covering_sl2_is_itself():
    cov = universal_covering(catalog.sl2())
    assert cov.covering.dim == 3
    assert cov.center_total() == 0


def test_universal_covering_requires_perfect():
    with pytest.raises(NotPerfectError):
        universal_covering(catalog.gl(1, 1))


def test_universal_covering_psl22(monkeypatch):
    P = catalog.psl_nn(2)
    cov = universal_covering(P)
    assert cov.covering.dim == 17
    assert cov.center_total() == 3
    assert cov.covering.is_perfect()
    assert cov.h2_dims == homology_h2(P).graded_dims()
    # determinism, on a psl(2|2) built afresh
    for name in ("gl", "_sl_data", "_psl_data"):
        monkeypatch.setattr(catalog, name, functools.cache(getattr(catalog, name).__wrapped__))
    P2 = catalog.psl_nn(2)
    cov2 = universal_covering(P2)
    assert cov2.covering.table == cov.covering.table
    assert cov2.center_dims == cov.center_dims


# dim of the centre of the universal covering of each perfect catalog algebra
_COVERING_CENTRES = {
    "sl2": 0, "sl3": 0, "osp12": 0, "sl12": 0, "sl12_z2": 0, "sl21": 0,
    "sl22": 2, "sl33": 0, "psl22": 3, "psl33": 1,
}


def test_covering_centres_cover_the_perfect_catalog_algebras():
    perfect = [n for n in catalog.algebra_names() if catalog.get_algebra(n).is_perfect()]
    assert sorted(perfect) == sorted(_COVERING_CENTRES)


@pytest.mark.parametrize("name", sorted(_COVERING_CENTRES))
def test_universal_covering_is_centrally_closed(name):
    """Garland's characterization: the universal central covering L-hat of a
    perfect L is perfect and has H_2(L-hat) = 0."""
    cov = universal_covering(catalog.get_algebra(name))
    assert cov.center_total() == _COVERING_CENTRES[name]
    assert cov.covering.is_perfect()
    assert homology_h2(cov.covering).total() == 0


def _count_assembly(monkeypatch):
    """{(level, weight zero?): calls of CochainComplex._assemble}, filled
    as the patched method is called."""
    calls = {}
    assemble = CochainComplex._assemble

    def counted(self, n, weight_zero):
        calls[(n, weight_zero)] = calls.get((n, weight_zero), 0) + 1
        return assemble(self, n, weight_zero)

    monkeypatch.setattr(CochainComplex, "_assemble", counted)
    return calls


def test_universal_covering_assembles_each_boundary_once(monkeypatch):
    """d2 is delta^1 on both sides of K and d3 is delta^2 on the side in K,
    each assembled once by the trivial cochain complex."""
    calls = _count_assembly(monkeypatch)
    universal_covering(catalog.psl_nn(2))
    assert calls == {(1, True): 1, (1, False): 1, (2, True): 1}


def test_universal_covering_never_lists_the_full_exterior_cube(monkeypatch):
    """d3 is assembled once, with the weight-zero triples alone as the rows
    of delta^2; no full list or table of level 3 is built."""
    P = catalog.psl_nn(2)
    cx = CochainComplex(P, trivial(P), 2)
    full = exterior.basis(P.signs, 3)
    weight_zero = [M for M in full if cx.vanishing_certificate(
        P.group.neg(P.group.sum(P.degrees[i] for i in M))) is None]
    walked = []
    assemble = CochainComplex._assemble

    def recorded(self, n, weight_zero):
        blocks = assemble(self, n, weight_zero)
        if n == 2:
            rows = self._layout(3, weight_zero)[0]
            walked.append((weight_zero, sorted(M for pairs in rows.values() for M, _ in pairs)))
        return blocks

    def refuse_level_3(owner, name):
        method = getattr(owner, name)

        def guarded(*args):
            if args[1] == 3:
                raise AssertionError("%s listed the whole of level 3" % name)
            return method(*args)

        monkeypatch.setattr(owner, name, guarded)

    refuse_level_3(exterior, "basis")
    refuse_level_3(EpsLieAlgebra, "monomials_by_degree")
    monkeypatch.setattr(CochainComplex, "_assemble", recorded)
    assert universal_covering(P).center_total() == 3
    assert walked == [(True, weight_zero)]
    assert 0 < len(weight_zero) < len(full)


def test_covering_w_reps_are_classes_of_the_w_basis():
    """Lifts x, y of e_i, e_j to the covering bracket to ([e_i, e_j], w_k) in
    L x W when (i, j) is the pair monomial w_reps[k]: the class of
    w_reps[k] under the extension cocycle is the k-th W basis vector."""
    P = catalog.psl_nn(2)
    cov = universal_covering(P)
    nl = P.dim
    assert len(cov.w_reps) == cov.covering.dim  # exterior square mod im d3
    for k, (i, j) in enumerate(cov.w_reps):
        x = cov.projection.image_membership({i: ONE})
        y = cov.projection.image_membership({j: ONE})
        xy = {}
        for c, v in cov.covering.bracket(x, y).items():
            vec_axpy(xy, v, cov.hat_reps[c])
        want = dict(P.bracket_basis(i, j))
        want[nl + k] = ONE
        assert xy == want


def test_covering_from_h2_basis_matches_universal(monkeypatch):
    def no_full_delta(self, level):
        raise AssertionError("the full delta(%d) was built" % level)

    monkeypatch.setattr(CochainComplex, "delta", no_full_delta)
    P = catalog.psl_nn(2)
    K = trivial(P)
    cx = CochainComplex(P, K, 2)
    reps = []
    for deg, t in cx.cohomology().sector_table(2):
        reps.extend(cx.representatives(2, deg))
    assert len(reps) == 3
    ext = covering_from_h2_basis(P, reps)
    assert ext.total.dim == 17
    assert ext.total.is_perfect()
    # center degrees are the negatives of the class degrees
    class_degs = sorted(P.group.neg(r.degree) for r in reps)
    coeff_degs = sorted(ext.coefficients.degrees)
    assert class_degs == coeff_degs
    cov = universal_covering(P)
    phi = covering_morphism(cov, ext)
    assert phi.rank() == 17
    assert not cov.covering.homomorphism_defect(ext.total, phi)


def test_covering_from_empty_basis():
    L = catalog.sl2()
    ext = covering_from_h2_basis(L, [])
    assert ext.total.dim == 3


def test_covering_from_dependent_classes_rejected():
    P = catalog.psl_nn(2)
    K = trivial(P)
    cx = CochainComplex(P, K, 2)
    reps = []
    for deg, t in cx.cohomology().sector_table(2):
        reps.extend(cx.representatives(2, deg))
    with pytest.raises(ExtensionError):
        covering_from_h2_basis(P, reps + [reps[0]])


def test_covering_from_inhomogeneous_class_rejected():
    """The sum of the representatives of two H^2 sectors is refused as a
    class, not later as the combined cocycle; so is a class with values in
    a module of nonzero degree."""
    P = catalog.psl_nn(2)
    cx = CochainComplex(P, trivial(P), 2)
    first, second = [cx.representatives(2, deg)[0]
                     for deg, _ in cx.cohomology().sector_table(2)[:2]]
    assert first.degree != second.degree
    with pytest.raises(ExtensionError, match="class must be homogeneous"):
        covering_from_h2_basis(P, [cochain_add(first, second)])
    shifted = trivial(P, degrees=[P.degrees[0]])
    moved = make_cochain(P, shifted, 2, second.values)
    assert is_cocycle(moved)
    with pytest.raises(ExtensionError, match="module degree zero"):
        covering_from_h2_basis(P, [first, moved])


@pytest.mark.slow
def test_universal_covering_psl33_is_sl33():
    P = catalog.psl_nn(3)
    cov = universal_covering(P)
    assert cov.covering.dim == 35
    assert cov.center_total() == 1
    # matched-basis comparison against sl(3|3): build the extension along the
    # trace cocycle and transport the covering onto it
    g = catalog.trace_cocycle_psl(3)
    ext = extension_from_cocycle(P, g.module, g)
    phi = covering_morphism(cov, ext)
    assert phi.rank() == 35
    assert not cov.covering.homomorphism_defect(ext.total, phi)
    SL, cols, center = _sl_trace_free_columns(3)
    psi = RationalSparseMatrix.from_columns(cols + [center], SL.dim)
    assert not ext.total.homomorphism_defect(SL, psi)


def _rational_entries(vec):
    """Every entry follows exactlin.rational(): an int, or a Fraction with
    denominator > 1; never a float or a bool."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in vec.values())


@pytest.mark.slow
def test_covering_vectors_hold_rational_entries():
    """The structure constants, representatives and centre of the universal
    covering of psl(3|3), and the boundaries and cycles of H_2(psl(3|3)),
    come out of the vector layer with ints where integral."""
    P = catalog.psl_nn(3)
    cov = universal_covering(P)
    h2 = homology_h2(P)
    groups = {
        "table": list(cov.covering.table.values()),
        "hat_reps": cov.hat_reps,
        "center_vectors": cov.center_vectors,
        "boundaries": list(h2.boundaries.values()),
        "cycles": [v for vs in h2.cycles.values() for v in vs],
    }
    assert all(groups.values())
    assert {k: [v for v in vs if not _rational_entries(v)] for k, vs in groups.items()} == {
        k: [] for k in groups}


@pytest.mark.slow
def test_universal_covering_psl44_is_sl44():
    """H_2(psl(n|n)) is one-dimensional, of degree 0, for n >= 3, so the
    universal covering of psl(4|4) is sl(4|4), of dimension 63 (Iohara and
    Koga, Comment. Math. Helv. 76 (2001))."""
    P = catalog.psl_nn(4)
    cov = universal_covering(P)
    assert cov.covering.dim == 63
    assert cov.center_dims == {P.group.zero(): 1}


@pytest.mark.parametrize("name", ["sl2", "sl12", "psl22"])
def test_h2_pairing(name):
    assert h2_pairing_check(catalog.get_algebra(name))


def test_h2_pairing_solves_the_torus_once(monkeypatch):
    calls = []
    original = gmodule.inner_torus

    def counted(V):
        calls.append(V)
        return original(V)

    monkeypatch.setattr(gmodule, "inner_torus", counted)
    assert h2_pairing_check(catalog.psl_nn(2))
    assert len(calls) == 1


def test_h2_pairing_assembles_each_block_once(monkeypatch):
    """H_2 and H^2 read the blocks of one complex: H_2 asks for delta^1 on
    both sides of K and delta^2 in K, H^2 for delta^0..2 in K, and each
    (level, side) is assembled the first time only."""
    calls = _count_assembly(monkeypatch)
    assert h2_pairing_check(catalog.psl_nn(2))
    assert calls == {(0, True): 1, (1, True): 1, (1, False): 1, (2, True): 1}


def test_h2_pairing_ranks_no_vanishing_sector(monkeypatch):
    certificates = []
    sector_ranks = CochainComplex.sector_ranks

    def recorded(self, n, deg):
        certificates.append(self.vanishing_certificate(deg))
        return sector_ranks(self, n, deg)

    monkeypatch.setattr(CochainComplex, "sector_ranks", recorded)
    assert h2_pairing_check(catalog.psl_nn(2))
    assert certificates and not any(certificates)
