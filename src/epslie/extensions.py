"""Central extensions, second homology and universal coverings.

H is always a graded vector space carried as a trivial module; a central
extension is the algebra L(g) on L x H with bracket
<(A,X),(B,Y)> = (<A,B>, g(A,B)) for a degree-zero 2-cocycle g.  Second
homology comes from the boundary maps on exterior powers,
d2(A^B) = -<A,B> and d3(A^B^C) = -<A,B>^C + eps(b,c)<A,C>^B + A^<B,C>,
whose composition vanishing is the Jacobi identity.  With trivial
coefficients they are the transposes of delta^1 and delta^2, so
homology_h2 reads their sector blocks from CochainComplex(L, trivial(L), 2),
whose assembly raises ShapeError for an inhomogeneous bracket term;
boundary2 and boundary3 build the whole matrices from the formulas, as
references for the tests.  A torus pair (x, chi) of (L, K) acts on the
monomials of degree D as chi(D) * id, and the chain Cartan formula
theta_x = d i_x + i_x d holds with i_x(c) = x ^ c; so im d3 = ker d2 where
chi(D) != 0, and d3 is ranked only at inner weight zero.
"""

from __future__ import annotations

from . import exterior
from .algebra import EpsLieAlgebra, degree_of_vector, graded_subquotient
from .cohomology import (
    Cochain,
    CochainComplex,
    evaluate,
    is_cocycle,
    make_cochain,
)
from .exactlin import (
    RationalSparseMatrix,
    SpanTracker,
    rows_kernel,
    vec_axpy,
)
from .gmodule import GradedModule, trivial


class ExtensionError(ValueError):
    pass


class NotPerfectError(ExtensionError):
    pass


# ---------------------------------------------------------------------------
# boundary operators and H_2


def boundary2(L):
    """Matrix of d2 : exterior square -> L on canonical pair monomials,
    from the formula d2(A^B) = -<A,B>: a reference for the tests."""
    terms = L.bracket_terms
    return RationalSparseMatrix.from_columns(
        [{k: -v for k, v in terms[i][j]} for i, j in exterior.basis(L.signs, 2)], L.dim)


def boundary3(L):
    """Matrix of d3 : exterior cube -> exterior square, term by term from
    the formula of the module docstring: a reference for the tests."""
    signs = L.signs
    terms = L.bracket_terms
    index2 = {m: k for k, m in enumerate(exterior.basis(signs, 2))}
    cols = []
    for i, j, k in exterior.basis(signs, 3):
        col = {}
        for c, l, m in ([(-v, l, k) for l, v in terms[i][j]]
                        + [(signs[j][k] * v, l, j) for l, v in terms[i][k]]
                        + [(v, i, l) for l, v in terms[j][k]]):
            s, mono = exterior.canonicalize(signs, (l, m))
            if s:  # the matrix drops the entries that cancel to 0
                col[index2[mono]] = col.get(index2[mono], 0) + s * c
        cols.append(col)
    return RationalSparseMatrix.from_columns(cols, len(index2))


class H2Result:
    """H_2 per degree sector over the canonical pair monomials.

    boundaries is the reduced echelon basis of im d3 whose pivots are
    leading indices.  That basis is unique, so it does not depend on how
    im d3 was eliminated, and its pivots fix the complement W of
    universal_covering and with it the exported covering."""

    def __init__(self, dims, cycles, monomials, degrees, boundaries, d2_rank):
        self.dims = dims              # degree -> (z, b, h)
        self.cycles = cycles          # degree -> list of vectors over monomials
        self.monomials = monomials
        self.degrees = degrees        # degree of each monomial
        self.boundaries = boundaries  # pivot -> reduced echelon row of im d3
        self.d2_rank = d2_rank        # dim im d2 = dim [L, L]

    def total(self):
        return sum(t[2] for t in self.dims.values())

    def graded_dims(self):
        return {d: t[2] for d, t in sorted(self.dims.items()) if t[2]}


def homology_h2(L, cx=None):
    """H_2 = ker d2 / im d3 per degree sector, with cycle representatives
    and the echelon basis of im d3 over all monomials.

    d2 and d3 are read from cx = CochainComplex(L, trivial(L), 2): with
    trivial coefficients they are the transposes of delta^1 and delta^2,
    and the monomials of degree D carry the cochains of degree -D.  So on
    the sector D of the exterior square, the rows of d2 are the columns of
    delta_sector(1, -D), the columns of d3 are the rows of
    delta_sector(2, -D), and the k-th position is the k-th pair of
    cx.sector(2, -D).  The complex assembles them, and its sector_map raises
    ShapeError for a term whose row and column lie in different sectors.
    A torus pair (x, chi) of cx acts on the monomials of degree D as
    chi(D) * id, and theta_x = d i_x + i_x d with i_x(c) = x ^ c; so where
    chi(D) != 0, im d3 = ker d2, and d3 is eliminated only in the
    inner-weight-zero sectors.  Either way the boundaries are the unique
    leading-pivot reduced echelon basis of the image (see H2Result),
    whatever pivots the elimination chose.  cx, when given, is that
    complex, for a caller that ranks H^2 on it too."""
    gr = L.group
    cx = CochainComplex(L, trivial(L), 2) if cx is None else cx
    monos2 = sorted(M for ms in L.monomials_by_degree(2).values() for M in ms)
    index2 = {m: k for k, m in enumerate(monos2)}
    degs2 = [None] * len(monos2)
    dims = {}
    cycles = {}
    boundaries = {}
    d2_rank = 0
    # a degree missing from the exterior square has z = b = 0
    for D in sorted(L.monomials_by_degree(2)):
        gamma = gr.neg(D)
        cols2 = [index2[M] for M, _ in cx.sector(2, gamma)[0]]
        for p in cols2:
            degs2[p] = D
        weight_zero = cx.vanishing_certificate(gamma) is None
        if weight_zero:
            rows = cx.delta_sector(2, gamma).rref()[1]
        kernel = rows_kernel(cx.delta_sector(1, gamma).columns(), len(cols2))
        z = len(kernel)
        d2_rank += len(cols2) - z
        if not weight_zero:
            rows, kernel = kernel, ()  # im d3 = ker d2: no cycle is new
        b = len(rows)
        if not (z or b):
            continue
        dims[D] = (z, b, z - b)
        span = SpanTracker(rows)
        # sectors have disjoint supports, so their echelon rows together are
        # the echelon basis of the whole image; taken before cycles join
        for p, row in span.rows.items():
            boundaries[cols2[p]] = {cols2[k]: c for k, c in row.items()}
        reps = []
        for kv in kernel:
            if span.add(kv):
                reps.append({cols2[k]: c for k, c in kv.items()})
        cycles[D] = reps
    return H2Result(dims, cycles, monos2, degs2, boundaries, d2_rank)


# ---------------------------------------------------------------------------
# central extensions


class CentralExtension:
    def __init__(self, base, coefficients, cocycle, total, inject, project):
        self.base = base                  # L
        self.coefficients = coefficients  # trivial module H
        self.cocycle = cocycle            # g in Z^2(L, H)_0
        self.total = total                # E = L(g)
        self.inject = inject              # H -> E matrix
        self.project = project            # E -> L matrix

    def __repr__(self):
        return "CentralExtension(dim %d over dim %d, center %d)" % (
            self.total.dim,
            self.base.dim,
            self.coefficients.dim,
        )


def extension_from_cocycle(L, H: GradedModule, g: Cochain):
    """The algebra L(g) on L x H for a degree-zero 2-cocycle with values in
    the graded vector space H (carried as a trivial module)."""
    if g.level != 2 or g.module is not H:
        raise ExtensionError("need a 2-cochain with values in H")
    zero = L.group.zero()
    if not g.is_zero() and g.degree != zero:
        raise ExtensionError("extension cocycle must be homogeneous of degree zero")
    if any(not m.is_zero() for m in H.action):
        raise ExtensionError("H must carry the trivial action")
    nl = L.dim
    labels = list(L.labels) + ["c:%s" % lab for lab in H.labels]
    degrees = list(L.degrees) + list(H.degrees)
    brackets = {}
    for i in range(nl):
        for j in range(i, nl):
            vec = dict(L.bracket_basis(i, j))
            for h, c in evaluate(g, (i, j)).items():
                vec[nl + h] = c
            if vec:
                brackets[(i, j)] = vec
    E = EpsLieAlgebra(L.factor, labels, degrees, brackets)
    rep = E.validate()
    if not rep.ok:
        raise ExtensionError("extension failed validation: %r" % rep)
    inject = RationalSparseMatrix(
        E.dim, H.dim, {(nl + h, h): 1 for h in range(H.dim)}
    )
    project = RationalSparseMatrix(
        L.dim, E.dim, {(i, i): 1 for i in range(nl)}
    )
    return CentralExtension(L, H, g, E, inject, project)


def cocycle_from_section(E, L, project, section):
    """Cocycle of a central extension from a homogeneous linear section.

    project: E -> L, section: L -> E as matrices with project*section = id.
    Returns (cochain with values in ker(project), H-module)."""
    comp = project.multiply(section)
    if comp != RationalSparseMatrix.identity(L.dim):
        raise ExtensionError("not a section of the projection")
    seccols = section.columns()
    for j, col in enumerate(seccols):
        d = degree_of_vector(E.degrees, col)
        if d is not None and d != L.degrees[j]:
            raise ExtensionError("section is not homogeneous of degree zero")
    basis, hdegs, coords = graded_subquotient(E.degrees, project.kernel_basis(), SpanTracker())
    H = trivial(L, degrees=hdegs, labels=["k%d" % k for k in range(len(basis))])
    vals = {}
    for mono in sorted(M for ms in L.monomials_by_degree(2).values() for M in ms):
        i, j = mono
        w = E.bracket(seccols[i], seccols[j])
        vec_axpy(w, -1, section.apply(L.bracket_basis(i, j)))
        if not w:
            continue
        c = coords(w)
        if c is None:
            raise ExtensionError("section defect escapes the kernel of project")
        vals[mono] = c
    g = make_cochain(L, H, 2, vals)
    if not is_cocycle(g):
        raise ExtensionError("section defect is not a cocycle")
    if not g.is_zero() and g.degree != L.group.zero():
        raise ExtensionError("section defect is not of degree zero")
    return g, H


# ---------------------------------------------------------------------------
# universal coverings


class CoveringResult:
    def __init__(self, covering, projection, center_vectors, center_dims, h2_dims,
                 hat_reps, w_reps):
        self.covering = covering            # the perfect algebra L-hat
        self.projection = projection        # L-hat -> L matrix
        self.center_vectors = center_vectors  # kernel of projection, covering coords
        self.center_dims = center_dims      # degree -> dim
        self.h2_dims = h2_dims              # degree -> dim of H_2(L)
        self.hat_reps = hat_reps            # covering basis in L x W coords
        self.w_reps = w_reps                # pair monomial whose class is W's k-th vector

    def center_total(self):
        return sum(self.center_dims.values())

    def __repr__(self):
        return "CoveringResult(dim %d, center %d)" % (
            self.covering.dim,
            self.center_total(),
        )


def universal_covering(L):
    """Universal central covering of a perfect algebra.

    Constructed from the exterior square modulo the boundary image: the
    quotient carries a canonical degree-zero 2-cocycle, the derived
    subalgebra of the resulting extension is the covering, and its center
    over L has the graded dimensions of H_2(L)."""
    h2 = homology_h2(L)
    if h2.d2_rank != L.dim:
        raise NotPerfectError("algebra is not perfect; no covering exists")
    monos2 = h2.monomials
    image = h2.boundaries
    # the monomials off the pivots of im d3 span a complement W; it keeps
    # pivot order, which fixes the basis of the exported covering
    free = [p for p in range(len(monos2)) if p not in image]
    slot = {p: k for k, p in enumerate(free)}
    W = trivial(
        L,
        degrees=[h2.degrees[p] for p in free],
        labels=["w%d" % k for k in range(len(free))],
    )
    # the class of a monomial in W is its remainder modulo im d3
    vals = {}
    for p, mono in enumerate(monos2):
        rem = vec_axpy({p: 1}, -1, image.get(p, {}))
        if rem:
            vals[mono] = {slot[q]: c for q, c in sorted(rem.items())}
    f = make_cochain(L, W, 2, vals)
    E = extension_from_cocycle(L, W, f).total

    derived = E.derived_subalgebra()
    Lhat, hat_reps = E.subquotient(derived, (), label_prefix="^")
    nl = L.dim
    proj = RationalSparseMatrix.from_columns(
        [{r: val for r, val in v.items() if r < nl} for v in hat_reps], nl)
    # center part: elements of the derived span supported on the W block
    center_vecs = proj.kernel_basis()
    center_dims = {}
    for v in center_vecs:
        d = degree_of_vector(Lhat.degrees, v)
        center_dims[d] = center_dims.get(d, 0) + 1
    center_dims = dict(sorted(center_dims.items()))
    if proj.rank() != nl:
        raise ExtensionError("covering projection is not surjective")
    if Lhat.homomorphism_defect(L, proj):
        raise ExtensionError("covering projection is not a homomorphism")
    if not Lhat.is_perfect():
        raise ExtensionError("covering is not perfect")
    center_span = SpanTracker(Lhat.center())
    for v in center_vecs:
        if not center_span.contains(v):
            raise ExtensionError("projection kernel is not central")

    h2_dims = h2.graded_dims()
    if h2_dims != {d: n for d, n in center_dims.items() if n}:
        raise ExtensionError(
            "covering center %r does not match H_2 %r" % (center_dims, h2_dims)
        )
    return CoveringResult(
        Lhat, proj, center_vecs, center_dims, h2_dims, hat_reps,
        [monos2[p] for p in free],
    )


def covering_from_h2_basis(L, cocycles):
    """Central extension built from an independent basis of second-cohomology
    classes with trivial coefficients; dual-degree one-dimensional summands."""
    if not cocycles:
        H = trivial(L, degrees=[], labels=[])
        zero = make_cochain(L, H, 2, {})
        return extension_from_cocycle(L, H, zero)
    g = L.group
    cx = CochainComplex(L, cocycles[0].module, 2)
    # per class degree, the coboundaries from one elimination of the columns
    # of that sector's delta^1 block
    spans = {}
    for gr_ in cocycles:
        if gr_.level != 2 or gr_.module.degrees != [g.zero()]:
            raise ExtensionError("need scalar-valued 2-cocycles of module degree zero")
        if gr_.is_zero():
            raise ExtensionError("cohomology classes are not independent")
        if gr_.degree is None:
            raise ExtensionError("a cohomology class must be homogeneous")
        if not is_cocycle(gr_):
            raise ExtensionError("class input is not a cocycle")
        span = spans.get(gr_.degree)
        if span is None:
            block = cx.delta_sector(1, gr_.degree).transpose()
            span = spans[gr_.degree] = SpanTracker.of_rref(*block.rref())
        if not span.add(cx.cochain_vector(gr_)):
            raise ExtensionError("cohomology classes are not independent")
    H = trivial(
        L,
        degrees=[g.neg(gr_.degree) for gr_ in cocycles],
        labels=["z%d" % k for k in range(len(cocycles))],
    )
    vals = {}
    for r, gr_ in enumerate(cocycles):
        for mono, v in gr_.values.items():
            vals.setdefault(mono, {})[r] = v[0]
    combined = make_cochain(L, H, 2, vals)
    return extension_from_cocycle(L, H, combined)


def covering_morphism(cov: CoveringResult, ext: CentralExtension):
    """The unique morphism from a universal covering to a central extension,
    as a matrix covering.covering -> ext.total; determined by sending the
    class of A^B to g(A, B)."""
    nl = ext.base.dim
    g = ext.cocycle
    cols = []
    for rep in cov.hat_reps:
        col = {r: val for r, val in rep.items() if r < nl}
        for r, val in rep.items():
            if r >= nl:
                # W coordinate: g on the pair monomial of that W vector
                hval = evaluate(g, cov.w_reps[r - nl])
                vec_axpy(col, val, {nl + h: ch for h, ch in hval.items()})
        cols.append(col)
    return RationalSparseMatrix.from_columns(cols, ext.total.dim)


def h2_pairing_check(L):
    """dim H_2(L) at degree d equals dim H^2(L, K) at degree -d, per sector;
    both sides read the torus of one complex."""
    g = L.group
    cx = CochainComplex(L, trivial(L), 2)
    h2 = homology_h2(L, cx).graded_dims()
    coh = cx.cohomology()
    cohdims = {d: t[2] for d, t in coh.sector_table(2)}
    flipped = {g.neg(d): n for d, n in cohdims.items()}
    return h2 == flipped
