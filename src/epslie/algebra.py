"""Color Lie algebras / Lie superalgebras with exact structure constants.

An algebra is a homogeneous basis (labels + degrees over a commutation
factor) together with sparse rational structure constants.  The given
upper triangle (i <= j) is kept as `table`.  The brackets are read from one
sparse table of both triangles, built with the algebra: the skew-symmetry
rule <A,B> = -eps(a,b) <B,A> writes each stored bracket's mirror there once,
so skew-symmetry holds by construction once the input is consistent.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from . import exterior
from .exactlin import (
    RationalSparseMatrix,
    SpanTracker,
    rows_kernel,
    vec_axpy,
    vec_rational,
)
from .grading import CommutationFactor

_NO_TERMS = MappingProxyType({})  # the bracket of a pair with no entry, shared: read-only


class AlgebraError(ValueError):
    pass


def degree_of_vector(degrees, vec):
    """Common degree of a homogeneous vector; None for zero, error if mixed."""
    deg = None
    for i, c in vec.items():
        if not c:
            continue
        d = degrees[i]
        if deg is None:
            deg = d
        elif deg != d:
            raise AlgebraError("vector is not homogeneous: degrees %s and %s" % (deg, d))
    return deg


def split_components(degrees, vec):
    """Homogeneous components of a vector, keyed by degree."""
    parts = {}
    for i, c in vec.items():
        if c:
            parts.setdefault(degrees[i], {})[i] = c
    return parts


def graded_subquotient(degrees, vectors, divisor):
    """The one routine that turns spanning vectors into an ordered basis:
    the span of homogeneous vectors modulo the span held by the SpanTracker
    divisor (an empty tracker for a plain subspace).

    Returns (basis, basis_degrees, coords).  The basis is the reduced echelon
    basis ordered by (degree, pivot); coords(vec) is {slot: coeff} for vec
    modulo divisor, or None when vec leaves the span.  Zero vectors are
    skipped and a mixed vector raises AlgebraError.  graded_echelon and
    graded_kernel are its special cases.
    """
    comp = SpanTracker()
    for v in vectors:
        v = vec_rational(v)  # rejects a float, even 0.0
        degree_of_vector(degrees, v)  # rejects a mixed vector
        comp.add(divisor.reduce(v) if divisor.rows else v)
    deg = {p: degree_of_vector(degrees, row) for p, row in comp.rows.items()}
    pivots = sorted(comp.rows, key=lambda p: (deg[p], p))
    slot = {p: a for a, p in enumerate(pivots)}

    def coords(vec):
        c, rem = comp.express(divisor.reduce(vec) if divisor.rows else vec)
        if rem:
            return None
        return {slot[p]: x for p, x in c.items()}

    return [dict(comp.rows[p]) for p in pivots], [deg[p] for p in pivots], coords


def graded_echelon(degrees, vectors):
    """Echelon basis of a span of homogeneous vectors, ordered by (degree,
    pivot).  Vectors of different degrees have disjoint supports, so its rows
    are those of one echelon basis per degree."""
    return graded_subquotient(degrees, vectors, SpanTracker())[0]


def graded_kernel(degrees, operators):
    """Echelon basis of the common kernel of homogeneous operators, matrices
    whose columns are the basis; no operators give the whole space.

    Each row of a homogeneous operator reads the columns of one degree, so
    the rows go to the block of their column degree and the kernel is
    solved one block per degree.  A row that mixes column degrees raises
    AlgebraError."""
    cols = {}  # degree -> its columns, in basis order
    for k, d in enumerate(degrees):
        cols.setdefault(d, []).append(k)
    at = {k: j for ks in cols.values() for j, k in enumerate(ks)}
    rows = {d: [] for d in cols}
    for row in (row for m in operators for row in m.row_dicts() if row):
        rows[degree_of_vector(degrees, row)].append({at[k]: c for k, c in row.items()})
    return graded_echelon(degrees, [{ks[j]: c for j, c in v.items()} for d, ks in
                                    cols.items() for v in rows_kernel(rows[d], len(ks))])


class ValidationReport:
    def __init__(self):
        self.problems = []

    @property
    def ok(self):
        return not self.problems

    def note(self, kind, where, detail):
        self.problems.append((kind, where, detail))

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%d problems; first: %s)" % (
            len(self.problems),
            self.problems[0],
        )


class EpsLieAlgebra:
    def __init__(self, factor: CommutationFactor, labels, degrees, brackets):
        """brackets: {(i, j): {k: coeff}}; either triangle may be given, but
        when both are present they must agree under skew-symmetry."""
        self.factor = factor
        self.group = factor.group
        self.labels = list(labels)
        self.degrees = [self.group.degree(d) for d in degrees]
        if len(self.labels) != len(self.degrees):
            raise AlgebraError("labels and degrees length mismatch")
        self.signs = factor.sign_table(self.degrees, self.degrees)
        n = len(self.labels)
        table = {}
        # rows[i][j]: the nonzero <e_i, e_j>, from either triangle
        rows = [{} for _ in range(n)]
        for (i, j), vec in brackets.items():
            if not (0 <= i < n and 0 <= j < n):
                raise AlgebraError("bracket index out of range: (%d,%d)" % (i, j))
            vec = vec_rational(vec)
            for k in vec:
                if not 0 <= k < n:
                    raise AlgebraError("bracket term index out of range: %d" % k)
            e = self.signs[i][j]
            mirror = {k: -e * c for k, c in vec.items()}  # <e_j, e_i>
            key, val = ((i, j), vec) if i <= j else ((j, i), mirror)
            if key in table:
                if table[key] != val:
                    raise AlgebraError(
                        "inconsistent skew pair for %s,%s" % (self.labels[i], self.labels[j])
                    )
                continue
            table[key] = val
            if vec:
                rows[j][i] = mirror
                rows[i][j] = vec  # on the diagonal, the bracket as given
        self.table = table
        self._brackets = rows
        # (degree, degree) -> their sum; level -> monomials_by_degree(level)
        self.degree_sums = {}
        self._monomial_tables = {}

    @property
    def dim(self):
        return len(self.labels)

    def parity(self, i):
        return self.signs[i][i]

    def bracket_basis(self, i, j):
        """<e_i, e_j> as {k: nonzero coeff}, the table's own entry: read only."""
        return self._brackets[i].get(j, _NO_TERMS)

    def bracket(self, x, y):
        out = {}
        for i, a in x.items():
            if not a:
                continue
            for j, b in y.items():
                c = a * b
                if c:
                    vec_axpy(out, c, self.bracket_basis(i, j))
        return out

    @cached_property
    def bracket_terms(self):
        """bracket_terms[i][j]: the terms (k, c) of <e_i, e_j> as stored in the
        table (c an int when integral), a dense view built once per algebra.
        The coboundary assembly (_sub_terms) indexes it in its innermost
        loop, where a tuple is walked faster than the table's dicts are
        looked up; reading the dicts there measured slower."""
        return [[tuple(row.get(j, _NO_TERMS).items()) for j in range(self.dim)]
                for row in self._brackets]

    @cached_property
    def bracket_preimages(self):
        """bracket_preimages[k]: the triples (a, b, c) with a <= b and c != 0
        the coefficient of e_k in <e_a, e_b>, sorted by (a, b); the brackets
        that produce e_k, read once per algebra."""
        out = [[] for _ in range(self.dim)]
        for (a, b), vec in sorted(self.table.items()):
            for k, c in vec.items():
                out[k].append((a, b, c))
        return out

    def monomials_by_degree(self, n):
        """{deg M: [canonical n-monomials M, in basis order]}, from
        exterior.basis_by_degree; built once per algebra and level."""
        if n not in self._monomial_tables:
            self._monomial_tables[n] = exterior.basis_by_degree(
                self.signs, n, self.group, self.degrees, self.degree_sums
            )
        return self._monomial_tables[n]

    def ad_matrix(self, i):
        """Matrix of <e_i, .> in the basis, as {(row, col): coeff} by column."""
        row = self._brackets[i]
        return {(k, j): c for j in sorted(row) for k, c in row[j].items()}

    # ------------------------------------------------------------------ checks

    def validate(self):
        """Exact check of homogeneity, skew-symmetry and the Jacobi identity.

        Jacobi is checked as the adjoint derivation identity
            <e_i,<e_j,e_k>> = <<e_i,e_j>,e_k> + eps(i,j) <e_j,<e_i,e_k>>
        on every (i, j, k >= j).  With homogeneous brackets and
        <e_a,e_b> = -eps(a,b) <e_b,e_a>, its defect is, up to sign, the
        eps-Jacobiator, which is eps-alternating: it vanishes on every such
        triple iff it vanishes on the sorted ones, i <= j <= k.  So the
        sorted triples are checked first, up to the first failure, and the
        full listing runs, to report every failing triple, only when that
        pass fails or a homogeneity or skew-symmetry problem was noted.
        """
        rep = ValidationReport()
        g = self.group
        for (i, j), vec in sorted(self.table.items()):
            want = g.add(self.degrees[i], self.degrees[j])
            for k, c in vec.items():
                if self.degrees[k] != want:
                    rep.note(
                        "homogeneity",
                        (self.labels[i], self.labels[j]),
                        "component %s has degree %s, expected %s"
                        % (self.labels[k], self.degrees[k], want),
                    )
        for i, row in enumerate(self._brackets):
            if self.parity(i) == 1 and i in row:
                rep.note(
                    "skew-symmetry",
                    (self.labels[i], self.labels[i]),
                    "even element with nonzero self-bracket",
                )
        if rep.problems or next(self._jacobi_failures(sorted_only=True), None):
            for i, j, k in self._jacobi_failures(sorted_only=False):
                rep.note(
                    "jacobi",
                    (self.labels[i], self.labels[j], self.labels[k]),
                    "adjoint derivation identity fails",
                )
        return rep

    def _jacobi_failures(self, sorted_only):
        """The triples (i, j, k), k >= j, on which the adjoint derivation
        identity of validate fails, in order; with sorted_only, only those
        with j >= i.  A generator, so that a caller may stop at the first.

        Only nonzero structure constants are joined, read from the table of
        both triangles: row[a][b] is <e_a,e_b>, the column entries
        <e_j,e_m> are row[j][m] for the j in row[m] (the same support, by
        skew-symmetry), and bracket_preimages[m] lists the brackets
        <e_j,e_k>, j <= k, that produce e_m."""
        row, made = self._brackets, self.bracket_preimages
        for i in range(self.dim):
            lo = i if sorted_only else 0  # the least j of a checked triple
            sign = self.signs[i]
            defect = {}  # (j, k, p) -> coefficient of e_p in lhs - rhs
            for m, t in row[i].items():
                for j, k, c in made[m]:
                    if j >= lo:
                        for p, x in t.items():
                            defect[(j, k, p)] = defect.get((j, k, p), 0) + c * x
            for j, t in row[i].items():
                if j >= lo:
                    for m, a in t.items():
                        for k, u in row[m].items():
                            if k >= j:
                                for p, x in u.items():
                                    defect[(j, k, p)] = defect.get((j, k, p), 0) - a * x
            for k, t in row[i].items():
                if k >= lo:
                    for m, a in t.items():
                        for j in row[m]:
                            if lo <= j <= k:
                                s = sign[j] * a
                                for p, x in row[j][m].items():
                                    defect[(j, k, p)] = defect.get((j, k, p), 0) - s * x
            for j, k in sorted({(j, k) for (j, k, _), v in defect.items() if v}):
                yield i, j, k

    # -------------------------------------------------------------- structure

    def derived_subalgebra(self):
        return graded_echelon(self.degrees, [vec for _, vec in sorted(self.table.items())])

    def is_perfect(self):
        return len(self.derived_subalgebra()) == self.dim

    def center(self):
        """Echelon basis of {x : <e_i, x> = 0 for all i}."""
        n = self.dim
        ads = [RationalSparseMatrix(n, n, self.ad_matrix(i)) for i in range(n)]
        return graded_kernel(self.degrees, ads)

    # ------------------------------------------------------------ subquotients

    def subquotient(self, sub_vectors, ideal_vectors=(), label_prefix=""):
        """Quotient of the subalgebra spanned by sub_vectors by the ideal
        spanned by ideal_vectors.  All spanning vectors must be homogeneous;
        closure of the span and invariance of the ideal are verified.

        Returns (algebra, representatives) where representatives[a] is the
        parent-coordinate vector representing new basis element a.
        """
        sub = graded_echelon(self.degrees, sub_vectors)
        ideal = graded_echelon(self.degrees, ideal_vectors)
        ideal_span = SpanTracker(ideal)
        reps, rep_deg, coords = graded_subquotient(self.degrees, sub, ideal_span)
        # dim(sub + ideal) = len(reps) + len(ideal), which is len(sub)
        # exactly when the ideal lies in sub
        if len(reps) + len(ideal) != len(sub):
            raise AlgebraError("ideal is not contained in the subalgebra")
        for a in sub:
            for b in ideal:
                if not ideal_span.contains(self.bracket(a, b)):
                    raise AlgebraError("ideal_vectors do not span an ideal")

        labels = ["%s[%s]" % (label_prefix, self.labels[min(v)]) for v in reps]
        # The span is span(reps) + ideal, the ideal is checked above, and the
        # representatives are homogeneous, so <b,a> = -eps(a,b)<a,b>: the one
        # bracket per unordered pair of the table decides closure.
        brackets = {}
        for a in range(len(reps)):
            for b in range(a, len(reps)):
                w = coords(self.bracket(reps[a], reps[b]))
                if w is None:
                    raise AlgebraError("sub_vectors do not span a subalgebra")
                if w:
                    brackets[(a, b)] = w
        out = EpsLieAlgebra(self.factor, labels, rep_deg, brackets)
        report = out.validate()
        if not report.ok:
            raise AlgebraError("subquotient failed validation: %r" % report)
        return out, reps

    # ------------------------------------------------------------------- maps

    def homomorphism_defect(self, other, matrix):
        """Pairs (i, j) where the linear map given by matrix (columns = images
        of this algebra's basis, as vectors over other's basis) fails
        phi<x,y> = <phi x, phi y>; empty list means homomorphism."""
        cols = matrix.columns()
        return [(i, j) for i in range(self.dim) for j in range(i, self.dim)
                if matrix.apply(self.bracket_basis(i, j)) != other.bracket(cols[i], cols[j])]
