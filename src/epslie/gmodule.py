"""Finite-dimensional graded modules over a color Lie algebra.

A module is a homogeneous basis plus one representation matrix per algebra
basis element.  All constructions (duals, tensors, shifts, sub/quotients,
eps-symmetric and eps-skew powers) carry the grading and the
commutation-factor signs; validate() checks homogeneity and bracket
compatibility exactly.  Intertwiners are invariants: the maps V -> W of
degree phi are the degree-phi invariants of Hom(V, W) = W ⊗ V*, and
intertwiner_defect is the one check of the eps-intertwining condition.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm, prod

from .algebra import (
    AlgebraError,
    EpsLieAlgebra,
    ValidationReport,
    graded_echelon,
    graded_kernel,
    graded_subquotient,
    split_components,
)
from .exactlin import (
    RationalSparseMatrix,
    SpanTracker,
    rational,
    rows_kernel,
    vec_axpy,
    vec_clean,
)
from . import exterior


class ModuleError(ValueError):
    pass


class GradedModule:
    """A homogeneous basis (labels, degrees) with one action matrix per
    algebra basis element.  Submodules and eps-powers also carry their
    embedding into the ambient module; no other map is kept."""

    def __init__(self, algebra: EpsLieAlgebra, labels, degrees, action,
                 embedding=None):
        self.algebra = algebra
        self.group = algebra.group
        self.factor = algebra.factor
        self.labels = list(labels)
        self.degrees = [self.group.degree(d) for d in degrees]
        self.action = list(action)
        if len(self.labels) != len(self.degrees):
            raise ModuleError("labels and degrees length mismatch")
        if len(self.action) != algebra.dim:
            raise ModuleError("need one action matrix per algebra basis element")
        d = len(self.labels)
        for m in self.action:
            if (m.rows, m.cols) != (d, d):
                raise ModuleError("action matrix shape mismatch")
        self._embedding = embedding
        # signs[i][w] = eps(deg e_i, deg v_w) for algebra basis e_i
        self.signs = self.factor.sign_table(algebra.degrees, self.degrees)

    @property
    def dim(self):
        return len(self.labels)

    @property
    def embedding(self):
        """Columns = basis vectors in ambient coordinates, or None.  An
        embedding given as a function is built on first read."""
        if callable(self._embedding):
            self._embedding = self._embedding()
        return self._embedding

    @cached_property
    def torus(self):
        """inner_torus(self), solved on the first read: the cochain complexes
        and the invariant forms on this module share it."""
        return inner_torus(self)

    def apply_basis(self, i, vec):
        return self.action[i].apply(vec)

    def action_matrix(self, avec):
        """Matrix of rho(x) = sum c_j rho(e_j) for an algebra vector x."""
        ent = {}
        for j, c in avec.items():
            vec_axpy(ent, c, self.action[j].entries)
        return RationalSparseMatrix(self.dim, self.dim, ent)

    def validate(self):
        rep = ValidationReport()
        g = self.group
        L = self.algebra
        for i, m in enumerate(self.action):
            for (r, c), v in m.entries.items():
                want = g.add(L.degrees[i], self.degrees[c])
                if g.reduce(self.degrees[r]) != want:
                    rep.note(
                        "homogeneity",
                        (L.labels[i], self.labels[c]),
                        "lands on %s of degree %s, expected %s"
                        % (self.labels[r], self.degrees[r], want),
                    )
        for i in range(L.dim):
            for j in range(i, L.dim):
                lhs = self.action_matrix(L.bracket_basis(i, j))
                e = L.signs[i][j]
                rhs = self.action[i].multiply(self.action[j]).sub(
                    self.action[j].multiply(self.action[i]).scale(e)
                )
                if lhs != rhs:
                    rep.note(
                        "bracket-compatibility",
                        (L.labels[i], L.labels[j]),
                        "rho(<A,B>) != rho(A)rho(B) - eps rho(B)rho(A)",
                    )
        return rep

    def __repr__(self):
        return "GradedModule(dim %d over dim-%d algebra)" % (self.dim, self.algebra.dim)


# ---------------------------------------------------------------------------
# constructions


def trivial(L, labels=None, degrees=None):
    """Trivial module on the given degrees; by default one-dimensional, of
    degree zero."""
    if degrees is None:
        degrees = [L.group.zero()]
    if labels is None:
        labels = ["1"] if len(degrees) == 1 else ["u%d" % k for k in range(len(degrees))]
    zero = RationalSparseMatrix(len(degrees), len(degrees))
    return GradedModule(L, labels, degrees, [zero] * L.dim)


def adjoint(L):
    mats = [RationalSparseMatrix(L.dim, L.dim, L.ad_matrix(i)) for i in range(L.dim)]
    return GradedModule(L, list(L.labels), list(L.degrees), mats)


def dual(V):
    """Graded contragredient: (A.f)(x) = -eps(alpha, phi) f(A.x) for f of
    degree phi, which makes the pairing invariant."""
    L = V.algebra
    g = V.group
    degrees = [g.neg(d) for d in V.degrees]
    mats = []
    for i in range(L.dim):
        ent = {}
        for (r, c), v in V.action[i].entries.items():
            # e_i . f_r  has  (e_i . f_r)(x_c-image ...) : transpose with sign
            ent[(c, r)] = -V.signs[i][r] * v
        mats.append(RationalSparseMatrix(V.dim, V.dim, ent))
    labels = [lab + "'" for lab in V.labels]
    return GradedModule(L, labels, degrees, mats)


def coadjoint(L):
    return dual(adjoint(L))


def tensor(V, W):
    if V.algebra is not W.algebra:
        raise ModuleError("tensor factors live over different algebras")
    L = V.algebra
    g = V.group
    dv, dw = V.dim, W.dim
    labels = []
    degrees = []
    for a in range(dv):
        for b in range(dw):
            labels.append("%s⊗%s" % (V.labels[a], W.labels[b]))
            degrees.append(g.add(V.degrees[a], W.degrees[b]))
    mats = []
    for i in range(L.dim):
        ent = {}
        for (a2, a), v in V.action[i].entries.items():
            for b in range(dw):
                ent[(a2 * dw + b, a * dw + b)] = ent.get((a2 * dw + b, a * dw + b), 0) + v
        for (b2, b), v in W.action[i].entries.items():
            for a in range(dv):
                key = (a * dw + b2, a * dw + b)
                ent[key] = ent.get(key, 0) + V.signs[i][a] * v
        mats.append(RationalSparseMatrix(dv * dw, dv * dw, {k: v for k, v in ent.items() if v}))
    return GradedModule(L, labels, degrees, mats)


def direct_sum(V, W):
    if V.algebra is not W.algebra:
        raise ModuleError("summands live over different algebras")
    labels = list(V.labels) + list(W.labels)
    degrees = list(V.degrees) + list(W.degrees)
    mats = [
        RationalSparseMatrix.block_diag([V.action[i], W.action[i]])
        for i in range(V.algebra.dim)
    ]
    return GradedModule(V.algebra, labels, degrees, mats)


def shift(V, sigma):
    """Gradation shift: a vector of degree d gets degree d - sigma; the
    action is unchanged."""
    g = V.group
    sigma = g.reduce(sigma)
    degrees = [g.sub(d, sigma) for d in V.degrees]
    return GradedModule(V.algebra, list(V.labels), degrees, list(V.action))


def twist(V, omega_matrix):
    """Module with action rho(omega(e_i)): pull-back along an algebra
    endomorphism given by columns in the basis."""
    mats = [V.action_matrix(col) for col in omega_matrix.columns()]
    return GradedModule(V.algebra, list(V.labels), list(V.degrees), mats)


# ---------------------------------------------------------------------------
# subspaces


def invariants_subspace(V):
    """Echelon basis of the simultaneous kernel of the action (= H^0)."""
    return graded_kernel(V.group, V.degrees, V.action)


def _action_on(V, basis, coords):
    """Action matrices of V on a basis whose coords locate vectors in it; a
    vector that leaves the span raises ModuleError."""
    mats = []
    for i in range(V.algebra.dim):
        cols = [coords(V.apply_basis(i, b)) for b in basis]
        if None in cols:
            raise ModuleError("span is not invariant under %s" % V.algebra.labels[i])
        mats.append(RationalSparseMatrix.from_columns(cols, len(basis)))
    return mats


def submodule_span(V, vectors):
    """Submodule on an invariant homogeneous span; raises when the span is
    not invariant.  Basis is the deterministic graded echelon of the span."""
    basis, deg, coords = graded_subquotient(V.group, V.degrees, vectors, SpanTracker())
    mats = _action_on(V, basis, coords)
    labels = []
    for b in basis:
        lead = V.labels[min(b)]
        labels.append(lead if len(b) == 1 else "(%s+…)" % lead)
    emb = RationalSparseMatrix.from_columns(basis, V.dim)
    return GradedModule(V.algebra, labels, deg, mats, embedding=emb)


def submodule_generated(V, vectors):
    """Closure of the given homogeneous vectors under the action."""
    tracker = SpanTracker()
    work = []
    for v in vectors:
        for comp in split_components(V.group, V.degrees, vec_clean(v)).values():
            if tracker.add(comp):
                work.append(comp)
    while work:
        v = work.pop()
        for i in range(V.algebra.dim):
            w = V.apply_basis(i, v)
            if w and tracker.add(w):
                work.append(w)
    return submodule_span(V, tracker.basis())


def quotient(V, sub_vectors):
    """Quotient by an invariant homogeneous subspace."""
    sub = graded_echelon(V.group, V.degrees, sub_vectors)
    span = SpanTracker(sub)
    for i in range(V.algebra.dim):
        for b in sub:
            if not span.contains(V.apply_basis(i, b)):
                raise ModuleError("quotient by a non-invariant subspace")
    reps, deg, coords = graded_subquotient(
        V.group, V.degrees, [{a: 1} for a in range(V.dim)], span
    )
    labels = ["[%s]" % V.labels[min(r)] for r in reps]
    return GradedModule(V.algebra, labels, deg, _action_on(V, reps, coords))


def power_monomials(V, k, sym):
    """(sign table, monomials, degrees, P) of the k-th eps-skew (sym=False)
    or eps-symmetric (sym=True, negated table) power of V: its canonical
    k-monomials m ordered by (degree, m), and P(m) = prod(multiplicity!),
    so that m has k! / P(m) distinct arrangements."""
    table = V.factor.sign_table(V.degrees, V.degrees)
    if sym:
        table = [[-s for s in row] for row in table]
    by_deg = exterior.basis_by_degree(table, k, V.group, V.degrees)
    degrees = [d for d in sorted(by_deg) for _ in by_deg[d]]
    monos = [m for d in sorted(by_deg) for m in by_deg[d]]
    return table, monos, degrees, [prod(map(factorial, Counter(m).values())) for m in monos]


def leibniz_rows(V, table, monos, weights, sources):
    """Per algebra basis element e_i, (den, rows) for the Leibniz action
    e_i . m = sum_t prefix_t m[:t] (e_i . m[t]) m[t+1:] with
    prefix_t = prod_{s<t} V.signs[i][m[s]] on the source monomials m of
    sources[i]: den > 0 is the common denominator of rho(e_i), and the row
    of m holds the integers {b: sum of den * prefix_t * s * v * weights[b]}
    over the terms, each canonicalized to s monos[b].  Every term must
    canonicalize into monos.  Each distinct term is canonicalized once.
    With table None the monomials are the ordered tuples of the full tensor
    power, and each term is its own basis element."""
    pos = {m: b for b, m in enumerate(monos)}
    canon = {}
    for i, src in enumerate(sources):
        cols = V.action[i].columns()
        den = lcm(*[v.denominator for col in cols for v in col.values()])
        acts = [{r: v.numerator * (den // v.denominator) for r, v in col.items()}
                for col in cols]
        rows = []
        for m in src:
            row = {}
            prefix = 1
            for t, c in enumerate(m):
                for r, v in acts[c].items():
                    term = m[:t] + (r,) + m[t + 1:]
                    if term not in canon:
                        s, m2 = (1, term) if table is None else exterior.canonicalize(table, term)
                        canon[term] = s, pos[m2] if s else None
                    s, b = canon[term]
                    if s:
                        row[b] = row.get(b, 0) + prefix * s * v * weights[b]
                prefix *= V.signs[i][c]
            rows.append({b: x for b, x in row.items() if x})
        yield den, rows


def eps_power(V, k, sym):
    """The k-th eps-skew (sym=False) or eps-symmetric (sym=True) power of V.

    Basis: the monomials of power_monomials.  Monomial m is the tensor with
    the canonicalize sign at each distinct arrangement of m, the
    (skew)symmetrization of m over P(m).  The action is read off
    leibniz_rows weighted by P: entry (b, a) is row a's value at b divided
    by den * P(m_a).  The `embedding` into tensor-power coordinates (the
    arrangements of each monomial) is built when it is first read.
    """
    if k < 1:
        raise ModuleError("need k >= 1")
    table, monos, degrees, repeats = power_monomials(V, k, sym)
    labels = ["⊗".join(V.labels[x] for x in m) for m in monos]
    labels = [lab if m[0] == m[-1] else "(%s+…)" % lab for m, lab in zip(monos, labels)]
    mats = [RationalSparseMatrix(len(monos), len(monos), {
        (b, a): Fraction(x, den * repeats[a]) for a, row in enumerate(rows) for b, x in row.items()
    }) for den, rows in leibniz_rows(V, table, monos, repeats, [monos] * V.algebra.dim)]

    def embedding():
        return RationalSparseMatrix.from_columns([
            {sum(x * V.dim ** (k - 1 - t) for t, x in enumerate(arr)): s
             for s, arr in exterior.arrangements(table, m)} for m in monos], V.dim ** k)

    return GradedModule(V.algebra, labels, degrees, mats, embedding=embedding)


# ---------------------------------------------------------------------------
# weights and intertwiners


def weight_spaces(V, cartan_vectors):
    """Weight spaces of commuting algebra vectors h_1..h_k that act
    diagonally on V's basis.

    Returns {(rho(h_1)[a,a], .., rho(h_k)[a,a]): [{a: 1}, ..]}, keys sorted
    and vectors in basis order; raises ModuleError when some rho(h) has an
    off-diagonal entry.  Submodules and quotients of such a module keep
    weight bases, since reduced echelon bases stay inside coordinate blocks.
    """
    ops = [V.action_matrix(av) for av in cartan_vectors]
    for op in ops:
        if any(r != c for r, c in op.entries):
            raise ModuleError("rho(h) is not diagonal on the basis of V")
    spaces = {}
    for a in range(V.dim):
        spaces.setdefault(tuple(op.get(a, a) for op in ops), []).append({a: 1})
    return dict(sorted(spaces.items()))


def torus_weight(chi, deg):
    """chi(deg) for chi given on the free coordinates, which come first in a
    degree; chi is zero on torsion."""
    return sum(c * d for c, d in zip(chi, deg) if c and d)


def torus_defect(V, x, chi):
    """Where x fails to be an inner torus element of weight chi on V, or None.

    x must be a vector over the degree-0 basis elements of L and chi hold one
    rational per free coordinate of the grading group.  ad x must be
    diagonal on L's basis with eigenvalue chi(deg e_i), and rho(x) diagonal
    on V's basis with eigenvalue chi(deg v_w); every entry is checked."""
    L = V.algebra
    if len(chi) != L.group.free_rank:
        return "chi has %d values, expected %d" % (len(chi), L.group.free_rank)
    zero = L.group.zero()
    if any(c and L.degrees[j] != zero for j, c in x.items()):
        return "x has a component of nonzero degree"
    ad = {}
    for j, c in x.items():
        vec_axpy(ad, c, L.ad_matrix(j))
    for what, degrees, op in (
        ("ad x on L", L.degrees, ad),
        ("rho(x) on V", V.degrees, V.action_matrix(x).entries),
    ):
        want = {(b, b): torus_weight(chi, d) for b, d in enumerate(degrees)}
        if vec_clean(op) != vec_clean(want):
            return "%s is not chi(deg) times the identity" % what
    return None


def inner_torus(V):
    """Verified pairs (x, chi): x in the degree-0 span of L, chi additive on
    the grading group and zero on torsion, with ad x and rho(x) diagonal on
    the bases of L and V and eigenvalue chi(deg) on each basis vector.

    The pairs solve one linear system in the coefficients of x and the
    values of chi.  They are the reduced echelon basis of its solutions,
    keeping those where x acts as nonzero.  Pairs are checked by
    torus_defect before they are returned; an empty list means no inner
    torus, e.g. for a module on which no degree-0 element acts diagonally."""
    L = V.algebra
    zero = L.group.zero()
    span = [j for j in range(L.dim) if L.degrees[j] == zero]
    rank = L.group.free_rank
    if not span or not rank:
        return []
    # unknowns: the coefficient of e_span[u] at u, chi_t at len(span) + t;
    # rows: (space, row, col) of sum_u c_u M_u - diag(chi(deg)) = 0
    rows = {}
    for space, degrees, mats in (
        (0, L.degrees, [L.ad_matrix(j) for j in span]),
        (1, V.degrees, [V.action[j].entries for j in span]),
    ):
        for u, mat in enumerate(mats):
            for (r, b), c in mat.items():
                rows.setdefault((space, r, b), {})[u] = c
        for b, d in enumerate(degrees):
            for t in range(rank):
                if d[t]:
                    rows.setdefault((space, b, b), {})[len(span) + t] = -d[t]
    pairs = []
    for sol in SpanTracker(rows_kernel(list(rows.values()), len(span) + rank)).basis():
        if min(sol) >= len(span):
            break  # sorted by pivot: the rest have x = 0
        x = {span[u]: c for u, c in sol.items() if u < len(span)}
        chi = tuple(rational(sol.get(len(span) + t, 0)) for t in range(rank))
        if not any(torus_weight(chi, d) for d in L.degrees + V.degrees):
            continue  # x acts as zero on L and V
        defect = torus_defect(V, x, chi)
        if defect is not None:
            raise ModuleError("inner torus solution fails its check: %s" % defect)
        pairs.append((x, chi))
    return pairs


def intertwiner_space(V, W, phi_degree):
    """Reduced echelon basis of the graded-invariant maps V -> W of degree
    phi: the degree-phi invariants of Hom(V, W) = tensor(W, dual(V)), whose
    basis vector w_a ⊗ v_c' at a * V.dim + c is the matrix entry (a, c).

    Only the degree-phi columns of the action on W ⊗ V* are built, straight
    from rho_W and rho_V*: e_i (w_a ⊗ v_c') is (e_i w_a) ⊗ v_c' plus
    eps(alpha_i, deg w_a) w_a ⊗ (e_i v_c'), where e_i v_c' has the entry
    -eps(alpha_i, deg v_c) rho_V(e_i)[c, c2] at v_c2'."""
    if V.algebra is not W.algebra:
        raise ModuleError("tensor factors live over different algebras")
    g = V.group
    phi = g.reduce(phi_degree)
    dv = V.dim
    cols = [(a, c) for a, da in enumerate(W.degrees) for c, dc in enumerate(V.degrees)
            if g.sub(da, dc) == phi]
    ops = []
    for i, (rho_w, rho_v) in enumerate(zip(W.action, V.action)):
        w_cols, v_rows = rho_w.columns(), rho_v.row_dicts()
        ent = {}
        for j, (a, c) in enumerate(cols):
            for a2, x in w_cols[a].items():
                ent[(a2 * dv + c, j)] = x
            e = -W.signs[i][a] * V.signs[i][c]
            for c2, x in v_rows[c].items():
                ent[(a * dv + c2, j)] = ent.get((a * dv + c2, j), 0) + e * x
        ops.append(RationalSparseMatrix(W.dim * dv, len(cols), ent))
    return [RationalSparseMatrix(W.dim, dv, {cols[j]: c for j, c in vec.items()})
            for vec in graded_kernel(g, [phi] * len(cols), ops)]


def intertwiner_defect(F, V, W, phi):
    """The first algebra basis index i at which the map F: V -> W of degree
    phi fails F rho_V(e_i) = eps(phi, alpha_i) rho_W(e_i) F, or None when F
    is graded-invariant.  Each side is multiplied out; no system is solved."""
    L = V.algebra
    for i in range(L.dim):
        e = V.factor.eps(phi, L.degrees[i])
        if F.multiply(V.action[i]) != W.action[i].multiply(F).scale(e):
            return i
    return None


def regrade_algebra(L, new_factor, degree_map):
    """Transport an algebra along a grading-group map; the commutation
    factors must agree on every pair of occurring degrees."""
    new_degrees = [degree_map(d) for d in L.degrees]
    out = EpsLieAlgebra(new_factor, list(L.labels), new_degrees, dict(L.table))
    if out.signs != L.signs:
        raise AlgebraError("regrading changes commutation signs")
    return out
