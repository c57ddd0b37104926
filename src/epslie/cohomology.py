"""Cochain complexes and cohomology of color Lie algebras.

An n-cochain is stored by its values on canonical exterior monomials; the
skew-symmetric extension to arbitrary argument tuples goes through
exterior.canonicalize.  A basis cochain (monomial M, module vector w) is
homogeneous of degree deg(w) - deg(M), and the coboundary operator
preserves that degree, so every rank computation is dispatched per degree
sector.

The coboundary operator follows the explicit convention

  (d g)(A_0..A_n) = sum_r (-1)^r eps(gamma + a_0+..+a_{r-1}, a_r)
                           A_r . g(.. A_r omitted ..)
                  + sum_{r<s} (-1)^s eps(a_{r+1}+..+a_{s-1}, a_s)
                           g(A_0,..,A_{r-1}, <A_r,A_s>, A_{r+1},.., A_s omitted,.., A_n)

with empty sums equal to zero; gamma is the cochain degree.  eps is a
bicharacter with eps(x, y) eps(y, x) = 1, so each sign is a product of the
tables L.signs (algebra x algebra) and V.signs (algebra x module).  On the
basis cochain (N without its r-th slot, v_w), gamma + a_0+..+a_{r-1} equals
deg v_w - sum_{t>r} a_t, hence

  eps(gamma + a_0+..+a_{r-1}, a_r) = V.signs[N_r][w] * prod_{t>r} L.signs[N_t][N_r],
  eps(a_{r+1}+..+a_{s-1}, a_s)     = prod_{r<t<s} L.signs[N_t][N_s].

CochainComplex.delta assembles its matrix from these products; coboundary()
takes the action signs from CommutationFactor.eps and is its reference.
The module action on cochains is

  (A . g)(A_1..A_n) = A . (g(A_1..A_n))
                    - sum_r eps(alpha, gamma + a_1+..+a_{r-1})
                            g(A_1,..,<A,A_r>,..,A_n).
"""

from __future__ import annotations

from fractions import Fraction

from . import exterior
from .algebra import degree_of_vector, graded_echelon
from .exactlin import (
    ONE,
    RationalSparseMatrix,
    SpanTracker,
    sector_positions,
    split_sectors,
    vec_axpy,
    vec_clean,
    vec_scale,
)
from .gmodule import GradedModule, tensor


class CochainError(ValueError):
    pass


class Cochain:
    """Values on canonical monomials; degree is None for inhomogeneous sums."""

    __slots__ = ("algebra", "module", "level", "values", "degree")

    def __init__(self, algebra, module, level, values, degree=None):
        self.algebra = algebra
        self.module = module
        self.level = level
        self.values = values
        self.degree = degree

    def is_zero(self):
        return not self.values

    def __repr__(self):
        return "Cochain(level %d, degree %s, %d monomials)" % (
            self.level,
            self.degree,
            len(self.values),
        )


def make_cochain(L, V, level, values):
    """Clean the value table and infer the degree (None when mixed)."""
    g = L.group
    vals = {}
    degset = set()
    for mono, vec in values.items():
        vec = vec_clean(vec)
        if not vec:
            continue
        vals[tuple(mono)] = vec
        md = g.sum(L.degrees[i] for i in mono)
        for w in vec:
            degset.add(g.sub(V.degrees[w], md))
    degree = degset.pop() if len(degset) == 1 else None
    return Cochain(L, V, level, vals, degree)


def zero_cochain(L, V, level, degree=None):
    return Cochain(L, V, level, {}, degree)


def components(g):
    """Split into homogeneous cochains, keyed by degree."""
    if g.degree is not None:
        return {g.degree: g}
    gr = g.algebra.group
    parts = {}
    for mono, vec in g.values.items():
        md = gr.sum(g.algebra.degrees[i] for i in mono)
        for w, c in vec.items():
            d = gr.sub(g.module.degrees[w], md)
            parts.setdefault(d, {}).setdefault(mono, {})[w] = c
    return {
        d: Cochain(g.algebra, g.module, g.level, vals, d)
        for d, vals in sorted(parts.items())
    }


def evaluate(g, indices):
    """Skew-symmetric evaluation on an arbitrary basis-index tuple."""
    if len(indices) != g.level:
        raise CochainError("expected %d arguments" % g.level)
    sign, mono = exterior.canonicalize(g.algebra.signs, indices)
    if not sign:
        return {}
    vec = g.values.get(mono)
    if not vec:
        return {}
    return vec if sign == 1 else vec_scale(vec, sign)


def cochain_add(g, h):
    if (g.algebra, g.module, g.level) != (h.algebra, h.module, h.level):
        raise CochainError("cochain mismatch in addition")
    vals = {m: dict(v) for m, v in g.values.items()}
    for m, v in h.values.items():
        acc = vals.setdefault(m, {})
        vec_axpy(acc, ONE, v)
        if not acc:
            del vals[m]
    return make_cochain(g.algebra, g.module, g.level, vals)


def cochain_scale(g, c):
    c = Fraction(c)
    if not c:
        return zero_cochain(g.algebra, g.module, g.level)
    return Cochain(
        g.algebra, g.module, g.level,
        {m: vec_scale(v, c) for m, v in g.values.items()}, g.degree,
    )


def cochain_sub(g, h):
    return cochain_add(g, cochain_scale(h, -1))


def cochain_eq(g, h):
    return cochain_sub(g, h).is_zero()


# ---------------------------------------------------------------------------
# the coboundary operator


def _sub_terms(L, N):
    """Second-sum terms on N, as {monomial: coefficient} after canonicalizing."""
    signs = L.signs
    out = {}
    for s in range(1, len(N)):
        b = N[s]
        # (-1)^s eps(a_1+..+a_{s-1}, a_s); each step in r drops a_r from the sum
        base = -1 if s % 2 else 1
        for t in range(1, s):
            base *= signs[N[t]][b]
        for r in range(s):
            if r:
                base *= signs[N[r]][b]
            br = L.bracket_basis(N[r], b)
            if not br:
                continue
            rest = N[: r] , N[r + 1 : s] , N[s + 1 :]
            for k, c in br.items():
                tup = rest[0] + (k,) + rest[1] + rest[2]
                sg, mono = exterior.canonicalize(signs, tup)
                if sg:
                    co = out.get(mono, Fraction(0)) + base * sg * c
                    if co:
                        out[mono] = co
                    else:
                        out.pop(mono, None)
    return out


def coboundary(g):
    """The cochain d(g), computed directly from the explicit formula."""
    parts = components(g)
    L, V = g.algebra, g.module
    total = zero_cochain(L, V, g.level + 1)
    fac = L.factor
    gr = L.group
    monos = exterior.basis(L.signs, g.level + 1)
    for gamma, piece in parts.items():
        vals = {}
        for N in monos:
            acc = {}
            prefix = gamma
            for r, idx in enumerate(N):
                gv = piece.values.get(N[:r] + N[r + 1 :])
                if gv:
                    e = (-1 if r % 2 else 1) * fac.eps(prefix, L.degrees[idx])
                    vec_axpy(acc, e, V.apply_basis(idx, gv))
                prefix = gr.add(prefix, L.degrees[idx])
            for mono, coeff in _sub_terms(L, N).items():
                gv = piece.values.get(mono)
                if gv:
                    vec_axpy(acc, coeff, gv)
            if acc:
                vals[N] = acc
        total = cochain_add(total, make_cochain(L, V, g.level + 1, vals))
    return total


def is_cocycle(g):
    return coboundary(g).is_zero()


# ---------------------------------------------------------------------------
# module structure, insertion, products, transport


def act(avec, g):
    """Action of a homogeneous algebra vector on a cochain."""
    L, V = g.algebra, g.module
    alpha = degree_of_vector(L.group, L.degrees, avec)
    if alpha is None:
        return zero_cochain(L, V, g.level)
    out = zero_cochain(L, V, g.level)
    fac = L.factor
    monos = exterior.basis(L.signs, g.level)
    brackets = [L.bracket(avec, {idx: ONE}) for idx in range(L.dim)]
    for gamma, piece in components(g).items():
        vals = {}
        for N in monos:
            acc = {}
            gv = piece.values.get(N)
            if gv:
                vec_axpy(acc, ONE, V.act(avec, gv))
            prefix = gamma
            for r, idx in enumerate(N):
                e = fac.eps(alpha, prefix)
                br = brackets[idx]
                for k, c in br.items():
                    tup = N[:r] + (k,) + N[r + 1 :]
                    sg, mono = exterior.canonicalize(L.signs, tup)
                    if sg:
                        gv2 = piece.values.get(mono)
                        if gv2:
                            vec_axpy(acc, -e * c * sg, gv2)
                prefix = L.group.add(prefix, L.degrees[idx])
            if acc:
                vals[N] = acc
        out = cochain_add(out, make_cochain(L, V, g.level, vals))
    return out


def insertion(g, avec):
    """g_A: fix the first argument.  Level n-1; zero for n <= 0."""
    L, V = g.algebra, g.module
    if g.level <= 0:
        return zero_cochain(L, V, g.level - 1)
    vals = {}
    for T in exterior.basis(L.signs, g.level - 1):
        acc = {}
        for i, c in avec.items():
            if not c:
                continue
            sg, mono = exterior.canonicalize(L.signs, (i,) + T)
            if sg:
                gv = g.values.get(mono)
                if gv:
                    vec_axpy(acc, c * sg, gv)
        if acc:
            vals[T] = acc
    return make_cochain(L, V, g.level - 1, vals)


def _cup_value(g, h, args):
    """Shuffle-sum value of the product on an arbitrary index tuple."""
    L = g.algebra
    fac = L.factor
    gr = L.group
    m, n = g.level, h.level
    eta = h.degree
    degs = [L.degrees[i] for i in args]
    wdim = h.module.dim
    total = {}
    for perm, psign in exterior.shuffles(m, n):
        epsn = fac.eps_n(perm, degs)
        left = tuple(args[p] for p in perm[:m])
        right = tuple(args[p] for p in perm[m:])
        gv = evaluate(g, left)
        if not gv:
            continue
        hv = evaluate(h, right)
        if not hv:
            continue
        e = fac.eps(eta, gr.sum(L.degrees[i] for i in left))
        coeff = psign * epsn * e
        for a, ca in gv.items():
            for b, cb in hv.items():
                key = a * wdim + b
                v = total.get(key, Fraction(0)) + coeff * ca * cb
                if v:
                    total[key] = v
                else:
                    total.pop(key, None)
    return total


def cup_product(g, h, target=None):
    """Product C^m(L,V) x C^n(L,W) -> C^{m+n}(L, V tensor W)."""
    if g.algebra is not h.algebra:
        raise CochainError("cup product across different algebras")
    L = g.algebra
    if g.level < 0 or h.level < 0:
        T = target or tensor(g.module, h.module)
        return zero_cochain(L, T, g.level + h.level)
    T = target or tensor(g.module, h.module)
    out = zero_cochain(L, T, g.level + h.level)
    for gp in components(g).values():
        for hp in components(h).values():
            vals = {}
            for N in exterior.basis(L.signs, g.level + h.level):
                v = _cup_value(gp, hp, N)
                if v:
                    vals[N] = v
            out = cochain_add(out, make_cochain(L, T, g.level + h.level, vals))
    return out


def push_forward(fmat, W, g):
    """Compose with an invariant homogeneous map V -> W given by a matrix."""
    L, V = g.algebra, g.module
    gr = L.group
    phi = None
    for (r, c) in fmat.entries:
        d = gr.sub(W.degrees[r], V.degrees[c])
        if phi is None:
            phi = d
        elif phi != d:
            raise CochainError("map is not homogeneous")
    if not fmat.is_zero():
        for i in range(L.dim):
            e = L.factor.eps(phi, L.degrees[i])
            lhs = fmat.multiply(V.action[i])
            rhs = W.action[i].multiply(fmat).scale(e)
            if lhs != rhs:
                raise CochainError(
                    "map is not invariant (fails at %s)" % L.labels[i]
                )
    vals = {}
    for mono, vec in g.values.items():
        w = fmat.apply(vec)
        if w:
            vals[mono] = w
    return make_cochain(L, W, g.level, vals)


def pull_back(omega, Lsub, g):
    """Compose the arguments with a degree-zero homomorphism Lsub -> L given
    by the column matrix omega.  Returns a cochain over (Lsub, V^omega)."""
    L, V = g.algebra, g.module
    if Lsub.factor != L.factor:
        raise CochainError("pull-back requires a shared commutation factor")
    cols = omega.columns()
    for j in range(Lsub.dim):
        d = degree_of_vector(L.group, L.degrees, cols[j])
        if d is not None and d != L.group.reduce(Lsub.degrees[j]):
            raise CochainError("homomorphism does not preserve degrees")
    if Lsub.homomorphism_defect(L, omega):
        raise CochainError("omega is not an algebra homomorphism")
    Vsub = GradedModule(
        Lsub,
        list(V.labels),
        list(V.degrees),
        [V.action_matrix(cols[j]) for j in range(Lsub.dim)],
    )
    vals = {}
    import itertools

    for N in exterior.basis(Lsub.signs, g.level):
        acc = {}
        choices = [sorted(cols[j].items()) for j in N]
        for combo in itertools.product(*choices):
            coeff = ONE
            for _, c in combo:
                coeff *= c
            idxs = tuple(i for i, _ in combo)
            val = evaluate(g, idxs)
            if val:
                vec_axpy(acc, coeff, val)
        if acc:
            vals[N] = acc
    return make_cochain(Lsub, Vsub, g.level, vals), Vsub


# ---------------------------------------------------------------------------
# sector complexes


class CochainComplex:
    """Bases and coboundary matrices for levels 0..n_max (+1 for targets)."""

    def __init__(self, L, V, n_max):
        if n_max < 0:
            raise CochainError("n_max must be >= 0")
        self.algebra = L
        self.module = V
        self.n_max = n_max
        self._monos = {}
        self._basis = {}
        self._index = {}
        self._sectors = {}
        self._delta = {}
        self._delta_blocks = {}

    def monomials(self, n):
        if n < 0:
            return []
        if n not in self._monos:
            self._monos[n] = exterior.basis(self.algebra.signs, n)
        return self._monos[n]

    def basis(self, n):
        if n < 0:
            return []
        if n not in self._basis:
            pairs = []
            for M in self.monomials(n):
                for w in range(self.module.dim):
                    pairs.append((M, w))
            self._basis[n] = pairs
            self._index[n] = {p: k for k, p in enumerate(pairs)}
        return self._basis[n]

    def index(self, n):
        self.basis(n)
        return self._index[n]

    def pair_degree(self, pair):
        M, w = pair
        g = self.algebra.group
        md = g.sum(self.algebra.degrees[i] for i in M)
        return g.sub(self.module.degrees[w], md)

    def sectors(self, n):
        """Degree -> sorted list of basis positions."""
        if n < 0:
            return {}
        if n not in self._sectors:
            self._sectors[n] = sector_positions(
                [self.pair_degree(p) for p in self.basis(n)]
            )
        return self._sectors[n]

    def delta(self, n):
        """Full matrix of the coboundary C^n -> C^{n+1}."""
        if n < 0:
            return RationalSparseMatrix(len(self.basis(0)) if n == -1 else 0, 0)
        if n in self._delta:
            return self._delta[n]
        L, V = self.algebra, self.module
        signs = L.signs
        rows = self.index(n + 1)
        colsdex = self.index(n)
        vdim = V.dim
        ent = {}
        for N in self.monomials(n + 1):
            for r, idx in enumerate(N):
                mat = V.action[idx]
                if not mat.entries:
                    continue
                rest = N[:r] + N[r + 1 :]
                # (-1)^r prod_{t>r} eps(a_t, a_r); eps(a_r, v_w) per entry
                rsign = -1 if r % 2 else 1
                for t in N[r + 1 :]:
                    rsign *= signs[t][idx]
                vsigns = V.signs[idx]
                for (w2, w), coeff in mat.entries.items():
                    e = rsign * vsigns[w]
                    key = (rows[(N, w2)], colsdex[(rest, w)])
                    v = ent.get(key, Fraction(0)) + e * coeff
                    if v:
                        ent[key] = v
                    else:
                        ent.pop(key, None)
            for mono, coeff in _sub_terms(L, N).items():
                for w in range(vdim):
                    key = (rows[(N, w)], colsdex[(mono, w)])
                    v = ent.get(key, Fraction(0)) + coeff
                    if v:
                        ent[key] = v
                    else:
                        ent.pop(key, None)
        mat = RationalSparseMatrix(len(self.basis(n + 1)), len(self.basis(n)), ent)
        self._delta[n] = mat
        return mat

    def delta_sector(self, n, deg):
        """Block of delta(n) on the degree sector (rows C^{n+1}, cols C^n).

        The whole level is split into its sectors the first time any of its
        blocks is asked for."""
        if n not in self._delta_blocks:
            self._delta_blocks[n] = split_sectors(
                self.delta(n), self.sectors(n + 1), self.sectors(n)
            )
        block = self._delta_blocks[n].get(deg)
        return block if block is not None else RationalSparseMatrix(0, 0)

    # ---------------------------------------------------------- cochain <-> vec

    def cochain_vector(self, g):
        """Coordinates of a homogeneous cochain over its sector basis."""
        if g.degree is None:
            raise CochainError("sector vector of an inhomogeneous cochain")
        dex = self.index(g.level)
        positions = self.sectors(g.level).get(g.degree, [])
        pos = {p: k for k, p in enumerate(positions)}
        vec = {}
        for mono, v in g.values.items():
            for w, c in v.items():
                vec[pos[dex[(mono, w)]]] = c
        return vec

    def cochain_from_vector(self, n, vec, deg):
        """Inverse of cochain_vector: a vector over the sector deg of C^n."""
        basis = self.basis(n)
        positions = self.sectors(n).get(deg, [])
        vals = {}
        for k, c in vec.items():
            if c:
                M, w = basis[positions[k]]
                vals.setdefault(M, {})[w] = c
        return make_cochain(self.algebra, self.module, n, vals)

    # ----------------------------------------------------------------- results

    def cohomology(self):
        res = CohomologyResult(self)
        for n in range(self.n_max + 1):
            level = {}
            # a degree missing from C^n has z = b = 0
            for deg, positions in self.sectors(n).items():
                z = len(positions) - self.delta_sector(n, deg).rank()
                b = self.delta_sector(n - 1, deg).rank() if n > 0 else 0
                level[deg] = (z, b, z - b)
            res.levels[n] = level
        return res

    def representatives(self, n, deg):
        """Verified cocycle representatives spanning H^n in one sector."""
        dn = self.delta_sector(n, deg)
        kernel = dn.kernel_basis()
        span = SpanTracker()
        if n > 0:
            prev = self.delta_sector(n - 1, deg)
            for col in prev.columns():
                span.add(col)
        reps = []
        for v in kernel:
            if span.add(v):
                g = self.cochain_from_vector(n, v, deg)
                if not is_cocycle(g):
                    raise CochainError("representative fails the cocycle check")
                if n > 0 and self.coboundary_witness(g) is not None:
                    raise CochainError("representative is a coboundary")
                reps.append(g)
        return reps

    def coboundary_witness(self, g):
        """Solve d(b) = g exactly; None when g is not a coboundary."""
        if g.is_zero():
            return zero_cochain(self.algebra, self.module, g.level - 1)
        out = zero_cochain(self.algebra, self.module, g.level - 1)
        for deg, piece in components(g).items():
            prev = self.delta_sector(g.level - 1, deg)
            vec = self.cochain_vector(piece)
            sol = prev.image_membership(vec)
            if sol is None:
                return None
            out = cochain_add(out, self.cochain_from_vector(g.level - 1, sol, deg))
        return out


class CohomologyResult:
    def __init__(self, cx):
        self.complex = cx
        self.levels = {}

    def dims(self, n):
        return self.levels.get(n, {})

    def total(self, n, which=2):
        """Summed dimension at level n; which selects (z, b, h) = (0, 1, 2)."""
        return sum(t[which] for t in self.levels.get(n, {}).values())

    def sector_table(self, n):
        return sorted(
            (deg, t) for deg, t in self.levels.get(n, {}).items() if t[2]
        )

    def __repr__(self):
        core = ", ".join(
            "H^%d=%d" % (n, self.total(n)) for n in sorted(self.levels)
        )
        return "CohomologyResult(%s)" % core


def cohomology(L, V, n_max):
    """Convenience wrapper: dimensions of H^0..H^n_max."""
    return CochainComplex(L, V, n_max).cohomology()


def coboundary_witness(g):
    cx = CochainComplex(g.algebra, g.module, max(g.level - 1, 0))
    return cx.coboundary_witness(g)


# ---------------------------------------------------------------------------
# invariant cochains and classical cocycle constructions


def invariant_cochains(L, V, n, sub_vectors):
    """Basis of {g in C^n : A.g = 0 for all A in the given homogeneous span}."""
    cx = CochainComplex(L, V, max(n - 1, 0))
    basis = cx.basis(n)
    dex = cx.index(n)
    rows = {}
    ent = {}
    vecs = graded_echelon(L.group, L.degrees, [vec_clean(v) for v in sub_vectors])
    for t, avec in enumerate(vecs):
        for col, pair in enumerate(basis):
            M, w = pair
            b = Cochain(L, V, n, {M: {w: ONE}}, cx.pair_degree(pair))
            res = act(avec, b)
            for mono, vv in res.values.items():
                for w2, c in vv.items():
                    r = rows.setdefault((t, mono, w2), len(rows))
                    ent[(r, col)] = c
    mat = RationalSparseMatrix(len(rows), len(basis), ent)
    out = []
    for kv in mat.kernel_basis():
        vals = {}
        for k, c in kv.items():
            M, w = basis[k]
            vals.setdefault(M, {})[w] = c
        out.append(make_cochain(L, V, n, vals))
    return out
