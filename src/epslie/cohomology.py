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

CochainComplex assembles the sector blocks delta_sector(n, deg) directly
from these products, in one pass over the level-(n+1) monomials, with
integral coefficients kept as ints until each block is made; the full
matrix delta(n) is placed from the blocks.  coboundary() takes the action
signs from CommutationFactor.eps and is the reference for the matrix.
The module action on cochains is

  (A . g)(A_1..A_n) = A . (g(A_1..A_n))
                    - sum_r eps(alpha, gamma + a_1+..+a_{r-1})
                            g(A_1,..,<A,A_r>,..,A_n).

Most sectors are zero by the Cartan formula theta_x = d i_x + i_x d, where
theta_x is the action of x and i_x the insertion.  It holds unchanged for
an even x of degree 0, because eps(0, .) = 1.  Take such an x for which ad x
and rho(x) are diagonal on the bases of L and V, with eigenvalue chi(deg)
for an additive chi: grading group -> Q that is zero on torsion
(gmodule.inner_torus finds and checks these pairs).  Then x acts on the
sector of degree D as chi(D) * id, and a cocycle g there is
d(i_x g) / chi(D) when chi(D) != 0.  CochainComplex.cohomology therefore
ranks only the sectors in the common kernel K of the chi ("inner weight
zero"), and assembles the blocks of delta only there.  Each other sector
is recorded with h = 0 and its pair (x, chi) as the certificate.
CohomologyResult.dims, which the --csv report prints, ranks those sectors
the first time it is called, and fails if one has dim Z != dim B.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import exterior
from .algebra import degree_of_vector, graded_echelon
from .exactlin import (
    ONE,
    RationalSparseMatrix,
    ShapeError,
    SpanTracker,
    as_integral,
    sector_indices,
    sector_positions,
    vec_axpy,
    vec_clean,
    vec_scale,
)
from .gmodule import GradedModule, inner_torus, tensor, torus_weight


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


def _sub_terms(signs, brackets, N):
    """Second-sum terms on N, as {monomial: coefficient} after canonicalizing."""
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
            br = brackets[N[r]][b]
            if not br:
                continue
            rest = N[: r] , N[r + 1 : s] , N[s + 1 :]
            for k, c in br:
                tup = rest[0] + (k,) + rest[1] + rest[2]
                sg, mono = exterior.canonicalize(signs, tup)
                if sg:
                    co = out.get(mono, 0) + base * sg * c
                    if co:
                        out[mono] = co
                    else:
                        out.pop(mono, None)
    return out


def coboundary(g):
    """The cochain d(g), computed directly from the explicit formula.

    A component of degree gamma is nonzero only on the monomials N with
    deg v_w - deg N = gamma for some module vector v_w, so only those are
    enumerated."""
    parts = components(g)
    L, V = g.algebra, g.module
    total = zero_cochain(L, V, g.level + 1)
    fac = L.factor
    gr = L.group
    brackets = L.bracket_terms
    vdegs = set(V.degrees)
    sums = {}  # (prefix degree, degree) -> their sum, for every monomial
    for gamma, piece in parts.items():
        wanted = {gr.sub(d, gamma) for d in vdegs}
        vals = {}
        for N in exterior.basis_of_degrees(L.signs, g.level + 1, gr, L.degrees, wanted):
            acc = {}
            prefix = gamma
            for r, idx in enumerate(N):
                a = L.degrees[idx]
                gv = piece.values.get(N[:r] + N[r + 1 :])
                if gv:
                    e = (-1 if r % 2 else 1) * fac.eps(prefix, a)
                    vec_axpy(acc, e, V.apply_basis(idx, gv))
                pair = (prefix, a)
                prefix = sums.get(pair)
                if prefix is None:
                    prefix = sums[pair] = gr.add(*pair)
            for mono, coeff in _sub_terms(L.signs, brackets, N).items():
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
        self._mono_index = {}
        self._basis = {}
        self._index = {}
        self._sectors = {}
        # (monomial degree, module degree) -> sector key, shared by all levels
        self._sector_keys = {}
        # prefix monomial -> degree; (prefix degree, last degree) -> sum
        self._prefix_degrees = {}
        self._degree_sums = {}
        self._delta = {}
        # (n, weight zero?) -> the blocks of delta(n) on that side of K
        self._delta_blocks = {}
        self._certificates = {}  # degree -> vanishing_certificate(degree)
        # integral coefficients as ints; each block makes Fractions once
        self._brackets = L.bracket_terms
        # action[i]: (w2, w, rho(e_i)[w2, w] * eps(a_i, v_w)) per entry
        self._action = [
            [(w2, w, as_integral(c) * V.signs[i][w]) for (w2, w), c in mat.entries.items()]
            for i, mat in enumerate(V.action)
        ]

    def monomials(self, n):
        if n < 0:
            return []
        if n not in self._monos:
            self._monos[n] = exterior.basis(self.algebra.signs, n)
        return self._monos[n]

    def basis(self, n):
        """Pairs (M, w); the k-th monomial with vector w is at position
        k * module dim + w."""
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
        return self._sector_layout(n)[0]

    def _sector_layout(self, n):
        """(sectors(n), sector key of each position, its index in the sector).

        Each key is computed once per (monomial degree, module degree)."""
        if n not in self._sectors:
            g = self.algebra.group
            memo = self._sector_keys
            keys = []
            for M in self.monomials(n):
                md = self._monomial_degree(M)
                for d in self.module.degrees:
                    key = memo.get((md, d))
                    if key is None:
                        key = memo[(md, d)] = g.sub(d, md)
                    keys.append(key)
            positions = sector_positions(keys)
            self._sectors[n] = (positions, keys, sector_indices(positions, len(keys)))
        return self._sectors[n]

    def _monomial_degree(self, M):
        """deg M: the memoised degree of the prefix M[:-1] plus the degree of
        the last index, each distinct (prefix degree, last degree) pair added
        once.  Only prefixes are stored, not every monomial."""
        if not M:
            return self.algebra.group.zero()
        pre = M[:-1]
        d = self._prefix_degrees.get(pre)
        if d is None:
            d = self._prefix_degrees[pre] = self._monomial_degree(pre)
        pair = (d, self.algebra.degrees[M[-1]])
        d = self._degree_sums.get(pair)
        if d is None:
            d = self._degree_sums[pair] = self.algebra.group.add(*pair)
        return d

    def _monomial_index(self, n):
        if n not in self._mono_index:
            self._mono_index[n] = {M: k for k, M in enumerate(self.monomials(n))}
        return self._mono_index[n]

    @cached_property
    def torus(self):
        """The verified inner torus pairs (x, chi) of (L, V): a sector whose
        degree D has chi(D) != 0 for one of them has zero cohomology."""
        return inner_torus(self.module)

    def vanishing_certificate(self, deg):
        """The first torus pair (x, chi) with chi(deg) != 0, or None when deg
        lies in the inner-weight-zero kernel K.

        By the Cartan formula theta_x = d i_x + i_x d (x is even of degree 0,
        and eps(0, .) = 1), x acts on the sector of degree deg as
        chi(deg) * id and commutes with d, so a nonzero chi(deg) makes every
        cocycle there a coboundary."""
        if deg not in self._certificates:
            self._certificates[deg] = next(
                ((x, chi) for x, chi in self.torus if torus_weight(chi, deg)), None
            )
        return self._certificates[deg]

    def _blocks(self, n, weight_zero):
        """{deg: delta_sector(n, deg)} for the degrees of C^n or C^{n+1} in K
        (weight_zero) or outside it; each side is assembled once."""
        if not weight_zero and not self.torus:
            return {}  # K is the whole group
        key = (n, weight_zero)
        if key not in self._delta_blocks:
            self._delta_blocks[key] = self._assemble(n, weight_zero)
        return self._delta_blocks[key]

    def _assemble(self, n, weight_zero):
        """The sector blocks of delta(n) on one side of K, in one pass over
        the level-(n+1) monomials with a row there: each term goes to its
        sector's block at local positions.

        A term whose row and column lie in different sectors raises
        ShapeError."""
        row_pos, row_key, row_at = self._sector_layout(n + 1)
        col_pos, col_key, col_at = self._sector_layout(n)
        cols = self._monomial_index(n)
        rows = self._monomial_index(n + 1)
        signs = self.algebra.signs
        action = self._action
        brackets = self._brackets
        vdim = self.module.dim
        ents = {
            key: {}
            for key in sorted(set(row_pos) | set(col_pos))
            if (self.vanishing_certificate(key) is None) == weight_zero
        }
        # the monomial degrees with a sector of this side: every
        # (monomial degree, module degree) pair of levels n + 1 and below is
        # in _sector_keys
        wanted = {md for (md, _), key in self._sector_keys.items() if key in ents}

        def add(r, c, v):
            key = row_key[r]
            if col_key[c] != key:
                raise ShapeError("entry (%d,%d) leaves its degree sector" % (r, c))
            blk = ents[key]
            at = (row_at[r], col_at[c])
            v += blk.get(at, 0)
            if v:
                blk[at] = v
            else:
                blk.pop(at, None)

        monos = exterior.basis_of_degrees(
            signs, n + 1, self.algebra.group, self.algebra.degrees, wanted,
            self._degree_sums,
        )
        for N in monos:
            r0 = rows[N] * vdim
            # the module vectors whose row with N lies on this side of K
            live = [w for w in range(vdim) if row_key[r0 + w] in ents]
            is_live = set(live)
            for r, idx in enumerate(N):
                terms = action[idx]
                if not terms:
                    continue
                c0 = cols[N[:r] + N[r + 1 :]] * vdim
                # (-1)^r prod_{t>r} eps(a_t, a_r); eps(a_r, v_w) is in the term
                rsign = -1 if r % 2 else 1
                for t in N[r + 1 :]:
                    rsign *= signs[t][idx]
                for w2, w, c in terms:
                    if w2 in is_live:
                        add(r0 + w2, c0 + w, rsign * c)
            for mono, c in _sub_terms(signs, brackets, N).items():
                c0 = cols[mono] * vdim
                for w in live:
                    add(r0 + w, c0 + w, c)
        return {
            key: RationalSparseMatrix(
                len(row_pos.get(key, ())), len(col_pos.get(key, ())), ents.pop(key)
            )
            for key in list(ents)
        }

    def delta(self, n):
        """Full matrix of the coboundary C^n -> C^{n+1}, placed from its
        sector blocks."""
        if n not in self._delta:
            rows, cols = self.sectors(n + 1), self.sectors(n)
            ent = {}
            for weight_zero in (True, False):
                for key, block in self._blocks(n, weight_zero).items():
                    rp, cp = rows.get(key), cols.get(key)
                    for (r, c), v in block.entries.items():
                        ent[(rp[r], cp[c])] = v
            self._delta[n] = RationalSparseMatrix(
                len(self.basis(n + 1)), len(self.basis(n)), ent
            )
        return self._delta[n]

    def delta_sector(self, n, deg):
        """Block of delta(n) on the degree sector (rows C^{n+1}, cols C^n).

        The blocks of the level on the same side of K as deg are assembled
        together, the first time any of them is asked for."""
        block = self._blocks(n, self.vanishing_certificate(deg) is None).get(deg)
        return block if block is not None else RationalSparseMatrix(0, 0)

    # ---------------------------------------------------------- cochain <-> vec

    def cochain_vector(self, g):
        """Coordinates of a homogeneous cochain over its sector basis."""
        if g.degree is None:
            raise CochainError("sector vector of an inhomogeneous cochain")
        _, keys, local = self._sector_layout(g.level)
        monos = self._monomial_index(g.level)
        vdim = self.module.dim
        vec = {}
        for mono, v in g.values.items():
            for w, c in v.items():
                p = monos[mono] * vdim + w
                if keys[p] != g.degree:
                    raise CochainError("cochain value outside its degree sector")
                vec[local[p]] = c
        return vec

    def cochain_from_vector(self, n, vec, deg):
        """Inverse of cochain_vector: a vector over the sector deg of C^n."""
        monos = self.monomials(n)
        positions = self.sectors(n).get(deg, [])
        vals = {}
        for k, c in vec.items():
            if c:
                m, w = divmod(positions[k], self.module.dim)
                vals.setdefault(monos[m], {})[w] = c
        return make_cochain(self.algebra, self.module, n, vals)

    # ----------------------------------------------------------------- results

    def cohomology(self):
        """Ranks of the sectors in the inner-weight-zero kernel K.  Every other
        sector is recorded as vanishing with its certificate, and is ranked
        only when CohomologyResult.dims asks for it."""
        res = CohomologyResult(self)
        for n in range(self.n_max + 1):
            level = {}
            vanishing = {}
            # a degree missing from C^n has z = b = 0
            for deg in self.sectors(n):
                cert = self.vanishing_certificate(deg)
                if cert is not None:
                    vanishing[deg] = cert
                    continue
                z, b = self.sector_ranks(n, deg)
                level[deg] = (z, b, z - b)
            res.levels[n] = level
            res.vanishing[n] = vanishing
        return res

    def sector_ranks(self, n, deg):
        """(dim Z, dim B) of the sector deg of C^n."""
        z = len(self.sectors(n)[deg]) - self.delta_sector(n, deg).rank()
        b = self.delta_sector(n - 1, deg).rank() if n > 0 else 0
        return z, b

    def representatives(self, n, deg):
        """Verified cocycle representatives spanning H^n in one sector."""
        dn = self.delta_sector(n, deg)
        kernel = dn.kernel_basis()
        # Kernel vector k is 1 at the k-th free column of dn and 0 at the
        # others, and the image of delta(n - 1) lies in the kernel, so spans
        # inside the kernel are compared on the free columns alone.
        pivots = set(dn.rref()[0])
        free = {f: k for k, f in enumerate(c for c in range(dn.cols) if c not in pivots)}
        span = SpanTracker()
        rank = 0
        if n > 0:
            prev = self.delta_sector(n - 1, deg)
            image = RationalSparseMatrix(prev.cols, len(free), {
                (c, free[r]): v for (r, c), v in prev.entries.items() if r in free
            })
            # the image, from one elimination of its columns
            span = SpanTracker.of_rref(*image.rref())
            rank = span.dim
        reps = []
        for k, v in enumerate(kernel):
            if span.add({k: ONE}):
                g = self.cochain_from_vector(n, v, deg)
                if not is_cocycle(g):
                    raise CochainError("representative fails the cocycle check")
                if n > 0 and self.coboundary_witness(g) is not None:
                    raise CochainError("representative is a coboundary")
                reps.append(g)
        if len(reps) != len(kernel) - rank:
            raise CochainError("representative count differs from dim Z - dim B")
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
    """levels[n]: {deg: (z, b, h)} for the ranked sectors of C^n.
    vanishing[n]: {deg: (x, chi)} for the sectors an inner torus element
    kills (h = 0); they enter levels[n] once dims(n) has ranked them."""

    def __init__(self, cx):
        self.complex = cx
        self.levels = {}
        self.vanishing = {}

    def dims(self, n):
        """{deg: (z, b, h)} for every sector of C^n, in degree order.  The
        vanishing sectors are ranked the first time; one with z != b
        contradicts its certificate and raises CochainError."""
        level = self.levels.get(n, {})
        pending = [deg for deg in self.vanishing.get(n, ()) if deg not in level]
        if pending:
            ranked = dict(level)
            for deg in pending:
                z, b = self.complex.sector_ranks(n, deg)
                if z != b:
                    raise CochainError(
                        "sector %s of C^%d has dim Z %d != dim B %d although its "
                        "torus certificate kills it" % (deg, n, z, b)
                    )
                ranked[deg] = (z, b, 0)
            self.levels[n] = level = dict(sorted(ranked.items()))
        return level

    def total(self, n, which=2):
        """Summed dimension at level n; which selects (z, b, h) = (0, 1, 2).
        h is 0 on every vanishing sector, so which = 2 ranks none of them."""
        level = self.levels.get(n, {}) if which == 2 else self.dims(n)
        return sum(t[which] for t in level.values())

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
