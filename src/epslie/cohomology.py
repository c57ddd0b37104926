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
from these products, in the stored coefficients (ints where integral;
see exactlin.rational).  coboundary() takes the action signs from
CommutationFactor.eps, so it checks the first sum of the matrix; the
second sum is _sub_terms in both, which the tests check term by term
against the formula.  The module action on cochains is

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

The layout reads one table per algebra and level,
EpsLieAlgebra.monomials_by_degree (the canonical monomials by degree).
Each side of K is laid out apart, a sector as its pairs (M, w) in basis
order; assembly, ranks, representatives and cochain vectors use these
local positions.  Global positions (basis, sectors, the full delta(n)) are
placed from both sides only when asked for.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from . import exterior
from .algebra import degree_of_vector, graded_echelon, graded_kernel
from .exactlin import (
    ONE,
    RationalSparseMatrix,
    ShapeError,
    SpanTracker,
    rational,
    vec_axpy,
    vec_clean,
    vec_scale,
)
from .gmodule import GradedModule, inner_torus, intertwiner_defect, tensor, torus_weight


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
    c = rational(c)
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
    """The cochain d(g): the first sum of the explicit formula with
    CommutationFactor.eps, the second from _sub_terms as in the assembly.

    A component of degree gamma is nonzero only on the monomials N with
    deg v_w - deg N = gamma for some module vector v_w, so only those are
    visited, from the algebra's table of monomials by degree."""
    parts = components(g)
    L, V = g.algebra, g.module
    total = zero_cochain(L, V, g.level + 1)
    fac = L.factor
    gr = L.group
    table = L.monomials_by_degree(g.level + 1)
    sums = L.degree_sums
    for gamma, piece in parts.items():
        wanted = {gr.sub(d, gamma) for d in set(V.degrees)}
        vals = {}
        for N in sorted(N for md in wanted for N in table.get(md, ())):
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
            for mono, coeff in _sub_terms(L.signs, L.bracket_terms, N).items():
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
    out = zero_cochain(L, V, g.level)
    if alpha is None:
        return out
    fac = L.factor
    gr = L.group
    table = L.monomials_by_degree(g.level)
    rho = V.action_matrix(avec)
    brackets = [L.bracket(avec, {idx: ONE}) for idx in range(L.dim)]
    for gamma, piece in components(g).items():
        # A.g has degree gamma + alpha: only the monomials N with
        # deg v_w - deg N = gamma + alpha for some module vector v_w
        target = gr.add(gamma, alpha)
        wanted = {gr.sub(d, target) for d in set(V.degrees)}
        vals = {}
        for N in sorted(N for md in wanted for N in table.get(md, ())):
            acc = {}
            gv = piece.values.get(N)
            if gv:
                vec_axpy(acc, ONE, rho.apply(gv))
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
                prefix = gr.add(prefix, L.degrees[idx])
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
    T = target or tensor(g.module, h.module)
    out = zero_cochain(L, T, g.level + h.level)
    if g.level < 0 or h.level < 0:
        return out
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
    if phi is not None:
        bad = intertwiner_defect(fmat, V, W, phi)
        if bad is not None:
            raise CochainError("map is not invariant (fails at %s)" % L.labels[bad])
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
        self._basis = {}
        self._index = {}
        self._sectors = {}
        # (monomial degree, module degree) -> sector key, shared by all levels
        self._sector_keys = {}
        # (n, weight zero?) -> _layout(n, weight zero?)
        self._layouts = {}
        self._delta = {}
        # (n, weight zero?) -> the blocks of delta(n) on that side of K
        self._delta_blocks = {}
        self._certificates = {}  # degree -> vanishing_certificate(degree)
        # action[i]: (w2, w, rho(e_i)[w2, w] * eps(a_i, v_w)) per entry, with
        # the coefficients as the matrices store them
        self._action = [
            [(w2, w, c * V.signs[i][w]) for (w2, w), c in mat.entries.items()]
            for i, mat in enumerate(V.action)
        ]

    def monomials(self, n):
        """The canonical n-monomials in basis order, merged from the table."""
        return sorted(M for ms in self.algebra.monomials_by_degree(n).values() for M in ms)

    def basis(self, n):
        """Pairs (M, w); the k-th monomial with vector w is at position
        k * module dim + w."""
        if n < 0:
            return []
        if n not in self._basis:
            pairs = [(M, w) for M in self.monomials(n) for w in range(self.module.dim)]
            self._basis[n] = pairs
            self._index[n] = {p: k for k, p in enumerate(pairs)}
        return self._basis[n]

    def index(self, n):
        self.basis(n)
        return self._index.get(n, {})

    def pair_degree(self, pair):
        M, w = pair
        g = self.algebra.group
        md = g.sum(self.algebra.degrees[i] for i in M)
        return g.sub(self.module.degrees[w], md)

    def sectors(self, n):
        """Degree -> sorted list of basis positions, placed from the layouts
        of both sides of K."""
        if n not in self._sectors:
            index = self.index(n)
            out = {}
            for weight_zero in (True, False):
                for deg, pairs in self._layout(n, weight_zero)[0].items():
                    out[deg] = [index[p] for p in pairs]
            self._sectors[n] = dict(sorted(out.items()))
        return self._sectors[n]

    def _layout(self, n, weight_zero):
        """({deg: [(M, w), ...]}, {deg: {(M, w): index in the sector}}) for the
        sectors of C^n in K (weight_zero) or outside it, in degree order.

        The pairs come from the algebra's table of n-monomials by degree, one
        sector key per (monomial degree, module degree); each sector lists
        its pairs in basis order."""
        if (n, weight_zero) not in self._layouts:
            g = self.algebra.group
            memo = self._sector_keys
            vecs = {}  # module degree -> its vectors
            for w, d in enumerate(self.module.degrees):
                vecs.setdefault(d, []).append(w)
            found = {}
            for md, monos in self.algebra.monomials_by_degree(n).items():
                for d, ws in vecs.items():
                    key = memo.get((md, d))
                    if key is None:
                        key = memo[(md, d)] = g.sub(d, md)
                    if (self.vanishing_certificate(key) is None) == weight_zero:
                        found.setdefault(key, []).extend((M, w) for M in monos for w in ws)
            sectors = {deg: sorted(found[deg]) for deg in sorted(found)}
            index = {d: {p: k for k, p in enumerate(ps)} for d, ps in sectors.items()}
            self._layouts[(n, weight_zero)] = sectors, index
        return self._layouts[(n, weight_zero)]

    def _sector(self, n, deg):
        """(pairs, {pair: index}) of the sector deg of C^n, from the layout of
        its side of K."""
        sectors, index = self._layout(n, self.vanishing_certificate(deg) is None)
        return sectors.get(deg, []), index.get(deg, {})

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
                (pair for pair in self.torus if torus_weight(pair[1], deg)), None
            )
        return self._certificates[deg]

    def _blocks(self, n, weight_zero):
        """{deg: delta_sector(n, deg)} for the degrees of C^n or C^{n+1} in K
        (weight_zero) or outside it; each side is assembled once."""
        key = (n, weight_zero)
        if key not in self._delta_blocks:
            self._delta_blocks[key] = self._assemble(n, weight_zero)
        return self._delta_blocks[key]

    def _assemble(self, n, weight_zero):
        """The sector blocks of delta(n) on one side of K, in one pass over
        the level-(n+1) monomials with a row there: each term goes to its
        sector's block at the local positions of the layouts.

        A term whose column is missing from its row's sector raises
        ShapeError."""
        rows, row_at = self._layout(n + 1, weight_zero)
        cols, col_at = self._layout(n, weight_zero)
        signs = self.algebra.signs
        action = self._action
        brackets = self.algebra.bracket_terms
        ents = {key: {} for key in sorted(set(rows) | set(cols))}
        vdegs = self.module.degrees
        keys = self._sector_keys  # the layouts put every key of both levels here

        def add(row, col, v):
            blk, r, at, key = row
            c = at.get(col)
            if c is None:
                raise ShapeError(
                    "entry (%d, %s) of sector %s leaves its degree sector" % (r, col, key)
                )
            v += blk.get((r, c), 0)
            if v:
                blk[(r, c)] = v
            else:
                blk.pop((r, c), None)

        for md, monos in self.algebra.monomials_by_degree(n + 1).items():
            # the module vectors whose row with a monomial of degree md lies
            # on this side of K, with that row's sector
            wanted = [(w, keys[(md, d)]) for w, d in enumerate(vdegs) if keys[(md, d)] in rows]
            if not wanted:
                continue
            for N in monos:
                live = {
                    w: (ents[key], row_at[key][(N, w)], col_at.get(key, {}), key)
                    for w, key in wanted
                }
                for r, idx in enumerate(N):
                    terms = action[idx]
                    if not terms:
                        continue
                    M = N[:r] + N[r + 1 :]
                    # (-1)^r prod_{t>r} eps(a_t, a_r); eps(a_r, v_w) is in the term
                    rsign = -1 if r % 2 else 1
                    for t in N[r + 1 :]:
                        rsign *= signs[t][idx]
                    for w2, w, c in terms:
                        row = live.get(w2)
                        if row is not None:
                            add(row, (M, w), rsign * c)
                for mono, c in _sub_terms(signs, brackets, N).items():
                    for w, row in live.items():
                        add(row, (mono, w), c)
        return {
            key: RationalSparseMatrix(
                len(rows.get(key, ())), len(cols.get(key, ())), ents.pop(key)
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
        at = self._sector(g.level, g.degree)[1]
        vec = {}
        for mono, v in g.values.items():
            for w, c in v.items():
                k = at.get((mono, w))
                if k is None:
                    raise CochainError("cochain value outside its degree sector")
                vec[k] = c
        return vec

    def cochain_from_vector(self, n, vec, deg):
        """Inverse of cochain_vector: a vector over the sector deg of C^n."""
        pairs = self._sector(n, deg)[0]
        vals = {}
        for k, c in vec.items():
            if c:
                M, w = pairs[k]
                vals.setdefault(M, {})[w] = c
        return make_cochain(self.algebra, self.module, n, vals)

    # ----------------------------------------------------------------- results

    def cohomology(self):
        """Ranks of the sectors in the inner-weight-zero kernel K.  Every other
        sector is recorded as vanishing with its certificate, and is ranked
        only when CohomologyResult.dims asks for it."""
        res = CohomologyResult(self)
        for n in range(self.n_max + 1):
            level = {}
            # a degree missing from C^n has z = b = 0
            for deg in self._layout(n, True)[0]:
                z, b = self.sector_ranks(n, deg)
                level[deg] = (z, b, z - b)
            # the layout put every key of C^n in _sector_keys
            mds = self.algebra.monomials_by_degree(n)
            degs = sorted({key for (md, _), key in self._sector_keys.items() if md in mds})
            res.levels[n] = level
            res.vanishing[n] = {d: c for d in degs if (c := self.vanishing_certificate(d))}
        return res

    def sector_ranks(self, n, deg):
        """(dim Z, dim B) of the sector deg of C^n."""
        z = len(self._sector(n, deg)[0]) - self.delta_sector(n, deg).rank()
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
        out = zero_cochain(self.algebra, self.module, g.level - 1)
        if g.is_zero():
            return out
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


# ---------------------------------------------------------------------------
# invariant cochains and classical cocycle constructions


def invariant_cochains(L, V, n, sub_vectors):
    """Basis of {g in C^n : A.g = 0 for all A in the given homogeneous span}:
    the common kernel, from graded_kernel, of the matrices of g -> A.g on
    C^n, one per echelon basis vector A of the span."""
    cx = CochainComplex(L, V, max(n - 1, 0))
    basis = cx.basis(n)
    index = cx.index(n)
    degrees = [cx.pair_degree(pair) for pair in basis]
    thetas = []
    for avec in graded_echelon(L.group, L.degrees, [vec_clean(v) for v in sub_vectors]):
        cols = []
        for (M, w), deg in zip(basis, degrees):
            image = act(avec, Cochain(L, V, n, {M: {w: ONE}}, deg))
            cols.append({index[(N, w2)]: c
                         for N, vec in image.values.items() for w2, c in vec.items()})
        thetas.append(RationalSparseMatrix.from_columns(cols, len(basis)))
    out = []
    for vec in graded_kernel(L.group, degrees, thetas):
        vals = {}
        for k, c in vec.items():
            M, w = basis[k]
            vals.setdefault(M, {})[w] = c
        out.append(make_cochain(L, V, n, vals))
    return out
