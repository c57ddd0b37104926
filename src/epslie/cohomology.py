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
see exactlin.rational): a row rule gives the terms of the row (N, w), its
second sum from _sub_terms, and CochainComplex.sector_map, the one builder
of maps between sectors, makes each block from it.  coboundary() runs
the formula the other way: it pushes each value g(M) forward to the
monomials N that read it, with the action signs from
CommutationFactor.eps and the brackets that produce an index from
EpsLieAlgebra.bracket_preimages.  So its cost follows the support of g,
it lists no sector, and it shares no code with the assembly; the tests
compare the two column by column.  representatives() checks each
representative with coboundary() and their independence modulo
coboundaries with one exact rank per sector.  The module action on
cochains, theta_A for A of degree alpha, maps the sector gamma to the
sector gamma + alpha:

  (A . g)(A_1..A_n) = A . (g(A_1..A_n))
                    - sum_r eps(alpha, gamma + a_1+..+a_{r-1})
                            g(A_1,..,<A,A_r>,..,A_n).

_theta gives it as a row rule: act reads its rows on the target monomials,
and invariant_cochains solves the blocks CochainComplex.sector_map makes.

Most sectors are zero by the Cartan formula theta_x = d i_x + i_x d, where
theta_x is the action of x and i_x the insertion.  It holds unchanged for
an even x of degree 0, because eps(0, .) = 1.  Take such an x for which ad x
and rho(x) are diagonal on the bases of L and V, with eigenvalue chi(deg)
for an additive chi: grading group -> Q that is zero on torsion
(gmodule.inner_torus finds and checks these pairs).  Then x acts on the
sector of degree D as chi(D) * id, and a cocycle g there is
d(i_x g) / chi(D) when chi(D) != 0.  CochainComplex.cohomology therefore
ranks only the sectors in the common kernel K of the chi ("inner weight
zero"), and assembles the blocks of delta only there.  The other sectors
have h = 0 and are not visited: CohomologyResult.vanishing lists them, each
with its pair (x, chi) as the certificate, when first asked, and
CohomologyResult.dims, which the --csv report prints, ranks them the first
time it is called and fails if one has dim Z != dim B.

A monomial M with a module vector v_w lies in K exactly when the chi-weight
of M, the sum of the weights of its indices, is that of v_w.  So the side
of K is laid out from one weight-pruned walk per level
(exterior.basis_by_degree with weights), which lists only the monomials
whose weight is some module vector's; cohomology() builds no full table of
any level.  Every other reader (the side outside K, the cochain operators,
sector_degrees) takes its monomials from one table per algebra and level,
EpsLieAlgebra.monomials_by_degree, and reads only those its target sector
can hold.  Each side of K is laid out apart, a sector as its pairs (M, w)
in basis order, and these sector-local positions are the only cochain
coordinates: assembly, ranks, representatives, cochain vectors and the
homotopy identity of casimir all work one sector at a time.  The full
matrix delta(n) is the sector blocks laid end to end in degree order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import cache, cached_property, partial
from math import lcm, prod

from . import exterior
from .algebra import degree_of_vector, graded_echelon, graded_kernel
from .exactlin import (
    RationalSparseMatrix,
    ShapeError,
    SpanTracker,
    kernel_vector,
    rational,
    vec_axpy,
    vec_rational,
    vec_scale,
)
from .gmodule import GradedModule, intertwiner_defect, tensor, torus_weight


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
    """Store the values through vec_rational and infer the degree (None when mixed)."""
    g = L.group
    vals = {}
    degset = set()
    for mono, vec in values.items():
        vec = vec_rational(vec)
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
    vec = g.values.get(mono, {})  # mono is None when sign == 0
    return vec if sign == 1 else vec_scale(vec, sign)


def cochain_add(g, h):
    if (g.algebra, g.module, g.level) != (h.algebra, h.module, h.level):
        raise CochainError("cochain mismatch in addition")
    vals = {m: dict(v) for m, v in g.values.items()}
    for m, v in h.values.items():
        acc = vals.setdefault(m, {})
        vec_axpy(acc, 1, v)
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


def _sector_monomials(L, V, n, degrees):
    """The canonical n-monomials N, in basis order, of the sectors of C^n in
    degrees: deg v_w - deg N is in degrees for some module vector v_w.  They
    are read from the algebra's table of monomials by degree."""
    gr = L.group
    table = L.monomials_by_degree(n)
    wanted = {gr.sub(d, t) for t in degrees for d in set(V.degrees)}
    return sorted(N for md in wanted for N in table.get(md, ()))


def coboundary(g):
    """The cochain d(g), pushed forward from the support of g: each value
    v = g(M) is sent to the (n+1)-monomials N whose formula reads g(M).

    First sum: N is M with an index i inserted, and each slot r of N that
    holds i reads M, with the term (-1)^r eps(gamma + deg N[:r], a_i)
    rho(e_i) v, the sign from CommutationFactor.eps.  Second sum: N is M
    with one copy of an index k replaced by a pair a <= b such that e_k
    occurs in <e_a, e_b> with coefficient c (EpsLieAlgebra.bracket_preimages),
    and each r < s with N_r = a and N_s = b reads M, with the coefficient
    (-1)^s prod_{r<t<s} L.signs[N_t][b] * c times the sign that
    canonicalizes N[:r] + (k,) + N[r+1:s] + N[s+1:] into M.

    The work follows the support of g; no sector is listed.  Neither sum
    shares code with the assembly of delta_sector, so each checks the
    other."""
    L, V = g.algebra, g.module
    signs, degs, dim = L.signs, L.degrees, L.dim
    eps, gr, sums = L.factor.eps, L.group, L.degree_sums
    preimages = L.bracket_preimages

    def plus(x, y):
        s = sums.get((x, y))
        if s is None:
            s = sums[(x, y)] = gr.add(x, y)
        return s

    vals = {}
    for gamma, piece in components(g).items():
        for M, v in piece.values.items():
            prefix = [gamma]  # prefix[j] = gamma + deg M[:j]
            for idx in M:
                prefix.append(plus(prefix[-1], degs[idx]))
            for i in range(dim):
                lo, hi = bisect_left(M, i), bisect_right(M, i)
                if hi > lo and signs[i][i] == 1:
                    continue  # an index of parity +1 does not repeat
                image = V.apply_basis(i, v)
                if not image:
                    continue
                e, pre = 0, prefix[lo]
                for r in range(lo, hi + 1):
                    e += (-1 if r % 2 else 1) * eps(pre, degs[i])
                    pre = plus(pre, degs[i])
                N = M[:lo] + (i,) * (hi - lo + 1) + M[hi:]
                if not vec_axpy(vals.setdefault(N, {}), e, image):
                    del vals[N]  # the terms at N cancel
            for k in dict.fromkeys(M):
                at = M.index(k)
                rest = M[:at] + M[at + 1 :]
                for a, b, c in preimages[k]:
                    # rest repeats no index of parity +1; a and b must not either
                    if signs[a][a] == 1 and (a == b or a in rest) or (
                            signs[b][b] == 1 and b in rest):
                        continue
                    N = tuple(sorted(rest + (a, b)))
                    e = 0
                    for s in range(bisect_left(N, b), bisect_right(N, b)):
                        for r in range(bisect_left(N, a), min(s, bisect_right(N, a))):
                            sign = -1 if s % 2 else 1
                            for t in N[r + 1 : s]:
                                sign *= signs[t][b]
                            e += sign * exterior.canonicalize(
                                signs, N[:r] + (k,) + N[r + 1 : s] + N[s + 1 :])[0]
                    if not vec_axpy(vals.setdefault(N, {}), e * c, v):
                        del vals[N]
    return make_cochain(L, V, g.level + 1, vals)


def is_cocycle(g):
    return coboundary(g).is_zero()


# ---------------------------------------------------------------------------
# module structure, insertion, products, transport


def _vectors_by_degree(V):
    """{module degree: its vectors, in basis order}."""
    vecs = {}
    for w, d in enumerate(V.degrees):
        vecs.setdefault(d, []).append(w)
    return vecs


def _theta(L, V, avec):
    """(alpha, rows) for g -> A.g, A a homogeneous algebra vector of degree
    alpha; (None, None) for A = 0.  rows(gamma) is the row rule from the
    sector gamma to the sector gamma + alpha (see CochainComplex.sector_map);
    its second sum is eps(alpha, gamma) times a sum built once per N."""
    alpha = degree_of_vector(L.degrees, avec)
    if alpha is None:
        return None, None
    fac = L.factor
    rho = V.action_matrix(avec).row_dicts()
    # <A, e_i> in the stored coefficients, and eps(alpha, a_i)
    brackets = [{k: rational(c) for k, c in L.bracket(avec, {i: 1}).items()}
                for i in range(L.dim)]
    eps = [fac.eps(alpha, d) for d in L.degrees]

    @cache
    def second_sum(N):
        # one coefficient per argument monomial, with
        # e = eps(alpha, a_1+..+a_{r-1}) a product of the eps[i]
        terms, e = {}, 1
        for r, idx in enumerate(N):
            for k, c in brackets[idx].items():
                sg, mono = exterior.canonicalize(L.signs, N[:r] + (k,) + N[r + 1 :])
                if sg:
                    terms[mono] = terms.get(mono, 0) - e * c * sg
            e *= eps[idx]
        return terms

    def rows(gamma):
        e = fac.eps(alpha, gamma)

        def row(N, w2):
            for w, c in rho[w2].items():
                yield (N, w), c
            for mono, c in second_sum(N).items():
                yield (mono, w2), e * c
        return row

    return alpha, rows


def act(avec, g):
    """Action of a homogeneous algebra vector on a cochain: the theta rows
    of each component, read on the monomials of its target sector."""
    L, V = g.algebra, g.module
    alpha, rows = _theta(L, V, avec)
    if alpha is None:
        return zero_cochain(L, V, g.level)
    gr = L.group
    vecs = _vectors_by_degree(V)
    vals = {}  # the target sectors of the components are disjoint
    for gamma, piece in components(g).items():
        row, values = rows(gamma), piece.values
        target = gr.add(gamma, alpha)
        for N in _sector_monomials(L, V, g.level, [target]):
            out = vals.setdefault(N, {})
            for w2 in vecs[gr.add(target, gr.sum(L.degrees[i] for i in N))]:
                out[w2] = sum(c * values[M][w] for (M, w), c in row(N, w2)
                              if w in values.get(M, ()))
    return make_cochain(L, V, g.level, vals)


def insertion(g, avec):
    """g_A: fix the first argument.  Level n-1; zero for n <= 0.  A component
    of degree gamma and a part of A of degree alpha give values only on the
    monomials of the sector gamma + alpha."""
    L, V = g.algebra, g.module
    if g.level <= 0:
        return zero_cochain(L, V, g.level - 1)
    gr = L.group
    alphas = {L.degrees[i] for i, c in avec.items() if c}
    targets = {gr.add(gamma, a) for gamma in components(g) for a in alphas}
    vals = {}
    for T in _sector_monomials(L, V, g.level - 1, targets):
        vals[T] = acc = {}
        for i, c in avec.items():
            sg, mono = exterior.canonicalize(L.signs, (i,) + T)
            vec_axpy(acc, c * sg, g.values.get(mono, {}))
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
            vec_axpy(total, coeff * ca, {a * wdim + b: cb for b, cb in hv.items()})
    return total


def cup_product(g, h, target=None):
    """Product C^m(L,V) x C^n(L,W) -> C^{m+n}(L, V tensor W); components of
    degrees gamma and eta give values only on the sector gamma + eta."""
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
            deg = L.group.add(gp.degree, hp.degree)
            for N in _sector_monomials(L, T, g.level + h.level, [deg]):
                vals[N] = _cup_value(gp, hp, N)
            out = cochain_add(out, make_cochain(L, T, g.level + h.level, vals))
    return out


def push_forward(fmat, W, g):
    """Compose with an invariant homogeneous map V -> W given by a matrix."""
    L, V = g.algebra, g.module
    phis = {L.group.sub(W.degrees[r], V.degrees[c]) for r, c in fmat.entries}
    if len(phis) > 1:
        raise CochainError("map is not homogeneous")
    for phi in phis:
        bad = intertwiner_defect(fmat, V, W, phi)
        if bad is not None:
            raise CochainError("map is not invariant (fails at %s)" % L.labels[bad])
    return make_cochain(L, W, g.level, {mono: fmat.apply(vec) for mono, vec in g.values.items()})


def pull_back(omega, Lsub, g):
    """Compose the arguments with a degree-zero homomorphism Lsub -> L given
    by the column matrix omega.  Returns a cochain over (Lsub, V^omega)."""
    L, V = g.algebra, g.module
    if Lsub.factor != L.factor:
        raise CochainError("pull-back requires a shared commutation factor")
    cols = omega.columns()
    for j in range(Lsub.dim):
        d = degree_of_vector(L.degrees, cols[j])
        if d is not None and d != Lsub.degrees[j]:
            raise CochainError("homomorphism does not preserve degrees")
    if Lsub.homomorphism_defect(L, omega):
        raise CochainError("omega is not an algebra homomorphism")
    Vsub = GradedModule(Lsub, list(V.labels), list(V.degrees),
                        [V.action_matrix(cols[j]) for j in range(Lsub.dim)])
    vals = {}
    # omega preserves degrees, so a component of degree gamma pulls back
    # into the sector gamma
    for N in _sector_monomials(Lsub, Vsub, g.level, components(g)):
        vals[N] = acc = {}
        for combo in itertools.product(*[sorted(cols[j].items()) for j in N]):
            vec_axpy(acc, prod(c for _, c in combo), evaluate(g, tuple(i for i, _ in combo)))
    return make_cochain(Lsub, Vsub, g.level, vals), Vsub


# ---------------------------------------------------------------------------
# sector complexes


class CochainComplex:
    """Sector layouts and coboundary blocks for levels 0..n_max (+1 for
    targets)."""

    def __init__(self, L, V, n_max):
        if n_max < 0:
            raise CochainError("n_max must be >= 0")
        self.algebra = L
        self.module = V
        self.n_max = n_max
        # (monomial degree, module degree) -> sector key, shared by all
        # levels; only _layout reads it
        self._sector_keys = {}
        # (n, weight zero?) -> _layout(n, weight zero?)
        self._layouts = {}
        # (n, weight zero?) -> the blocks of delta(n) on that side of K
        self._delta_blocks = {}
        self._certificates = {}  # degree -> vanishing_certificate(degree)
        # action[i][w2]: (w, rho(e_i)[w2, w] * eps(a_i, v_w)) per entry of
        # row w2, with the coefficients as the matrices store them
        self._action = []
        for i, mat in enumerate(V.action):
            by_row = {}
            for (w2, w), c in mat.entries.items():
                by_row.setdefault(w2, []).append((w, c * V.signs[i][w]))
            self._action.append(by_row)

    def sector_degrees(self, n):
        """The sorted degrees of the sectors of C^n, on both sides of K, from
        the algebra's full table of n-monomials; no layout is built."""
        sub = self.algebra.group.sub
        return sorted({sub(d, md) for md in self.algebra.monomials_by_degree(n)
                       for d in set(self.module.degrees)})

    @cached_property
    def _weight_walk(self):
        """(weights, targets, reach) of the walk that lists the monomials of
        levels 0..n_max + 1 that can lie in K, or None without a torus.

        The weight of index i is the vector of chi(deg e_i) over the torus
        pairs, each chi scaled to ints by the lcm of its denominators, packed
        into one int in radix R = 2 (n_max + 2) B + 1, B the largest entry
        size over the algebra and module bases.  The packing is additive and
        injective on vectors with entries of size at most (n_max + 2) B,
        which holds for a module weight minus a sum of up to n_max + 1
        algebra weights; so a monomial of such a level has a sector in K
        exactly when its packed sum is a packed module weight (targets)."""
        if not self.torus:
            return None
        L = self.algebra
        scaled = [(chi, lcm(*(c.denominator for c in chi))) for _, chi in self.torus]
        alg, mod = ([[int(torus_weight(chi, d) * s) for chi, s in scaled] for d in degs]
                    for degs in (L.degrees, self.module.degrees))
        radix = 2 * (self.n_max + 2) * max(abs(x) for v in alg + mod for x in v) + 1

        def pack(v):
            return sum(x * radix**k for k, x in enumerate(v))

        weights = [pack(v) for v in alg]
        return weights, {pack(v) for v in mod}, exterior.weight_reach(L.signs, weights, self.n_max)

    def _monomials(self, n, weight_zero):
        """{deg M: [n-monomials M, in basis order]} for the layout of one side
        of K.  The side in K of a level up to n_max + 1 lists only the
        monomials whose weight is that of some module vector, from one
        weight-pruned walk per level (_layout keeps its result); otherwise
        it is the algebra's table."""
        walk = self._weight_walk if weight_zero and n <= self.n_max + 1 else None
        if walk is None:
            return self.algebra.monomials_by_degree(n)
        L = self.algebra
        return exterior.basis_by_degree(L.signs, n, L.group, L.degrees, L.degree_sums, *walk)

    def _layout(self, n, weight_zero):
        """({deg: [(M, w), ...]}, {deg: {(M, w): index in the sector}}) for the
        sectors of C^n in K (weight_zero) or outside it, in degree order.

        The pairs come from the table of n-monomials by degree of that side
        (_monomials), one sector key per (monomial degree, module degree),
        each kept by its vanishing certificate; each sector lists its pairs
        in basis order."""
        if (n, weight_zero) not in self._layouts:
            g = self.algebra.group
            memo = self._sector_keys
            vecs = _vectors_by_degree(self.module)
            found = {}
            for md, monos in self._monomials(n, weight_zero).items():
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

    def sector(self, n, deg):
        """(pairs, {pair: index}) of the sector deg of C^n, from the layout of
        its side of K."""
        sectors, index = self._layout(n, self.vanishing_certificate(deg) is None)
        return sectors.get(deg, []), index.get(deg, {})

    @cached_property
    def torus(self):
        """The verified inner torus pairs (x, chi) of (L, V), as the module
        keeps them: a sector whose degree D has chi(D) != 0 for one of them
        has zero cohomology."""
        return self.module.torus

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
        """The sector blocks of delta(n) on one side of K, each from the row
        rule of the coboundary through sector_map.  The rows of one
        monomial N lie in one sector per module degree, so _sub_terms(N) is
        kept for the side when the module has more than one vector."""
        signs, action = self.algebra.signs, self._action
        sub = partial(_sub_terms, signs, self.algebra.bracket_terms)
        if self.module.dim > 1:
            sub = cache(sub)

        def row(N, w2):
            for r, idx in enumerate(N):
                terms = action[idx].get(w2)
                if terms:
                    M = N[:r] + N[r + 1 :]
                    # (-1)^r prod_{t>r} eps(a_t, a_r); eps(a_r, v_w) is in the term
                    rsign = -1 if r % 2 else 1
                    for t in N[r + 1 :]:
                        rsign *= signs[t][idx]
                    for w, c in terms:
                        yield (M, w), rsign * c
            for mono, c in sub(N).items():
                yield (mono, w2), c

        degrees = set(self._layout(n, weight_zero)[0]) | set(self._layout(n + 1, weight_zero)[0])
        return {deg: self.sector_map(n, deg, n + 1, deg, row) for deg in sorted(degrees)}

    def sector_map(self, n, deg, m, target, rows):
        """Matrix of a map from the sector deg of C^n to the sector target
        of C^m, one row per target pair: rows(N, w2) yields the terms
        ((M, w), coefficient) of the value at (N, w2) on the basis cochains
        (M, w).  The blocks of delta, theta_A, C_V and the contracting
        homotopy are all built here.  A term outside the source sector
        raises ShapeError."""
        at = self.sector(n, deg)[1]
        pairs = self.sector(m, target)[0]
        ent = {}
        for r, (N, w2) in enumerate(pairs):
            for pair, c in rows(N, w2):
                col = at.get(pair)
                if col is None:
                    raise ShapeError(
                        "entry (%d, %s) of sector %s leaves its degree sector" % (r, pair, deg))
                ent[(r, col)] = ent.get((r, col), 0) + c
        return RationalSparseMatrix(len(pairs), len(at), ent)

    def delta(self, n):
        """Full matrix of the coboundary C^n -> C^{n+1}: the sector blocks of
        both sides of K laid end to end in degree order, so that a sector's
        positions follow those of every smaller degree."""
        blocks = {**self._blocks(n, True), **self._blocks(n, False)}
        return RationalSparseMatrix.block_diag(blocks[deg] for deg in sorted(blocks))

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
        at = self.sector(g.level, g.degree)[1]
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
        pairs = self.sector(n, deg)[0]
        vals = {}
        for k, c in vec.items():
            M, w = pairs[k]
            vals.setdefault(M, {})[w] = c
        return make_cochain(self.algebra, self.module, n, vals)

    # ----------------------------------------------------------------- results

    def cohomology(self):
        """Ranks of the sectors in the inner-weight-zero kernel K.  Every other
        sector vanishes; CohomologyResult.vanishing lists them with their
        certificates, and dims ranks them, only when asked."""
        res = CohomologyResult(self)
        for n in range(self.n_max + 1):
            level = {}
            # a degree missing from C^n has z = b = 0
            for deg in self._layout(n, True)[0]:
                z, b = self.sector_ranks(n, deg)
                level[deg] = (z, b, z - b)
            res.levels[n] = level
        return res

    def sector_ranks(self, n, deg):
        """(dim Z, dim B) of the sector deg of C^n."""
        z = len(self.sector(n, deg)[0]) - self.delta_sector(n, deg).rank()
        b = self.delta_sector(n - 1, deg).rank() if n > 0 else 0
        return z, b

    def representatives(self, n, deg):
        """Verified cocycle representatives spanning H^n in one sector.

        The kernel of delta(n) has one vector per free column of its rref,
        1 there and 0 at the other free columns, and the image of
        delta(n - 1) lies in that kernel; so spans inside the kernel are
        compared on the free columns alone.  The free columns that leave the
        span of the image (one elimination of its columns) are chosen, and
        only their kernel vectors are built.

        Each representative g must pass is_cocycle, their count must be
        dim Z - dim B, and rank [delta(n - 1) | g_1 .. g_k] must be
        rank delta(n - 1) + k: no nonzero combination of them is a
        coboundary.  That is one elimination per sector."""
        dn = self.delta_sector(n, deg)
        piv_cols, piv_rows = dn.rref()
        pivots = set(piv_cols)
        free = [c for c in range(dn.cols) if c not in pivots]
        at = {f: k for k, f in enumerate(free)}
        # delta(-1) is the zero map into C^0
        prev = self.delta_sector(n - 1, deg) if n > 0 else RationalSparseMatrix(dn.cols, 0)
        image = RationalSparseMatrix(prev.cols, len(free), {
            (c, at[r]): v for (r, c), v in prev.entries.items() if r in at
        })
        span = SpanTracker.of_rref(*image.rref())
        rank = span.dim
        chosen = [f for k, f in enumerate(free) if span.add({k: 1})]
        if len(chosen) != len(free) - rank:
            raise CochainError("representative count differs from dim Z - dim B")
        reps = []
        for f in chosen:
            g = self.cochain_from_vector(n, kernel_vector(piv_cols, piv_rows, f), deg)
            if not is_cocycle(g):
                raise CochainError("representative fails the cocycle check")
            reps.append(g)
        stacked = dict(prev.entries)
        for j, g in enumerate(reps):
            stacked.update(((r, prev.cols + j), c) for r, c in self.cochain_vector(g).items())
        if RationalSparseMatrix(prev.rows, prev.cols + len(reps), stacked).rank() != (
                prev.rank() + len(reps)):
            raise CochainError("a combination of the representatives is a coboundary")
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
    vanishing(n): {deg: (x, chi)} for the sectors an inner torus element
    kills (h = 0); they enter levels[n] once dims(n) has ranked them."""

    def __init__(self, cx):
        self.complex = cx
        self.levels = {}
        self._vanishing = {}  # n -> vanishing(n)

    def vanishing(self, n):
        """{deg: (x, chi)} for the sectors of C^n, 0 <= n <= n_max, outside
        K, in degree order, each with its vanishing certificate; listed from
        the full table of n-monomials on the first call."""
        if n not in self._vanishing:
            cx = self.complex
            self._vanishing[n] = {
                d: c for d in cx.sector_degrees(n) if (c := cx.vanishing_certificate(d))
            } if 0 <= n <= cx.n_max else {}
        return self._vanishing[n]

    def dims(self, n):
        """{deg: (z, b, h)} for every sector of C^n, in degree order.  The
        vanishing sectors are ranked the first time; one with z != b
        contradicts its certificate and raises CochainError."""
        level = self.levels.get(n, {})
        pending = [deg for deg in self.vanishing(n) if deg not in level]
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

    def total(self, n):
        """dim H^n, summed over the ranked sectors: h is 0 on every vanishing
        sector, so none of them is ranked."""
        return sum(t[2] for t in self.levels.get(n, {}).values())

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
    """Basis of {g in C^n : A.g = 0 for all A in the given homogeneous span},
    in the (degree, pivot) echelon basis.  Each sector of C^n is solved
    apart: the common kernel, from graded_kernel, of the theta blocks on it
    of the echelon basis vectors A of the span.  C^n is zero for n < 0."""
    if n < 0:
        return []
    gr = L.group
    cx = CochainComplex(L, V, n)
    thetas = [_theta(L, V, avec) for avec in graded_echelon(L.degrees, sub_vectors)]
    out = []
    for gamma in cx.sector_degrees(n):
        blocks = [cx.sector_map(n, gamma, n, gr.add(gamma, alpha), rows(gamma))
                  for alpha, rows in thetas]
        size = len(cx.sector(n, gamma)[0])
        out.extend(cx.cochain_from_vector(n, vec, gamma)
                   for vec in graded_kernel([gamma] * size, blocks))
    return out
