"""Monomial bases of the exterior powers of a graded space, with signs.

basis(), basis_by_degree() and canonicalize() read the sign table of the
space, signs[i][j] = eps(deg e_i, deg e_j) from CommutationFactor.sign_table,
whose diagonal is the parity of each basis element.  A monomial is a weakly
increasing tuple of basis indices; an index of parity +1 may appear at most
once, an index of parity -1 may repeat.  canonicalize() sorts an arbitrary
index tuple into this form, accumulating -signs[a][b] per adjacent swap,
which is exactly the skew-symmetry sign convention used by the cochain
complex.  basis_by_degree() is the one walk of the monomial tree: it groups
the monomials by degree and builds the per-level tables of
EpsLieAlgebra.monomials_by_degree; basis() is its ungraded case.  Given an
int weight per index and a set of target sums, the same walk lists only the
monomials whose weight sum is a target, pruning every prefix from which no
target can be reached (weight_reach); the cochain complex lists its
inner-weight-zero monomials this way.  arrangements() lists the distinct
orderings of a monomial with their signs.
"""

from __future__ import annotations

from .grading import GradingGroup

Monomial = tuple  # weakly increasing indices

_UNGRADED = GradingGroup()


def basis(signs, n):
    """All canonical n-monomials over the basis of the sign table: the one
    sector of basis_by_degree when every index has the same degree."""
    return basis_by_degree(signs, n, _UNGRADED, [()] * len(signs)).get((), [])


def basis_by_degree(signs, n, group, degrees, sums=None, weights=None, targets=None,
                    reach=None):
    """The canonical n-monomials grouped by degree: {deg M: [M, ...]}, each
    list in lexicographic basis order, keys in order of first appearance.

    degrees[i] is the degree of index i in the grading group.  Each prefix
    carries its degree, and each distinct (prefix degree, index degree) pair
    is added once; sums, when given, is that memo, kept by the caller.
    Monomials are weakly increasing tuples in lexicographic basis order, so
    sorting any merge of these lists gives basis order again.

    With weights (one int per index) and targets (a set of ints), only the
    monomials whose weight sum lies in targets are listed, in the same
    order: a prefix is extended by an index only while some target minus its
    sum stays in the reach table, and the last index is looked up by weight.
    reach, when given, is weight_reach(signs, weights, m) for some m >= n - 1,
    kept by the caller."""
    if n <= 0:
        return {group.zero(): [()]} if n == 0 and (weights is None or 0 in targets) else {}
    sums = {} if sums is None else sums
    out = {}
    dim = len(signs)
    pruned = weights is not None
    if pruned:
        reach = weight_reach(signs, weights, n - 1) if reach is None else reach
        at_weight = {}
        for i, w in enumerate(weights):
            at_weight.setdefault(w, []).append(i)
    else:
        weights = [0] * dim

    def viable(start, left, total):
        """The indices i >= start that can follow a prefix of weight total
        with left more slots after them."""
        if not pruned:
            return range(start, dim)
        if not left:
            return sorted(i for t in targets for i in at_weight.get(t - total, ()) if i >= start)
        need = [t - total for t in targets]
        rows = reach[left]
        found = []
        for i in range(start, dim):
            later = rows[i + 1 if signs[i][i] == 1 else i]
            w = weights[i]
            for t in need:
                if t - w in later:
                    found.append(i)
                    break
        return found

    def extend(prefix, start, deg, total):
        left = n - len(prefix) - 1
        for i in viable(start, left, total):
            pair = (deg, degrees[i])
            d = sums.get(pair)
            if d is None:
                d = sums[pair] = group.add(*pair)
            mono = prefix + (i,)
            if left:
                # an index of parity +1 does not repeat
                extend(mono, i + 1 if signs[i][i] == 1 else i, d, total + weights[i])
            elif d in out:
                out[d].append(mono)
            else:
                out[d] = [mono]

    extend((), 0, group.zero(), 0)
    return out


def weight_reach(signs, weights, n):
    """reach[r][i] for r <= n: the weight sums of the canonical r-monomials
    over the indices >= i (an index of parity -1 may repeat), as frozensets;
    i runs to len(weights), where only the empty monomial, of sum 0, is
    left."""
    dim = len(weights)
    reach = [[frozenset((0,))] * (dim + 1)]
    for _ in range(n):
        prev = reach[-1]
        row = [frozenset()] * (dim + 1)
        for i in range(dim - 1, -1, -1):
            w = weights[i]
            row[i] = row[i + 1] | {w + s for s in prev[i + 1 if signs[i][i] == 1 else i]}
        reach.append(row)
    return reach


def canonicalize(signs, indices):
    """Sort an index tuple into canonical order with its sign.

    Returns (sign, monomial); sign == 0 when the tuple dies (a repeated
    index of parity +1).  Applying canonicalize to its own output returns
    (+1, same monomial).
    """
    arr = list(indices)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            sign *= -signs[arr[j - 1]][arr[j]]
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for k in range(1, len(arr)):
        if arr[k - 1] == arr[k] and signs[arr[k]][arr[k]] == 1:
            return 0, None
    return sign, tuple(arr)


def arrangements(signs, mono):
    """The distinct orderings of a monomial, each once and in sorted order,
    as (canonicalize sign, tuple)."""
    arrs = {()}
    for x in mono:
        arrs = {a[:j] + (x,) + a[j:] for a in arrs for j in range(len(a) + 1)}
    return [(canonicalize(signs, a)[0], a) for a in sorted(arrs)]


def super_dimension(p, q, n):
    """Dimension of the degree-n exterior power of a (p|q)-dimensional
    super space: sum_r C(p, r) * C(q + n - r - 1, n - r)."""
    from math import comb

    return sum(comb(p, r) * comb(q + n - r - 1, n - r) for r in range(0, n + 1))


def permutation_sign(perm):
    """(-1)^(inversions of perm): a reference for the tests."""
    inv = 0
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1
