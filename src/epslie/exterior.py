"""Monomial bases of the exterior powers of a graded space, with signs.

A monomial is a weakly increasing tuple of basis indices; an index whose
degree has parity +1 (eps(d, d) = +1) may appear at most once, an index of
parity -1 may repeat.  canonicalize() sorts an arbitrary index tuple into
this form, accumulating -eps(a, b) per adjacent swap, which is exactly the
skew-symmetry sign convention used by the cochain complex.
"""

from __future__ import annotations

import itertools

Monomial = tuple  # weakly increasing indices


def basis(factor, degrees, n):
    """All canonical n-monomials over basis elements with the given degrees."""
    if n < 0:
        return []
    if n == 0:
        return [()]
    par = [factor.parity(d) for d in degrees]
    out = []

    def extend(prefix, start):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for i in range(start, len(degrees)):
            if prefix and prefix[-1] == i and par[i] == 1:
                continue
            prefix.append(i)
            extend(prefix, i)
            prefix.pop()

    extend([], 0)
    return out


def canonicalize(factor, degrees, indices):
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
            sign *= -factor.eps(degrees[arr[j - 1]], degrees[arr[j]])
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for k in range(1, len(arr)):
        if arr[k - 1] == arr[k] and factor.parity(degrees[arr[k]]) == 1:
            return 0, None
    return sign, tuple(arr)


def super_dimension(p, q, n):
    """Dimension of the degree-n exterior power of a (p|q)-dimensional
    super space: sum_r C(p, r) * C(q + n - r - 1, n - r)."""
    from math import comb

    return sum(comb(p, r) * comb(q + n - r - 1, n - r) for r in range(0, n + 1))


def shuffles(m, n):
    """Permutations of {0..m+n-1} increasing on the first m and last n slots,
    as (perm, sign) pairs; perm[i] is the source slot feeding slot i."""
    total = m + n
    out = []
    for left in itertools.combinations(range(total), m):
        right = tuple(i for i in range(total) if i not in left)
        perm = left + right
        out.append((perm, permutation_sign(perm)))
    return out


def permutation_sign(perm):
    inv = 0
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1
