"""Highest-weight combinatorics for gl(m|n): when do all Casimir operators
without constant term vanish?

Everything runs on the coordinates L_i of a weight on the diagonal Cartan
basis, the shifted values ell_i = sigma_i L_i + r_i (r from the half-sum of
even-minus-odd positive roots), and the supersymmetric power sums
Q_s = sum sigma_i (ell_i^s - r_i^s).  The exact finite criterion is a
multiset matching between the shifted top-block values and the bottom-block
r-values and vice versa; it is equivalent to the vanishing of every Q_s.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .grading import Record


class WeightError(ValueError):
    pass


def _coordinate(x):
    """x as an exact Fraction; an int or a Fraction only, never a float, a
    bool or a string."""
    if type(x) is not int and type(x) is not Fraction:
        raise WeightError("weight coordinate %r is not an int or a Fraction" % (x,))
    return Fraction(x)


class GlWeight(Record):
    """A weight of gl(m|n) by its coordinates L on the diagonal Cartan basis,
    kept as Fractions."""

    __slots__ = ("m", "n", "L")

    def __init__(self, m, n, L):
        if m < 1 or n < 1:
            raise WeightError("need m, n >= 1")
        if len(L) != m + n:
            raise WeightError("weight needs %d coordinates" % (m + n))
        self._set(m=m, n=n, L=tuple(map(_coordinate, L)))


def sigma(m, n, i):
    """Block sign, 1-indexed: +1 on the first m slots, -1 after."""
    if not 1 <= i <= m + n:
        raise WeightError("index out of range")
    return 1 if i <= m else -1


def rho_values(m, n):
    """r_i = sigma_i * rho(X_ii) as exact rationals."""
    sig = [sigma(m, n, i) for i in range(1, m + n + 1)]
    out = []
    for k in range(m + n):
        after = sum(sig[k + 1 :])
        before = sum(sig[:k])
        out.append(Fraction(after - before, 2))
    return out


def ell_values(w: GlWeight):
    r = rho_values(w.m, w.n)
    return [
        sigma(w.m, w.n, i + 1) * w.L[i] + r[i] for i in range(w.m + w.n)
    ]


def q_s(w: GlWeight, s):
    """Supersymmetric power sum evaluated at the shifted weight."""
    if s < 1:
        raise WeightError("s must be >= 1")
    r = rho_values(w.m, w.n)
    ell = ell_values(w)
    total = Fraction(0)
    for i in range(w.m + w.n):
        total += sigma(w.m, w.n, i + 1) * (ell[i] ** s - r[i] ** s)
    return total


def all_casimirs_vanish(w: GlWeight):
    """Multiset criterion: {ell_top, r_bottom} == {r_top, ell_bottom}."""
    r = rho_values(w.m, w.n)
    ell = ell_values(w)
    left = sorted(ell[: w.m] + r[w.m :])
    right = sorted(r[: w.m] + ell[w.m :])
    return left == right


def matched_pairs_count(w: GlWeight):
    """Number of atypicality matchings ell_i = ell_{m+j} across the blocks."""
    ell = ell_values(w)
    top = ell[: w.m]
    bot = ell[w.m :]
    values = set(top) | set(bot)
    return sum(min(top.count(v), bot.count(v)) for v in values)


def is_dominant(w: GlWeight):
    """L_i - L_{i+1} in N within each block (finite-dimensionality pattern)."""
    ranges = list(range(0, w.m - 1)) + list(range(w.m, w.m + w.n - 1))
    for i in ranges:
        d = w.L[i] - w.L[i + 1]
        if d.denominator != 1 or d < 0:
            return False
    return True


def enumerate_family(m, n, branch=None, free=()):
    """Fill the determined block of a maximally atypical dominant weight.

    m == n: free = (L_1..L_m); the bottom block is the reversed negation.
    m > n:  branch k in 0..n, free = (L_1..L_m) with the forced plateau
            L_{n+1-k} = ... = L_{m-k} = n-k.
    m < n:  branch h in 0..m, free = (L_{m+1}..L_{m+n}) with the forced
            plateau L_{m+1+h} = ... = L_{n+h} = -(m-h).
    The output is verified: dominant, sum zero, all Casimirs vanish.
    """
    free = [_coordinate(x) for x in free]
    if m == n:
        if len(free) != m:
            raise WeightError("need the %d top coordinates" % m)
        L = list(free) + [-free[m - i] for i in range(1, m + 1)]
    elif m > n:
        k = branch
        if k is None or not 0 <= k <= n:
            raise WeightError("branch k must lie in 0..n")
        if len(free) != m:
            raise WeightError("need the %d top coordinates" % m)
        for p in range(n + 1 - k, m - k + 1):  # 1-indexed plateau positions
            if free[p - 1] != n - k:
                raise WeightError(
                    "plateau forces L_%d = %d" % (p, n - k)
                )
        L = list(free)
        for i in range(1, n + 1):
            if i <= k:
                L.append(-free[m - i])
            else:
                L.append(-free[n - i] - (m - n))
    else:
        h = branch
        if h is None or not 0 <= h <= m:
            raise WeightError("branch h must lie in 0..m")
        if len(free) != n:
            raise WeightError("need the %d bottom coordinates" % n)
        for p in range(m + 1 + h, n + h + 1):
            if free[p - m - 1] != -(m - h):
                raise WeightError(
                    "plateau forces L_%d = %d" % (p, -(m - h))
                )
        bottom = list(free)
        L = []
        for i in range(1, m + 1):
            if i <= m - h:
                L.append(-bottom[m + n - i - m] + (n - m))
            else:
                L.append(-bottom[2 * m - i - m])
        L += bottom
    w = GlWeight(m, n, tuple(L))
    if not is_dominant(w):
        raise WeightError("free choices are not dominant")
    if sum(w.L) != 0:
        raise WeightError("constructed weight has nonzero coordinate sum")
    if not all_casimirs_vanish(w):
        raise WeightError("constructed weight fails the vanishing criterion")
    return w


def sl_variant(w: GlWeight):
    """Interpretation for the special linear subalgebra, m != n: subtract the
    trace part so the shifted diagonal generators sum to zero.  Vanishing
    verdicts agree with the gl computation on sum-zero weights."""
    if w.m == w.n:
        raise WeightError("the special linear reduction needs m != n")
    d = w.m - w.n
    tr = sum(w.L)
    L = tuple(
        w.L[i] - Fraction(sigma(w.m, w.n, i + 1), d) * tr
        for i in range(w.m + w.n)
    )
    return GlWeight(w.m, w.n, L)


def sl12_highest_weight(b, q):
    """Distinguished-Borel coordinates of the sl(1|2) module labelled (b, q)
    in the odd-simple-root convention (one odd reflection when b != q):
    returns the (m, n) = (1, 2) weight with coordinates (-2b', b'+q', b'-q')."""
    b = _coordinate(b)
    q = _coordinate(q)
    if b != q:
        b, q = b - Fraction(1, 2), q - Fraction(1, 2)
    return GlWeight(1, 2, (-2 * b, b + q, b - q))


def _dominant_tuples(size, bound, pinned):
    """The weakly decreasing integer tuples of length size with entries in
    [-bound, bound], in itertools.product order; pinned maps 0-based
    positions to the values they must take."""
    for t in itertools.product(range(-bound, bound + 1), repeat=size):
        if any(t[p] != v for p, v in pinned.items()):
            continue
        if all(t[i] >= t[i + 1] for i in range(size - 1)):
            yield t


def dominant_integral_weights(m, n, bound):
    """All dominant weights with integer coordinates in [-bound, bound]."""
    bottoms = list(_dominant_tuples(n, bound, {}))
    return [GlWeight(m, n, top + bot)
            for top in _dominant_tuples(m, bound, {}) for bot in bottoms]


def family_images(m, n, bound):
    """All enumerate_family outputs with integer entries within the bound."""
    # (branch, pinned plateau of the free block) for each case of
    # enumerate_family; the free block has max(m, n) entries
    if m == n:
        cases = [(None, {})]
    elif m > n:
        cases = [(k, {p - 1: n - k for p in range(n + 1 - k, m - k + 1)})
                 for k in range(n + 1)]
    else:
        cases = [(h, {p - m - 1: -(m - h) for p in range(m + 1 + h, n + h + 1)})
                 for h in range(m + 1)]
    seen = set()
    for branch, pinned in cases:
        for free in _dominant_tuples(max(m, n), bound, pinned):
            try:
                w = enumerate_family(m, n, branch=branch, free=free)
            except WeightError:
                continue
            if all(-bound <= x <= bound for x in w.L):
                seen.add(w.L)
    return seen
