"""Exact elimination kernel.

Rows are sparse dicts {column: int} with no stored zeros.  Elimination is
integer cross-multiplication followed by content removal, which keeps every
intermediate value exact and controls coefficient growth on the sparse
+-1-dominated matrices this package produces.

Pivoting is Markowitz-style and fully deterministic: the pivot row is the
shortest live row, ties broken by row index; its pivot column is the one
with the smallest (live column count, bit length of the entry, column).
Two indexes keep each step from rescanning every live row: a lazy heap of
(row length, row index) finds the pivot row, and a column -> row-index list
finds the rows holding the pivot column.  Both may hold stale entries,
which are skipped when read.
"""

from heapq import heapify, heappop, heappush
from math import gcd

BACKEND = "python"


def _content(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _strip_normalize(row):
    g = _content(row)
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _combine(target, tval, pivot_row, pval):
    """Return pval*target - tval*pivot_row, content-normalized."""
    out = dict(target) if pval == 1 else {c: pval * v for c, v in target.items()}
    for c, v in pivot_row.items():
        w = out.get(c, 0) - tval * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return _strip_normalize(out)


def rref(rows):
    """Reduced row echelon form over Q with integer rows.

    rows: list of {col: int}.  Input dicts are not mutated.
    Returns (piv_cols, piv_rows), sorted by pivot column.  Each returned row
    has gcd 1, a positive entry at its pivot column, and zeros at every other
    pivot column: each new pivot row is also eliminated from the rows
    finished before it.
    """
    work = []
    for r in rows:
        row = {c: v for c, v in r.items() if v}
        if row:
            work.append(_strip_normalize(row))
    alive = [True] * len(work)
    col_count = {}
    # col_rows[c] lists every live row holding column c, perhaps twice, and
    # perhaps rows that have since lost c or died.
    col_rows = {}
    for i, row in enumerate(work):
        for c in row:
            col_count[c] = col_count.get(c, 0) + 1
            col_rows.setdefault(c, []).append(i)
    # Every live row has an entry (len(row), i) with its current length.
    heap = [(len(row), i) for i, row in enumerate(work)]
    heapify(heap)

    finished = []  # list of (piv_col, row)
    while heap:
        length, best = heappop(heap)
        prow = work[best]
        if not alive[best] or len(prow) != length:
            continue
        alive[best] = False
        for c in prow:
            col_count[c] -= 1
        pcol = None
        pkey = None
        for c, v in prow.items():
            key = (col_count[c], (v if v > 0 else -v).bit_length(), c)
            if pkey is None or key < pkey:
                pkey = key
                pcol = c
        if prow[pcol] < 0:
            for c in prow:
                prow[c] = -prow[c]
        pval = prow[pcol]

        # After this step no live row holds pcol, and none regains it.
        for i in sorted(set(col_rows.pop(pcol))):
            row = work[i]
            if not alive[i] or pcol not in row:
                continue
            for c in row:
                col_count[c] -= 1
            new = _combine(row, row[pcol], prow, pval)
            work[i] = new
            if new:
                for c in new:
                    col_count[c] = col_count.get(c, 0) + 1
                    if c not in row:
                        col_rows[c].append(i)
                if len(new) != len(row):
                    heappush(heap, (len(new), i))
            else:
                alive[i] = False
        for k, (fc, frow) in enumerate(finished):
            if pcol in frow:
                finished[k] = (fc, _combine(frow, frow[pcol], prow, pval))
        finished.append((pcol, prow))

    finished.sort(key=lambda t: t[0])
    return [t[0] for t in finished], [t[1] for t in finished]
