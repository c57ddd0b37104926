"""Exact elimination kernel.

Rows are sparse dicts {column: int} with no stored zeros.  Elimination is
integer cross-multiplication followed by content removal, which keeps every
intermediate value exact and controls coefficient growth on the sparse
+-1-dominated matrices this package produces.  The two multipliers are
divided by their gcd first; the row that results is the same once its
content is removed.

The elimination runs forward only: a finished pivot row is never changed
again, so it keeps the pivots of the rows finished after it.

Pivoting is Markowitz-style and fully deterministic: the pivot row is the
shortest live row, ties broken by row index; its pivot column is the one
with the smallest (live column count, bit length of the entry, column).
Three structures keep each step from rescanning every row:

- a lazy heap of (row length, row index) finds the pivot row;
- a column -> row-index list finds the live rows holding the pivot column.
  A live row is added to a column's list when it gains that column, so the
  list may hold a row twice, or a row that has since lost the column,
  died or finished;
- the live column counts are updated only at the pivot row's columns:
  away from them pval*row - tval*prow holds the columns of row.

Stale heap and list entries are skipped when read.
"""

from heapq import heapify, heappop, heappush
from math import gcd

BACKEND = "python"


def _strip_normalize(row):
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def rref(rows):
    """Row echelon form over Q with integer rows, by forward elimination.

    rows: list of {col: int}.  Input dicts are not mutated.
    Returns (piv_cols, piv_rows) in elimination order.  Each returned row
    has gcd 1, a positive entry at its pivot column, and zeros at the pivots
    of the rows before it; it may hold the pivots of the rows after it.
    The rows are not reduced against each other, but the name rref stays:
    perfbench's tracer wraps exactlin._elim.rref.
    """
    work = []
    for r in rows:
        row = {c: v for c, v in r.items() if v}
        if row:
            work.append(_strip_normalize(row))
    alive = [True] * len(work)
    col_rows = {}
    for i, row in enumerate(work):
        for c in row:
            col_rows.setdefault(c, []).append(i)
    col_count = {c: len(held) for c, held in col_rows.items()}
    # Every live row has an entry (len(row), i) with its current length.
    heap = [(len(row), i) for i, row in enumerate(work)]
    heapify(heap)

    piv_cols, piv_rows = [], []
    while heap:
        length, best = heappop(heap)
        prow = work[best]
        if not alive[best] or len(prow) != length:
            continue
        alive[best] = False
        pcol = None
        pkey = None
        for c, v in prow.items():
            n = col_count[c] = col_count[c] - 1
            key = (n, (v if v > 0 else -v).bit_length(), c)
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
            tval = row.get(pcol)
            if tval is None or not alive[i]:
                continue
            g = gcd(pval, tval)
            pv, tv = pval // g, tval // g
            new = dict(row) if pv == 1 else {c: pv * v for c, v in row.items()}
            for c, v in prow.items():
                w = new.get(c)
                if w is None:
                    new[c] = -tv * v
                    col_count[c] += 1
                    col_rows[c].append(i)
                else:
                    w -= tv * v
                    if w:
                        new[c] = w
                    else:
                        del new[c]
                        col_count[c] -= 1
            work[i] = new
            if new:
                g = gcd(*new.values())
                if g > 1:
                    for c in new:
                        new[c] //= g
                if len(new) != len(row):
                    heappush(heap, (len(new), i))
            else:
                alive[i] = False
        piv_cols.append(pcol)
        piv_rows.append(prow)

    return piv_cols, piv_rows
