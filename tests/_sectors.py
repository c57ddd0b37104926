"""Reference degree-sector split of a whole matrix, by position lists.

The engine lays out the sectors in K from a weight-pruned walk and the
others from EpsLieAlgebra.monomials_by_degree; tests cut the same blocks
from an assembled matrix with these helpers and compare.
The whole cochain basis of a level is built here apart from the engine, from
exterior.basis, so that the engine's sectors are checked against it.
"""

from bisect import bisect_left

from epslie import exterior
from epslie.exactlin import RationalSparseMatrix, ShapeError


def full_basis(L, V, n):
    """The basis cochains (M, w) of C^n(L, V): every canonical n-monomial M
    with every module vector w, the k-th monomial's pairs at k * dim V + w."""
    return [(M, w) for M in exterior.basis(L.signs, n) for w in range(V.dim)]


def pair_degree(L, V, pair):
    """deg v_w - deg M of the basis cochain (M, w)."""
    M, w = pair
    return L.group.sub(V.degrees[w], L.group.sum(L.degrees[i] for i in M))


def full_sector_positions(L, V, n):
    """{degree: positions in full_basis(L, V, n)}, in sorted degree order."""
    return sector_positions([pair_degree(L, V, p) for p in full_basis(L, V, n)])


def sector_positions(keys):
    """{key: sorted list of the indices holding it}, in sorted key order."""
    out = {}
    for k, key in enumerate(keys):
        out.setdefault(key, []).append(k)
    return dict(sorted(out.items()))


def split_sectors(mat, row_positions, col_positions):
    """Diagonal blocks {key: block} of a sector-preserving matrix, in one
    pass over its entries.

    row_positions and col_positions come from sector_positions and cover
    every row and column.  Each key of either gets a block, with no rows or
    no columns where the other side lacks it.  An entry whose row and
    column lie in different sectors raises ShapeError.
    """
    def sector_of(positions, size):
        where = [None] * size
        for key, ps in positions.items():
            for p in ps:
                where[p] = key
        return where

    row_keys = sector_of(row_positions, mat.rows)
    col_keys = sector_of(col_positions, mat.cols)
    keys = sorted(set(row_positions) | set(col_positions))
    ents = {key: {} for key in keys}
    for (r, c), v in mat.entries.items():
        key = col_keys[c]
        if row_keys[r] != key:
            raise ShapeError("entry (%d,%d) leaves its degree sector" % (r, c))
        rk = bisect_left(row_positions[key], r)
        ck = bisect_left(col_positions[key], c)
        ents[key][(rk, ck)] = v
    # pop, so that the entries are not held twice
    return {
        key: RationalSparseMatrix(
            len(row_positions.get(key, ())), len(col_positions.get(key, ())), ents.pop(key)
        )
        for key in keys
    }
