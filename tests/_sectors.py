"""Reference degree-sector split of a whole matrix, by position lists, and
a reference coboundary that sweeps the monomials of a sector.

The engine lays out the sectors in K from a weight-pruned walk and the
others from EpsLieAlgebra.monomials_by_degree; tests cut the same blocks
from an assembled matrix with these helpers and compare.
The whole cochain basis of a level is built here apart from the engine, from
exterior.basis, so that the engine's sectors are checked against it.
"""

from bisect import bisect_left

from epslie import exterior
from epslie.cohomology import _sector_monomials, _sub_terms, components, make_cochain
from epslie.exactlin import RationalSparseMatrix, ShapeError, vec_axpy


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


def sweep_coboundary(g):
    """d(g) read monomial by monomial: for each component of degree gamma,
    every (n+1)-monomial N of the sector gamma, with the first sum of the
    formula (signs from CommutationFactor.eps) and the second from
    _sub_terms, the assembly's bracket sum.  coboundary() pushes the same
    formula forward from the support of g instead."""
    L, V = g.algebra, g.module
    fac, gr = L.factor, L.group
    vals = {}
    for gamma, piece in components(g).items():
        for N in _sector_monomials(L, V, g.level + 1, [gamma]):
            acc = vals.setdefault(N, {})
            prefix = gamma
            for r, idx in enumerate(N):
                gv = piece.values.get(N[:r] + N[r + 1 :])
                if gv:
                    e = (-1 if r % 2 else 1) * fac.eps(prefix, L.degrees[idx])
                    vec_axpy(acc, e, V.apply_basis(idx, gv))
                prefix = gr.add(prefix, L.degrees[idx])
            for mono, coeff in _sub_terms(L.signs, L.bracket_terms, N).items():
                gv = piece.values.get(mono)
                if gv:
                    vec_axpy(acc, coeff, gv)
    return make_cochain(L, V, g.level + 1, vals)
