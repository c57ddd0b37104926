"""Reference span constructions: one echelon tracker per degree, and the
center as the kernel of one row per (j, k).

The engine takes both from algebra.graded_subquotient; tests compare it
with these.
"""

from epslie.algebra import degree_of_vector, split_components
from epslie.exactlin import RationalSparseMatrix, SpanTracker, vec_is_zero


def graded_echelon(group, degrees, vectors):
    """Echelon basis of a span of homogeneous vectors: one SpanTracker per
    degree, their bases joined in degree order."""
    trackers = {}
    for v in vectors:
        if vec_is_zero(v):
            continue
        d = degree_of_vector(group, degrees, v)
        trackers.setdefault(d, SpanTracker()).add(v)
    out = []
    for d in sorted(trackers):
        out.extend(trackers[d].basis())
    return out


def center(L):
    """Echelon basis of {x : <x, e_j> = 0 for all j}; row (j, k) holds the
    coefficient of e_k in <x, e_j>."""
    rowdex = {}
    ent = {}
    for i in range(L.dim):
        for j in range(L.dim):
            for k, c in L.bracket_basis(i, j).items():
                r = rowdex.setdefault((j, k), len(rowdex))
                ent[(r, i)] = c
    mat = RationalSparseMatrix(len(rowdex), L.dim, ent)
    vecs = []
    for v in mat.kernel_basis():
        vecs.extend(split_components(L.group, L.degrees, v).values())
    return graded_echelon(L.group, L.degrees, vecs)
