"""Reference span constructions: one echelon tracker per degree, the
center as the kernel of one row per (j, k), intertwiners as the kernel of
the equations F rho_V(e_i) - eps(phi, alpha_i) rho_W(e_i) F = 0, and
invariant cochains as the kernel of the equations (A.g)(M) = 0, with A.g
evaluated on every monomial of the level.

The engine takes the spans from algebra.graded_subquotient, and the
intertwiners and invariant cochains from algebra.graded_kernel; tests
compare them with these.
"""

from epslie import exterior
from epslie.algebra import degree_of_vector, split_components
from epslie.cohomology import Cochain, components, make_cochain
from epslie.exactlin import (
    ONE,
    RationalSparseMatrix,
    SpanTracker,
    rows_kernel,
    vec_axpy,
    vec_clean,
    vec_is_zero,
)

from _sectors import full_basis


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


def intertwiner_space(V, W, phi_degree):
    """Kernel basis of the equation system of F rho_V(A) = eps(phi, alpha)
    rho_W(A) F, one unknown per entry (r, c) of degree phi."""
    L = V.algebra
    g = V.group
    phi = g.reduce(phi_degree)
    unknowns = []
    undex = {}
    for r in range(W.dim):
        for c in range(V.dim):
            if g.reduce(W.degrees[r]) == g.add(phi, V.degrees[c]):
                undex[(r, c)] = len(unknowns)
                unknowns.append((r, c))
    rows = {}  # (i, row, col) of F rho_V(e_i) - e rho_W(e_i) F = 0
    for i in range(L.dim):
        e = V.factor.eps(phi, L.degrees[i])
        for (r, c) in unknowns:
            u = undex[(r, c)]
            # (F rho_V)[r, v] picks up F[r, c] rho_V[c, v]
            for v in range(V.dim):
                coeff = V.action[i].get(c, v)
                if coeff:
                    row = rows.setdefault((i, r, v), {})
                    row[u] = row.get(u, 0) + coeff
            # (rho_W F)[w, c] picks up rho_W[w, r] F[r, c]
            for w in range(W.dim):
                coeff = W.action[i].get(w, r)
                if coeff:
                    row = rows.setdefault((i, w, c), {})
                    row[u] = row.get(u, 0) - e * coeff
    return [RationalSparseMatrix(W.dim, V.dim, {unknowns[u]: c for u, c in kv.items()})
            for kv in rows_kernel(list(rows.values()), len(unknowns))]


def act(avec, g):
    """A.g on every canonical monomial of the level:
    (A.g)(A_1..A_n) = A.g(A_1..A_n) - sum_r eps(alpha, gamma + a_1+..+a_{r-1})
    g(A_1,..,<A,A_r>,..,A_n)."""
    L, V = g.algebra, g.module
    alpha = degree_of_vector(L.group, L.degrees, avec)
    vals = {}
    for gamma, piece in components(g).items():
        for N in exterior.basis(L.signs, g.level):
            acc = vals.setdefault(N, {})
            if N in piece.values:
                vec_axpy(acc, ONE, V.action_matrix(avec).apply(piece.values[N]))
            prefix = gamma
            for r, idx in enumerate(N):
                e = L.factor.eps(alpha, prefix)
                for k, c in L.bracket(avec, {idx: ONE}).items():
                    sg, mono = exterior.canonicalize(L.signs, N[:r] + (k,) + N[r + 1:])
                    if sg and mono in piece.values:
                        vec_axpy(acc, -e * c * sg, piece.values[mono])
                prefix = L.group.add(prefix, L.degrees[idx])
    return make_cochain(L, V, g.level, vals)


def invariant_cochains(L, V, n, sub_vectors):
    """Kernel basis of the system (A.g)(M)_w = 0, one row per (A, M, w),
    over the basis cochains of C^n."""
    basis = full_basis(L, V, n)
    rows = {}  # (t, monomial, w) -> {column: coefficient}
    vecs = graded_echelon(L.group, L.degrees, [vec_clean(v) for v in sub_vectors])
    for t, avec in enumerate(vecs):
        for col, (M, w) in enumerate(basis):
            deg = L.group.sub(V.degrees[w], L.group.sum(L.degrees[i] for i in M))
            res = act(avec, Cochain(L, V, n, {M: {w: ONE}}, deg))
            for mono, vv in res.values.items():
                for w2, c in vv.items():
                    rows.setdefault((t, mono, w2), {})[col] = c
    out = []
    for kv in rows_kernel(list(rows.values()), len(basis)):
        vals = {}
        for k, c in kv.items():
            M, w = basis[k]
            vals.setdefault(M, {})[w] = c
        out.append(make_cochain(L, V, n, vals))
    return out
