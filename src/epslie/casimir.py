"""Invariant multilinear forms, Casimir operators and the homotopy test.

A Casimir element never appears as an element of the enveloping algebra
here: an invariant r-linear form phi on the coadjoint module determines the
operator C_V = sum phi(E'_{i_1},...,E'_{i_r}) rho(E_{i_r})...rho(E_{i_1})
together with the partial operators C_i (products of r-1 representation
matrices), and those two are all the vanishing criterion and its homotopy
operator need.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cohomology import CochainComplex
from .exactlin import RationalSparseMatrix
from .exterior import canonicalize
from .gmodule import GradedModule, coadjoint, eps_power


class CasimirError(ValueError):
    pass


class InvariantForm:
    """Homogeneous r-linear form on a graded module, values on basis tuples."""

    def __init__(self, module, arity, values):
        self.module = module
        self.arity = arity
        self.values = {tuple(k): Fraction(v) for k, v in values.items() if v}
        g = module.group
        degs = set()
        for k in self.values:
            degs.add(g.neg(g.sum(module.degrees[i] for i in k)))
        if len(degs) > 1:
            raise CasimirError("form is not homogeneous")
        self.degree = degs.pop() if degs else g.zero()

    def __call__(self, *indices):
        return self.values.get(tuple(indices), Fraction(0))

    def is_zero(self):
        return not self.values

    def __repr__(self):
        return "InvariantForm(arity %d, degree %s, %d values)" % (
            self.arity,
            self.degree,
            len(self.values),
        )


def invariant_multilinear_forms(M: GradedModule, r, symmetry="none"):
    """Exact basis of the invariant r-linear forms on M, ordered by degree.

    symmetry "none": the unknowns are the values on all ordered r-tuples of
    basis indices.  The invariance system is block-diagonal over the form
    degree, so each degree block is solved separately.

    symmetry "eps_skew" or "eps_symmetric": such a form phi is fixed by the
    functional psi(m) = phi(embedding of m) on P = eps_power(M, r, sym), and
    phi is invariant exactly when psi . rho_P(e_i) = 0 for every i, so the
    unknowns are the canonical monomials m of P.  Each kernel vector psi
    gives phi(arr) = sign(arr) psi(m) / #arrangements(m) on the arrangements
    of m, read with their signs from P's embedding.
    """
    if r < 1:
        raise CasimirError("arity must be >= 1")
    if symmetry not in ("none", "eps_symmetric", "eps_skew"):
        raise CasimirError("unknown symmetry option %r" % symmetry)
    if symmetry != "none":
        return _symmetric_forms(M, r, symmetry == "eps_symmetric")
    L = M.algebra
    g = M.group
    fac = M.factor
    by_deg = {}
    for T in itertools.product(range(M.dim), repeat=r):
        by_deg.setdefault(g.sum(M.degrees[t] for t in T), []).append(T)
    colmaj = [
        [sorted(col.items()) for col in m.columns()] for m in M.action
    ]

    out = []
    for D in sorted(by_deg):
        tuples = by_deg[D]
        pos = {T: k for k, T in enumerate(tuples)}
        eta = g.neg(D)
        rows = {}
        ent = {}

        def put(row_key, col, c):
            if not c:
                return
            rr = rows.setdefault(row_key, len(rows))
            v = ent.get((rr, col), Fraction(0)) + c
            if v:
                ent[(rr, col)] = v
            else:
                ent.pop((rr, col), None)

        for i in range(L.dim):
            src = by_deg.get(g.sub(D, L.degrees[i]), [])
            # eps(alpha, eta + m_{T_0}+..+m_{T_{k-1}})
            #     = eps(alpha, eta) * prod_{t<k} M.signs[i][T_t]
            e_eta = fac.eps(L.degrees[i], eta)
            for T in src:
                e = e_eta
                for k, tk in enumerate(T):
                    for (s, c) in colmaj[i][tk]:
                        U = T[:k] + (s,) + T[k + 1 :]
                        put(("inv", i, T), pos[U], e * c)
                    e *= M.signs[i][tk]
        mat = RationalSparseMatrix(len(rows), len(tuples), ent)
        for kv in mat.kernel_basis():
            out.append(InvariantForm(M, r, {tuples[k]: c for k, c in kv.items()}))
    return out


def _symmetric_forms(M, r, sym):
    """Invariant eps-symmetric (sym) or eps-skew r-linear forms on M, solved
    on the canonical monomials of eps_power(M, r, sym)."""
    P = eps_power(M, r, sym)
    # Row (i, a) of the stacked transposes: (psi . rho_P(e_i))(monomial a).
    # Each row meets columns of one degree only, so elimination stays inside
    # degree blocks: the kernel vectors are homogeneous and, with P's basis
    # ordered by degree, come out in the degree order of the "none" path.
    ent = {(i * P.dim + a, b): v
           for i, act in enumerate(P.action)
           for (b, a), v in act.entries.items()}
    system = RationalSparseMatrix(M.algebra.dim * P.dim, P.dim, ent)
    arrangements = P.embedding.columns()
    out = []
    for kv in system.kernel_basis():
        values = {}
        for b, c in kv.items():
            col = arrangements[b]
            for flat, s in col.items():
                arr = []
                for _ in range(r):
                    flat, x = divmod(flat, M.dim)
                    arr.append(x)
                values[tuple(reversed(arr))] = s * c / len(col)
        out.append(InvariantForm(M, r, values))
    return out


class CasimirOperator:
    def __init__(self, form, module, operator, partials, degree):
        self.form = form
        self.module = module
        self.operator = operator  # C_V
        self.partials = partials  # C_i as matrices on the module
        self.degree = degree

    def is_invertible(self):
        d = self.module.dim
        return d > 0 and self.operator.rank() == d

    def __repr__(self):
        return "CasimirOperator(degree %s on %r)" % (self.degree, self.module)


def casimir_operator(L, form: InvariantForm, V: GradedModule):
    """Assemble C_V and the partial operators from an invariant form on the
    coadjoint module; graded centrality of C_V is verified exactly."""
    if form.module.algebra is not L:
        raise CasimirError("form does not live over the given algebra")
    r = form.arity
    d = V.dim
    partials = [RationalSparseMatrix(d, d) for _ in range(L.dim)]
    ident = RationalSparseMatrix.identity(d)
    for key, c in sorted(form.values.items()):
        i = key[0]
        prod = ident
        # E_{i_r} ... E_{i_2} acting on V, leftmost factor first
        for t in range(r - 1, 0, -1):
            prod = prod.multiply(V.action[key[t]])
        partials[i] = partials[i].add(prod.scale(c))
    op = RationalSparseMatrix(d, d)
    for i in range(L.dim):
        if partials[i].entries:
            op = op.add(partials[i].multiply(V.action[i]))
    eta = form.degree
    for j in range(L.dim):
        e = L.factor.eps(L.degrees[j], eta)
        lhs = V.action[j].multiply(op)
        rhs = op.multiply(V.action[j]).scale(e)
        if lhs != rhs:
            raise CasimirError(
                "operator is not graded-central (fails at %s)" % L.labels[j]
            )
    return CasimirOperator(form, V, op, partials, eta)


def quadratic_invariant_forms(L):
    """Invariant bilinear forms on the coadjoint module, the raw material
    for quadratic Casimir operators."""
    return invariant_multilinear_forms(coadjoint(L), 2, "none")


def vanishing_witness(L, V, candidate_forms=None):
    """First Casimir operator from the candidates that is invertible on V.

    The construction has no constant term, so a witness certifies that the
    whole positive-degree cohomology with coefficients in V vanishes.
    Returns a CasimirOperator or None.
    """
    if candidate_forms is None:
        candidate_forms = quadratic_invariant_forms(L)
    for form in candidate_forms:
        if form.is_zero():
            continue
        cas = casimir_operator(L, form, V)
        if cas.is_invertible():
            return cas
    return None


def homotopy_matrix(C: CasimirOperator, cx: CochainComplex, n):
    """Matrix of the contracting map C^n -> C^{n-1} built from the partial
    operators: (d_n g)(A_2..A_n) = sum_i eps(eps_i, gamma) C_i . g(E_i, A_2..)."""
    if n < 1:
        raise CasimirError("homotopy operator needs n >= 1")
    L = cx.algebra
    V = cx.module
    rows = cx.index(n - 1)
    cols = cx.index(n)
    ent = {}
    for T in cx.monomials(n - 1):
        for i in range(L.dim):
            part = C.partials[i]
            if not part.entries:
                continue
            sg, mono = canonicalize(L.signs, (i,) + T)
            if not sg:
                continue
            # eps(a_i, gamma) for gamma = deg v_w - deg mono is
            # V.signs[i][w] * prod_{t in mono} L.signs[i][t]
            for t in mono:
                sg *= L.signs[i][t]
            for (w2, w), c in part.entries.items():
                key = (rows[(T, w2)], cols[(mono, w)])
                v = ent.get(key, Fraction(0)) + sg * V.signs[i][w] * c
                if v:
                    ent[key] = v
                else:
                    ent.pop(key, None)
    return RationalSparseMatrix(len(cx.basis(n - 1)), len(cx.basis(n)), ent)


def casimir_cochain_matrix(C: CasimirOperator, cx: CochainComplex, n):
    """Matrix of g -> C_V . g on C^n."""
    dex = cx.index(n)
    ent = {}
    for M in cx.monomials(n):
        for (w2, w), c in C.operator.entries.items():
            ent[(dex[(M, w2)], dex[(M, w)])] = c
    d = len(cx.basis(n))
    return RationalSparseMatrix(d, d, ent)


def verify_homotopy_identity(C: CasimirOperator, cx: CochainComplex, n):
    """Exact matrix identity d_{n+1} delta^n + delta^{n-1} d_n = (C_V)_c on C^n."""
    if n < 1:
        raise CasimirError("identity is stated for n >= 1")
    lhs = homotopy_matrix(C, cx, n + 1).multiply(cx.delta(n))
    lhs = lhs.add(cx.delta(n - 1).multiply(homotopy_matrix(C, cx, n)))
    return lhs == casimir_cochain_matrix(C, cx, n)
