"""Invariant multilinear forms, Casimir operators and the homotopy test.

A Casimir element never appears as an element of the enveloping algebra
here: an invariant r-linear form phi on the coadjoint module determines the
operator C_V = sum phi(E'_{i_1},...,E'_{i_r}) rho(E_{i_r})...rho(E_{i_1})
together with the partial operators C_i (products of r-1 representation
matrices), and those two are all the vanishing criterion and its homotopy
operator need.  Forms are solved on the monomials of inner weight zero only:
an inner torus element (gmodule.inner_torus) acts on every other monomial
as a nonzero scalar, so an invariant form vanishes there.  The homotopy
identity is checked one degree sector of the cochain complex at a time, on
the blocks CochainComplex.sector_map builds from row rules.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .cohomology import CochainComplex
from .exactlin import RationalSparseMatrix, rational, rows_kernel
from .exterior import arrangements, canonicalize
from .gmodule import (
    GradedModule,
    coadjoint,
    intertwiner_defect,
    leibniz_rows,
    power_monomials,
    torus_weight,
)


class CasimirError(ValueError):
    pass


class InvariantForm:
    """Homogeneous r-linear form on a graded module, values on basis tuples."""

    def __init__(self, module, arity, values):
        self.module = module
        self.arity = arity
        self.values = {tuple(k): rational(v) for k, v in values.items() if v}
        g = module.group
        degs = set()
        for k in self.values:
            degs.add(g.neg(g.sum(module.degrees[i] for i in k)))
        if len(degs) > 1:
            raise CasimirError("form is not homogeneous")
        self.degree = degs.pop() if degs else g.zero()

    def __call__(self, *indices):
        return self.values.get(tuple(indices), 0)

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

    phi is fixed by psi(m) = phi(m) on a basis of monomials m, and is
    invariant exactly when psi . rho(e_i) = 0 for every i, with rho the
    Leibniz action of gmodule.leibniz_rows, whose integer rows are each a
    positive multiple of that equation.  A row meets one degree only, so
    with the monomials ordered by degree the kernel vectors are homogeneous
    and come out in degree order.

    Only the monomials of inner weight zero are unknowns.  x of a verified
    pair (x, chi) of M.torus, which M solves once, is even of degree 0 and
    acts on each basis vector of M as chi(deg), so it acts on a monomial m as
    chi(deg m) * id, and invariance forces psi(m) = 0 where chi(deg m) != 0.
    The row of e_i at m meets the degree deg m + deg e_i, so only the rows
    whose source m has weight -chi(deg e_i) touch the unknowns; they are
    built and eliminated once.  The system is the full one's weight-zero
    degree blocks, rows in the same order, so the forms are the same.
    Without a torus every monomial is an unknown.

    symmetry "none": the monomials are all ordered r-tuples, and psi = phi.
    "eps_skew" or "eps_symmetric": they are the canonical r-monomials of the
    eps-power (gmodule.power_monomials), which is not built, and
    psi(m) = phi(symmetrization of m).  Each psi gives
    phi(arr) = sign(arr) psi(m) P(m) / r! on the distinct arrangements of
    the monomials m in its support.
    """
    if r < 1:
        raise CasimirError("arity must be >= 1")
    if symmetry not in ("none", "eps_symmetric", "eps_skew"):
        raise CasimirError("unknown symmetry option %r" % symmetry)
    if symmetry == "none":
        g = M.group
        table = None
        degree = {T: g.sum(M.degrees[t] for t in T)
                  for T in itertools.product(range(M.dim), repeat=r)}
        monos = sorted(degree, key=degree.get)
        degrees = [degree[T] for T in monos]
        repeats = [1] * len(monos)
    else:
        table, monos, degrees, repeats = power_monomials(M, r, symmetry == "eps_symmetric")
    chis = [chi for _, chi in M.torus]
    weight = {d: tuple(torus_weight(chi, d) for chi in chis) for d in set(degrees)}
    at_weight = {}
    for m, d, p in zip(monos, degrees, repeats):
        at_weight.setdefault(weight[d], []).append((m, p))
    kept = at_weight.get((0,) * len(chis), [])
    monos = [m for m, _ in kept]
    repeats = [p for _, p in kept]
    sources = [[m for m, _ in at_weight.get(tuple(-torus_weight(chi, d) for chi in chis), ())]
               for d in M.algebra.degrees]
    rows = [row for _, act in leibniz_rows(M, table, monos, repeats, sources) for row in act]
    out = []
    for kv in rows_kernel(rows, len(monos)):
        if table is None:
            values = {monos[b]: c for b, c in kv.items()}
        else:
            values = {arr: Fraction(s * c * repeats[b], factorial(r))
                      for b, c in kv.items() for s, arr in arrangements(table, monos[b])}
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
    # graded-central: C_V is an intertwiner V -> V of degree eta
    bad = intertwiner_defect(op, V, V, eta)
    if bad is not None:
        raise CasimirError("operator is not graded-central (fails at %s)" % L.labels[bad])
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


def homotopy_matrix(C: CasimirOperator, cx: CochainComplex, n, deg):
    """Matrix of the contracting map built from the partial operators,
    (d_n g)(T) = sum_i eps(a_i, gamma) C_i . g(E_i, T), from the sector
    gamma = deg of C^n to the sector gamma + eta of C^{n-1}, with eta the
    degree of C_V.  Its row at T reads g at the monomial that (i,) + T
    canonicalizes to; eps(a_i, gamma) is taken once per index."""
    if n < 1:
        raise CasimirError("homotopy operator needs n >= 1")
    L = cx.algebra
    partials = [part.row_dicts() for part in C.partials]
    eps = [L.factor.eps(a, deg) for a in L.degrees]

    def rows(T, w2):
        for i, part in enumerate(partials):
            row = part[w2]
            if row:
                sg, M = canonicalize(L.signs, (i,) + T)
                if sg:
                    for w, c in row.items():
                        yield (M, w), eps[i] * sg * c

    return cx.sector_map(n, deg, n - 1, L.group.add(deg, C.degree), rows)


def casimir_cochain_matrix(C: CasimirOperator, cx: CochainComplex, n, deg):
    """Matrix of g -> C_V . g from the sector deg of C^n to the sector
    deg + eta, with eta the degree of C_V: the rows of C_V."""
    op = C.operator.row_dicts()
    return cx.sector_map(n, deg, n, cx.algebra.group.add(deg, C.degree),
                         lambda N, w2: (((N, w), c) for w, c in op[w2].items()))


def verify_homotopy_identity(C: CasimirOperator, cx: CochainComplex, n):
    """Exact matrix identity d_{n+1} delta^n + delta^{n-1} d_n = (C_V)_c on
    C^n, one source sector gamma at a time: both sides map it to the sector
    gamma + eta, whose delta^{n-1} block is taken."""
    if n < 1:
        raise CasimirError("identity is stated for n >= 1")
    add = cx.algebra.group.add
    for deg in cx.sector_degrees(n):
        lhs = homotopy_matrix(C, cx, n + 1, deg).multiply(cx.delta_sector(n, deg))
        lhs = lhs.add(cx.delta_sector(n - 1, add(deg, C.degree))
                      .multiply(homotopy_matrix(C, cx, n, deg)))
        if lhs != casimir_cochain_matrix(C, cx, n, deg):
            return False
    return True
