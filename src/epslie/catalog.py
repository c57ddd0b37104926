"""Built-in algebras and modules with fixed bases and normalizations.

Matrix algebras gl/sl/psl(m|n) carry the fine root-lattice grading on
Z^(m+n) (degree of E_ij is u_i - u_j, commutation form s s^T from the
parity vector), which refines the super grading and keeps every coboundary
matrix block-diagonal.  The rank-one superalgebra catalog (basis
Q+, Q-, Q3, B, V+, V-, W+, W-) comes in a consistently Z-graded flavour
(degrees 0,0,0,0,1,1,-1,-1) and a plain Z_2 flavour; its structure
constants are computed from the 3x3 matrix realization at build time.
Modules w1..w4 (eps-skew powers of v_half) and ts2 (the eps-symmetric
square of the adjoint) are built by gmodule.eps_power, the rest by tables.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .algebra import EpsLieAlgebra
from .exactlin import ONE, RationalSparseMatrix, rational, vec_axpy
from .cohomology import cochain_add, make_cochain
from .gmodule import (
    GradedModule,
    adjoint,
    coadjoint,
    eps_power,
    submodule_span,
    trivial,
)
from .grading import (
    CommutationFactor,
    GradingGroup,
    super_factor,
    super_z_factor,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# matrix superalgebras


def root_graded_factor(m, n):
    total = m + n
    s = [0] * m + [1] * n
    form = tuple(tuple(s[i] * s[j] for j in range(total)) for i in range(total))
    return CommutationFactor(GradingGroup(total, ()), form)


@functools.cache
def gl(m, n):
    """gl(m|n) on the elementary matrices, root-lattice graded."""
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    total = m + n
    fac = root_graded_factor(m, n)
    labels = ["E%d%d" % (i + 1, j + 1) for i in range(total) for j in range(total)]
    # E_ij has degree u_i - u_j
    degrees = [tuple((r == i) - (r == j) for r in range(total))
               for i in range(total) for j in range(total)]
    brackets = {}
    # [E_ij, E_kl] = delta_jk E_il - eps delta_li E_kj on the pairs a <= b
    for a, b in itertools.combinations_with_replacement(range(total * total), 2):
        (i, j), (k, l) = divmod(a, total), divmod(b, total)
        vec = {i * total + l: 1} if j == k else {}
        if l == i:
            x = k * total + j
            vec[x] = vec.get(x, 0) - fac.eps(degrees[a], degrees[b])
        vec = {x: c for x, c in vec.items() if c}
        if vec:
            brackets[(a, b)] = vec
    return EpsLieAlgebra(fac, labels, degrees, brackets)


@functools.cache
def _sl_data(m, n):
    G = gl(m, n)
    total = m + n
    sig = [1] * m + [-1] * n
    vecs = []
    for i in range(total):
        for j in range(total):
            if i != j:
                vecs.append({i * total + j: ONE})
    for a in range(total - 1):
        # supertrace-free diagonal: E_aa - E_{a+1,a+1}, or the sum at the
        # block junction
        c = 1 if sig[a] == sig[a + 1] else -1
        vecs.append({a * total + a: ONE, (a + 1) * total + (a + 1): -c})
    L, reps = G.subquotient(vecs)
    return L, reps, G


def sl(m, n):
    return _sl_data(m, n)[0]


def identity_vector_sl(m, n):
    """Coordinates of the identity matrix inside sl(n|n) (supertraceless
    only when m == n)."""
    if m != n:
        raise ValueError("the identity is supertraceless only for m == n")
    L, reps, G = _sl_data(m, n)
    total = m + n
    target = {i * total + i: ONE for i in range(total)}
    cols = RationalSparseMatrix.from_columns(reps, G.dim)
    sol = cols.image_membership(target)
    if sol is None:
        raise ValueError("identity not found in sl(n|n)")
    return sol


@functools.cache
def _psl_data(n):
    L, reps, G = _sl_data(n, n)
    ivec = identity_vector_sl(n, n)
    P, preps = L.subquotient([{a: ONE} for a in range(L.dim)], [ivec])
    return P, preps, L


def psl_nn(n):
    if n < 2:
        raise ValueError("psl(n|n) needs n >= 2")
    return _psl_data(n)[0]


def sl_plain(k):
    """Plain sl(k) with the root-lattice grading (epsilon identically 1)."""
    if k < 2:
        raise ValueError("need k >= 2")
    return _sl_data(k, 0)[0]


@functools.cache
def sl2():
    """sl(2) on (e, h, f) with a one-dimensional weight grading."""
    fac = CommutationFactor(GradingGroup(1, ()), ((0,),))
    labels = ["e", "h", "f"]
    degrees = [(2,), (0,), (-2,)]
    brackets = {
        (0, 2): {1: 1},
        (0, 1): {0: -2},
        (1, 2): {2: -2},
    }
    return EpsLieAlgebra(fac, labels, degrees, brackets)


def sl3():
    return sl_plain(3)


# ---------------------------------------------------------------------------
# the rank-one superalgebra sl(1|2)

_SL12_LABELS = ["Q+", "Q-", "Q3", "B", "V+", "V-", "W+", "W-"]


def _sl12_matrices():
    # 3x3 realization from (row, col, coeff) triples, 1-based; row/col 1 is
    # the even slot
    def m(*terms):
        return RationalSparseMatrix(3, 3, {(i - 1, j - 1): c for i, j, c in terms})

    return [
        m((2, 3, 1)),                                  # Q+
        m((3, 2, 1)),                                  # Q-
        m((2, 2, HALF), (3, 3, -HALF)),                # Q3
        m((1, 1, -1), (2, 2, -HALF), (3, 3, -HALF)),   # B
        m((2, 1, 1)),                                  # V+
        m((3, 1, 1)),                                  # V-
        m((1, 3, 1)),                                  # W+
        m((1, 2, -1)),                                 # W-
    ]


def _sl12_structure():
    mats = _sl12_matrices()
    fac = super_factor()
    par = [(0,)] * 4 + [(1,)] * 4

    # coordinates of a 3x3 matrix over the 8 basis matrices
    cols = []
    for m in mats:
        cols.append({r * 3 + c: v for (r, c), v in m.entries.items()})
    basis_mat = RationalSparseMatrix.from_columns(cols, 9)

    brackets = {}
    for a in range(8):
        for b in range(a, 8):
            e = fac.eps(par[a], par[b])
            w = mats[a].multiply(mats[b]).sub(mats[b].multiply(mats[a]).scale(e))
            if w.is_zero():
                continue
            target = {r * 3 + c: v for (r, c), v in w.entries.items()}
            sol = basis_mat.image_membership(target)
            if sol is None:
                raise ValueError("sl(1|2) bracket escapes the span")
            brackets[(a, b)] = sol
    return brackets


def sl12(grading="Z"):
    """sl(1|2) on (Q+, Q-, Q3, B, V+, V-, W+, W-); grading "Z" or "Z2"."""
    if grading not in ("Z", "Z2"):
        raise ValueError("grading must be 'Z' or 'Z2'")
    return _sl12(grading)


@functools.cache
def _sl12(grading):
    brackets = _sl12_structure()
    if grading == "Z":
        fac = super_z_factor()
        degrees = [(0,)] * 4 + [(1,), (1,), (-1,), (-1,)]
    else:
        fac = super_factor()
        degrees = [(0,)] * 4 + [(1,)] * 4
    return EpsLieAlgebra(fac, list(_SL12_LABELS), degrees, brackets)


def omega_matrix(L):
    """The order-two automorphism: Q fixed, B -> -B, V and W swapped.
    Degree-preserving only on the Z2-graded catalog algebra."""
    ent = {
        (0, 0): ONE, (1, 1): ONE, (2, 2): ONE, (3, 3): -ONE,
        (6, 4): ONE, (7, 5): ONE, (4, 6): ONE, (5, 7): ONE,
    }
    return RationalSparseMatrix(L.dim, L.dim, ent)


def osp12_vectors():
    """Spanning vectors of the osp(1|2) subalgebra inside sl(1|2):
    Q+, Q-, Q3 and U± = (V± + W±)/2."""
    return [
        {0: ONE},
        {1: ONE},
        {2: ONE},
        {4: HALF, 6: HALF},
        {5: HALF, 7: HALF},
    ]


def x_vectors():
    """The complementary odd pair X± = (V± - W±)/2."""
    return [{4: HALF, 6: -HALF}, {5: HALF, 7: -HALF}]


@functools.cache
def osp12_in_sl12():
    """(G, spanning vectors): the osp(1|2) subalgebra of the Z2-graded
    catalog sl(1|2)."""
    L = sl12("Z2")
    vecs = osp12_vectors()
    G, reps = L.subquotient(vecs)
    return G, vecs


def osp12():
    return osp12_in_sl12()[0]


# ---------------------------------------------------------------------------
# sl(1|2) modules

# basis indices: Q+=0, Q-=1, Q3=2, B=3, V+=4, V-=5, W+=6, W-=7


def _module_from_table(L, labels, zdegrees, table):
    """table: {op_index: {col_label: [(row_label, coeff), ...]}}."""
    if L.group.free_rank == 1:
        degrees = [(z,) for z in zdegrees]
    else:
        degrees = [(z % 2,) for z in zdegrees]
    pos = {lab: k for k, lab in enumerate(labels)}
    mats = []
    for i in range(L.dim):
        ent = {}
        for col_lab, pairs in table.get(i, {}).items():
            for row_lab, c in pairs:
                ent[(pos[row_lab], pos[col_lab])] = c
        mats.append(RationalSparseMatrix(len(labels), len(labels), ent))
    return GradedModule(L, labels, degrees, mats)


@functools.cache
def module_v_half(L):
    """The three-dimensional module on (e+, e-, e0)."""
    table = {
        0: {"e-": [("e+", 1)]},                    # Q+
        1: {"e+": [("e-", 1)]},                    # Q-
        2: {"e+": [("e+", HALF)], "e-": [("e-", -HALF)]},
        3: {"e+": [("e+", HALF)], "e-": [("e-", HALF)], "e0": [("e0", 1)]},
        4: {"e-": [("e0", -1)]},                   # V+
        5: {"e+": [("e0", 1)]},                    # V-
        6: {"e0": [("e+", -1)]},                   # W+
        7: {"e0": [("e-", -1)]},                   # W-
    }
    return _module_from_table(L, ["e+", "e-", "e0"], [1, 1, 2], table)


@functools.cache
def module_typical_v0_half(L):
    """The four-dimensional typical module with highest weight (0, 1/2)."""
    table = {
        0: {"v1": [("v0", 1)]},                    # Q+
        1: {"v0": [("v1", 1)]},                    # Q-
        2: {"v0": [("v0", HALF)], "v1": [("v1", -HALF)]},
        3: {"v+": [("v+", HALF)], "v-": [("v-", -HALF)]},
        4: {"v-": [("v0", -HALF)], "v1": [("v+", -1)]},   # V+
        5: {"v0": [("v+", 1)], "v-": [("v1", -HALF)]},    # V-
        6: {"v+": [("v0", -HALF)], "v1": [("v-", -1)]},   # W+
        7: {"v0": [("v-", 1)], "v+": [("v1", -HALF)]},    # W-
    }
    return _module_from_table(L, ["v0", "v+", "v-", "v1"], [0, 1, -1, 0], table)


@functools.cache
def module_v8(L):
    """The eight-dimensional indecomposable module on (t, s, v, w, v±, w±)."""
    table = {
        0: {"v-": [("v+", 1)], "w-": [("w+", 1)]},     # Q+
        1: {"v+": [("v-", 1)], "w+": [("w-", 1)]},     # Q-
        2: {
            "v+": [("v+", HALF)], "v-": [("v-", -HALF)],
            "w+": [("w+", HALF)], "w-": [("w-", -HALF)],
        },
        3: {
            "v": [("v", 1)], "w": [("w", -1)],
            "v+": [("v+", HALF)], "v-": [("v-", HALF)],
            "w+": [("w+", -HALF)], "w-": [("w-", -HALF)],
        },
        4: {"t": [("v+", 1)], "v-": [("v", 1)], "w": [("w+", 1)],
            "w-": [("s", 1)]},                        # V+
        5: {"t": [("v-", 1)], "v+": [("v", -1)], "w": [("w-", 1)],
            "w+": [("s", -1)]},                       # V-
        6: {"t": [("w+", 1)], "w-": [("w", 1)], "v": [("v+", 1)],
            "v-": [("s", 1)]},                        # W+
        7: {"t": [("w-", 1)], "w+": [("w", -1)], "v": [("v-", 1)],
            "v+": [("s", -1)]},                       # W-
    }
    return _module_from_table(
        L,
        ["t", "s", "v", "w", "v+", "v-", "w+", "w-"],
        [0, 0, 2, -2, 1, 1, -1, -1],
        table,
    )


@functools.cache
def module_v8_family(L):
    """{name: module} for V1, V4, V4bar, V7, V8 (submodules of V8)."""
    V8 = module_v8(L)
    unit = lambda k: {k: ONE}
    fam = {"v8": V8}
    fam["v1"] = submodule_span(V8, [unit(1)])
    fam["v4"] = submodule_span(V8, [unit(1), unit(2), unit(4), unit(5)])
    fam["v4bar"] = submodule_span(V8, [unit(1), unit(3), unit(6), unit(7)])
    fam["v7"] = submodule_span(
        V8, [unit(1), unit(2), unit(3), unit(4), unit(5), unit(6), unit(7)]
    )
    return fam


@functools.cache
def module_wn(L, k):
    """The k-th eps-skew power of the (e+, e-, e0) module; as a graded
    module this is the simple atypical module with q = k/2."""
    return eps_power(module_v_half(L), k, sym=False)


def module_vq(L, q2):
    """V(q) for 2q = q2: the trivial module at q = 0, the three-dimensional
    module at q = 1/2, else the skew-tensor realization."""
    if q2 == 0:
        return trivial(L)
    if q2 == 1:
        return module_v_half(L)
    return module_wn(L, q2)


@functools.cache
def module_ts2(L):
    return eps_power(adjoint(L), 2, sym=True)


# ---------------------------------------------------------------------------
# named cocycles


def cocycle_g0(L):
    V = module_v_half(L)
    return make_cochain(L, V, 1, {(4,): {0: ONE}, (5,): {1: ONE}})


def cocycle_g2(L):
    V = module_v_half(L)
    return make_cochain(
        L, V, 1, {(3,): {2: ONE}, (6,): {0: -ONE}, (7,): {1: -ONE}}
    )


def cocycle_g_v_half(L):
    """g = g0 + g2 (inhomogeneous in the Z-grading)."""
    return cochain_add(cocycle_g0(L), cocycle_g2(L))


def v8_cocycles(L):
    """(g, gbar, t) with values in V8: g(V±) = v±, g(B) = -s;
    gbar(W±) = w±, gbar(B) = s; t the invariant-generating vector."""
    V8 = module_v8(L)
    g = make_cochain(L, V8, 1, {(4,): {4: ONE}, (5,): {5: ONE}, (3,): {1: -ONE}})
    gbar = make_cochain(L, V8, 1, {(6,): {6: ONE}, (7,): {7: ONE}, (3,): {1: ONE}})
    tvec = {0: ONE}
    return g, gbar, tvec


def named_cocycles(L):
    """The named cocycles over a catalog sl(1|2) instance: the basic
    1-cocycle g0, the exact piece g2, their sum g, and the two
    1-cocycles into the eight-dimensional module."""
    g, gbar, _ = v8_cocycles(L)
    return {
        "g0": cocycle_g0(L),
        "g2": cocycle_g2(L),
        "g": cocycle_g_v_half(L),
        "v8_g": g,
        "v8_gbar": gbar,
    }


def restrict_to_submodule(sub: GradedModule, g):
    """Rewrite a cochain with values inside a submodule's span in the
    submodule's coordinates."""
    cols = sub.embedding
    vals = {}
    for mono, vec in g.values.items():
        sol = cols.image_membership(vec)
        if sol is None:
            raise ValueError("cochain values leave the submodule")
        vals[mono] = sol
    return make_cochain(g.algebra, sub, g.level, vals)


def trace_cocycle_psl(n):
    """The degree-zero 2-cocycle of psl(n|n) induced by the supertrace-free
    section into sl(n|n): its class generates the covering direction."""
    P, preps, SL = _psl_data(n)
    _, slreps, G = _sl_data(n, n)
    total = 2 * n
    K = trivial(P)
    vals = {}
    # plain matrix trace of the bracket of the gl-representatives
    for mono in sorted(M for ms in P.monomials_by_degree(2).values() for M in ms):
        a, b = mono
        ga = _to_gl_coords(preps[a], slreps)
        gb = _to_gl_coords(preps[b], slreps)
        w = G.bracket(ga, gb)
        tr = sum(
            (w.get(i * total + i, Fraction(0)) for i in range(total)), Fraction(0)
        )
        if tr:
            vals[mono] = {0: tr}
    return make_cochain(P, K, 2, vals)


def _to_gl_coords(vec_in_sl, slreps):
    out = {}
    for i, c in vec_in_sl.items():
        vec_axpy(out, c, slreps[i])
    return out


def typicality_sl12(b, q):
    """('typical'|'atypical', dimension) for the simple module labelled (b,q);
    dimension requires 2q a positive integer or b = q = 0."""
    b = rational(b)
    q = rational(q)
    atypical = b == q or b == -q
    if b == 0 and q == 0:
        return "atypical", 1
    if (2 * q).denominator != 1 or q <= 0:
        raise ValueError("finite dimension needs q in N/2, q > 0 (or b = q = 0)")
    dim = int(4 * q + 1) if atypical else int(8 * q)
    return ("atypical" if atypical else "typical"), dim


# ---------------------------------------------------------------------------
# registry for the command-line interface


def _v8_member(name):
    return lambda L: module_v8_family(L)[name]


_BASE_MODULES = {"trivial": trivial, "adjoint": adjoint, "coadjoint": coadjoint}
_SL12_MODULES = {
    **_BASE_MODULES,
    "v_half": module_v_half,
    "v_typical": module_typical_v0_half,
    # k positionally, so that the registry shares module_wn's cache with module_vq
    **{"w%d" % k: (lambda L, k=k: module_wn(L, k)) for k in range(1, 5)},
    **{name: _v8_member(name) for name in ("v8", "v7", "v4", "v4bar", "v1")},
    "ts2": module_ts2,
}

# name -> (algebra builder, {module name: module builder})
_REGISTRY = {
    "sl2": (sl2, _BASE_MODULES),
    "sl3": (sl3, _BASE_MODULES),
    "osp12": (osp12, _BASE_MODULES),
    "sl12": (lambda: sl12("Z"), _SL12_MODULES),
    "sl12_z2": (lambda: sl12("Z2"), _SL12_MODULES),
    "gl11": (lambda: gl(1, 1), _BASE_MODULES),
    "gl21": (lambda: gl(2, 1), _BASE_MODULES),
    "gl12": (lambda: gl(1, 2), _BASE_MODULES),
    "gl22": (lambda: gl(2, 2), _BASE_MODULES),
    "sl21": (lambda: sl(2, 1), _BASE_MODULES),
    "sl22": (lambda: sl(2, 2), _BASE_MODULES),
    "sl33": (lambda: sl(3, 3), _BASE_MODULES),
    "psl22": (lambda: psl_nn(2), _BASE_MODULES),
    "psl33": (lambda: psl_nn(3), _BASE_MODULES),
}


def algebra_names():
    return list(_REGISTRY)


def get_algebra(name):
    if name not in _REGISTRY:
        raise KeyError("unknown catalog algebra %r" % name)
    return _REGISTRY[name][0]()


def module_names(algebra_name):
    return list(_REGISTRY[algebra_name][1])


def get_module(L, algebra_name, module_name):
    modules = _REGISTRY[algebra_name][1] if algebra_name in _REGISTRY else {}
    if module_name not in modules:
        raise KeyError(
            "unknown module %r for algebra %r" % (module_name, algebra_name)
        )
    return modules[module_name](L)
