from fractions import Fraction
from math import comb

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from epslie import catalog, exterior
from epslie.gmodule import adjoint, eps_power
from epslie.grading import CommutationFactor, GradingGroup


def series_coefficients(p, q, nmax):
    """Taylor coefficients of (1+t)^p / (1-t)^q, the independent counting
    oracle for the super case."""
    num = [Fraction(comb(p, k)) for k in range(p + 1)] + [Fraction(0)] * nmax
    out = []
    # divide by (1-t)^q: repeated partial sums
    coeffs = num[: nmax + 1]
    for _ in range(q):
        acc = Fraction(0)
        new = []
        for c in coeffs:
            acc += c
            new.append(acc)
        coeffs = new
    return [int(c) for c in coeffs[: nmax + 1]]


def test_basis_level_zero():
    L = catalog.sl12()
    assert exterior.basis(L.signs, 0) == [()]
    assert exterior.basis(L.signs, -1) == []


def test_sl12_levels_2_and_3():
    L = catalog.sl12()
    assert len(exterior.basis(L.signs, 2)) == 32
    assert len(exterior.basis(L.signs, 3)) == 88


@pytest.mark.parametrize("p,q", [(4, 4), (1, 2), (3, 2), (7, 8)])
def test_counts_match_dimension_formula_and_series(p, q):
    degs = [(0,)] * p + [(1,)] * q
    from epslie.grading import super_factor

    f = super_factor()
    series = series_coefficients(p, q, 6)
    for n in range(7):
        count = len(exterior.basis(f.sign_table(degs, degs), n))
        assert count == exterior.super_dimension(p, q, n)
        assert count == series[n]


def test_canonicalize_rules():
    signs = catalog.sl12().signs
    # repeated even index dies
    assert exterior.canonicalize(signs, (0, 0)) == (0, None)
    # repeated odd index survives with sign +1
    assert exterior.canonicalize(signs, (4, 4)) == (1, (4, 4))
    # two even indices out of order: classical antisymmetry
    assert exterior.canonicalize(signs, (1, 0)) == (-1, (0, 1))
    # odd-odd swap: -eps = +1
    assert exterior.canonicalize(signs, (5, 4)) == (1, (4, 5))
    # even past odd: -eps(0-deg, odd) = -1
    assert exterior.canonicalize(signs, (4, 0)) == (-1, (0, 4))


def test_canonicalize_idempotent():
    signs = catalog.sl12().signs
    for tup in itertools.product(range(8), repeat=3):
        s, mono = exterior.canonicalize(signs, tup)
        if s:
            assert exterior.canonicalize(signs, mono) == (1, mono)


def test_skew_square_matches_exterior_square():
    for L in (catalog.sl2(), catalog.sl12(), catalog.osp12()):
        n2 = len(exterior.basis(L.signs, 2))
        assert n2 == eps_power(adjoint(L), 2, False).dim


def test_canonicalize_signs_every_split_as_the_permutation_rule():
    """The cup product signs each split of a monomial M into (left, right)
    by canonicalize alone.  On every split of every canonical monomial of
    the catalog algebras, that sign equals the permutation's sign times
    eps_n.  Levels run to 4, and to 3 on sl(3|3) and psl(3|3), whose
    level-4 tables alone hold about 120,000 monomials."""
    splits = 0
    for name in catalog.algebra_names():
        L = catalog.get_algebra(name)
        for level in range(4 if L.dim > 30 else 5):
            for M in (M for ms in L.monomials_by_degree(level).values() for M in ms):
                degs = [L.degrees[i] for i in M]
                for m in range(level + 1):
                    for left in itertools.combinations(range(level), m):
                        perm = left + tuple(p for p in range(level) if p not in left)
                        sign = exterior.canonicalize(L.signs, tuple(M[p] for p in perm))[0]
                        assert sign == exterior.permutation_sign(perm) * L.factor.eps_n(perm, degs)
                        splits += 1
    assert splits == 265378


def _bubble_sort(factor, degrees, indices):
    """Reference for canonicalize: bubble sort with -eps per adjacent swap,
    signs taken from the factor itself rather than a table."""
    arr = list(indices)
    sign = 1
    for end in range(len(arr) - 1, 0, -1):
        for j in range(end):
            if arr[j] > arr[j + 1]:
                sign *= -factor.eps(degrees[arr[j]], degrees[arr[j + 1]])
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    for a, b in zip(arr, arr[1:]):
        if a == b and factor.parity(degrees[a]) == 1:
            return 0, None
    return sign, tuple(arr)


@st.composite
def factors_and_degrees(draw):
    """A valid factor on Z^a x Z_2^b x Z_3^c and a list of degrees."""
    a, b, c = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    n = a + b + c
    bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    # symmetric mod 2 on the free and Z_2 coordinates; even on Z_3 rows
    form = [[0] * n for _ in range(n)]
    for i in range(a + b):
        for j in range(i, a + b):
            form[i][j] = form[j][i] = bits[i * n + j]
    factor = CommutationFactor(GradingGroup(a, (2,) * b + (3,) * c), form)
    degree = st.tuples(*[st.integers(-3, 3)] * n)
    degrees = draw(st.lists(degree, min_size=1, max_size=5))
    return factor, degrees


@settings(max_examples=150, deadline=None)
@given(factors_and_degrees(), st.data())
def test_table_signs_match_the_factor(fd, data):
    factor, degrees = fd
    signs = factor.sign_table(degrees, degrees)
    tup = data.draw(st.lists(st.integers(0, len(degrees) - 1), max_size=6))
    assert exterior.canonicalize(signs, tup) == _bubble_sort(factor, degrees, tup)
    for n in range(4):
        monos = {
            m for sg, m in (
                _bubble_sort(factor, degrees, t)
                for t in itertools.product(range(len(degrees)), repeat=n)
            ) if sg
        }
        assert sorted(monos) == exterior.basis(signs, n)


@settings(max_examples=150, deadline=None)
@given(factors_and_degrees(), st.integers(0, 4))
def test_basis_by_degree_groups_the_basis(fd, n):
    factor, degrees = fd
    g = factor.group
    degrees = [g.reduce(d) for d in degrees]
    signs = factor.sign_table(degrees, degrees)
    full = exterior.basis(signs, n)
    deg = {M: g.sum(degrees[i] for i in M) for M in full}
    sums = {}
    table = exterior.basis_by_degree(signs, n, g, degrees, sums)
    # keys: exactly the occurring degrees, in order of first appearance
    assert list(table) == list(dict.fromkeys(deg[M] for M in full))
    for d, monos in table.items():
        assert monos == [M for M in full if deg[M] == d]
    assert sorted(M for monos in table.values() for M in monos) == full
    assert exterior.basis_by_degree(signs, n, g, degrees, sums) == table


@st.composite
def sign_tables_and_weights(draw):
    """A small sign table with ±1 on the diagonal (so odd indices repeat),
    Z-degrees, int weights of either sign and a set of target sums."""
    dim = draw(st.integers(1, 6))
    signs = [[1] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            signs[i][j] = signs[j][i] = draw(st.sampled_from([1, -1]))
    degrees = [(d,) for d in draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))]
    weights = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    targets = draw(st.sets(st.integers(-10, 10), max_size=4))
    return signs, degrees, weights, targets


@settings(max_examples=200, deadline=None)
@given(sign_tables_and_weights(), st.integers(0, 5))
def test_weight_pruned_walk_is_the_walk_filtered_by_weight_sum(case, n):
    signs, degrees, weights, targets = case
    g = GradingGroup(1)
    full = exterior.basis_by_degree(signs, n, g, degrees)
    want = {}
    for d, monos in full.items():
        kept = [M for M in monos if sum(weights[i] for i in M) in targets]
        if kept:
            want[d] = kept
    got = exterior.basis_by_degree(signs, n, g, degrees, None, weights, targets)
    assert got == want
    # keys in order of first appearance among the listed monomials
    listed = sorted(M for monos in got.values() for M in monos)
    assert list(got) == list(dict.fromkeys(g.sum(degrees[i] for i in M) for M in listed))
    # a reach table kept by the caller for more slots lists the same
    reach = exterior.weight_reach(signs, weights, n + 2)
    assert exterior.basis_by_degree(signs, n, g, degrees, {}, weights, targets, reach) == got
