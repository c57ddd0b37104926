from fractions import Fraction
from math import comb

import pytest

from epslie import catalog, exterior
from epslie.gmodule import adjoint, skew_square


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
    assert exterior.basis(L.factor, L.degrees, 0) == [()]
    assert exterior.basis(L.factor, L.degrees, -1) == []


def test_sl12_levels_2_and_3():
    L = catalog.sl12()
    assert len(exterior.basis(L.factor, L.degrees, 2)) == 32
    assert len(exterior.basis(L.factor, L.degrees, 3)) == 88


@pytest.mark.parametrize("p,q", [(4, 4), (1, 2), (3, 2), (7, 8)])
def test_counts_match_dimension_formula_and_series(p, q):
    degs = [(0,)] * p + [(1,)] * q
    from epslie.grading import super_factor

    f = super_factor()
    series = series_coefficients(p, q, 6)
    for n in range(7):
        count = len(exterior.basis(f, degs, n))
        assert count == exterior.super_dimension(p, q, n)
        assert count == series[n]


def test_canonicalize_rules():
    L = catalog.sl12()
    f, d = L.factor, L.degrees
    # repeated even index dies
    assert exterior.canonicalize(f, d, (0, 0)) == (0, None)
    # repeated odd index survives with sign +1
    assert exterior.canonicalize(f, d, (4, 4)) == (1, (4, 4))
    # two even indices out of order: classical antisymmetry
    assert exterior.canonicalize(f, d, (1, 0)) == (-1, (0, 1))
    # odd-odd swap: -eps = +1
    assert exterior.canonicalize(f, d, (5, 4)) == (1, (4, 5))
    # even past odd: -eps(0-deg, odd) = -1
    assert exterior.canonicalize(f, d, (4, 0)) == (-1, (0, 4))


def test_canonicalize_idempotent():
    L = catalog.sl12()
    f, d = L.factor, L.degrees
    import itertools

    for tup in itertools.product(range(8), repeat=3):
        s, mono = exterior.canonicalize(f, d, tup)
        if s:
            assert exterior.canonicalize(f, d, mono) == (1, mono)


def test_skew_square_matches_exterior_square():
    for L in (catalog.sl2(), catalog.sl12(), catalog.osp12()):
        n2 = len(exterior.basis(L.factor, L.degrees, 2))
        assert n2 == skew_square(adjoint(L)).dim


def test_shuffles_count_and_signs():
    sh = exterior.shuffles(2, 1)
    assert len(sh) == 3
    total = exterior.shuffles(0, 3)
    assert len(total) == 1 and total[0][1] == 1
