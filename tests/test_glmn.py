from fractions import Fraction

import pytest

from epslie import glmn
from epslie.glmn import (
    GlWeight,
    WeightError,
    all_casimirs_vanish,
    dominant_integral_weights,
    ell_values,
    enumerate_family,
    family_images,
    is_dominant,
    matched_pairs_count,
    q_s,
    rho_values,
    sigma,
    sl12_highest_weight,
    sl_variant,
)

H = Fraction(1, 2)


def test_sigma_blocks():
    assert [sigma(1, 1, i) for i in (1, 2)] == [1, -1]
    assert [sigma(2, 1, i) for i in (1, 2, 3)] == [1, 1, -1]
    with pytest.raises(WeightError):
        sigma(1, 1, 3)


def test_rho_values_small_cases():
    # direct evaluation of the half-sum formula
    assert rho_values(1, 1) == [-H, -H]
    assert rho_values(2, 1) == [Fraction(0), Fraction(-1), Fraction(-1)]
    assert rho_values(1, 2) == [Fraction(-1), Fraction(-1), Fraction(0)]


def test_rho_against_root_sum():
    """r_k = sigma_k rho(X_kk) with 2 rho = sum of signed root differences."""
    for (m, n) in ((2, 1), (2, 2), (1, 2), (3, 1)):
        tot = m + n
        sig = [sigma(m, n, i) for i in range(1, tot + 1)]
        r = rho_values(m, n)
        for k in range(tot):
            acc = Fraction(0)
            for i in range(tot):
                for j in range(i + 1, tot):
                    contrib = sig[i] * sig[j] * ((1 if i == k else 0) - (1 if j == k else 0))
                    acc += Fraction(contrib, 2)
            assert r[k] == sig[k] * acc


def test_ell_and_qs_zero_weight():
    w = GlWeight(2, 2, (0, 0, 0, 0))
    assert ell_values(w) == rho_values(2, 2)
    for s in range(1, 7):
        assert q_s(w, s) == 0
    assert all_casimirs_vanish(w)


def test_q1_equals_coordinate_sum():
    for L in ((1, 2, -3), (0, 0, 0), (2, -1, 5)):
        w = GlWeight(2, 1, L)
        assert q_s(w, 1) == sum(Fraction(x) for x in L)


def test_typical_weight_has_nonzero_power_sum():
    w = GlWeight(1, 1, (3, 1))
    assert not all_casimirs_vanish(w)
    assert any(q_s(w, s) != 0 for s in (1, 2, 3))


def test_dominance():
    assert is_dominant(GlWeight(2, 2, (3, 1, 0, -2)))
    assert not is_dominant(GlWeight(2, 2, (1, 3, 0, 0)))
    assert is_dominant(GlWeight(1, 1, (5, -5)))
    assert not is_dominant(GlWeight(2, 1, (Fraction(1, 2), 0, 0)))


def test_enumerate_family_m_equals_n():
    for a in range(0, 5):
        w = enumerate_family(1, 1, free=(a,))
        assert w.L == (Fraction(a), Fraction(-a))
        assert all_casimirs_vanish(w)


def test_enumerate_family_m_greater_n():
    w = enumerate_family(2, 1, branch=0, free=(3, 1))
    assert w.L == (3, 1, -4)
    assert all_casimirs_vanish(w) and sum(w.L) == 0
    w2 = enumerate_family(2, 1, branch=1, free=(0, -2))
    assert w2.L == (0, -2, 2)
    with pytest.raises(WeightError):
        enumerate_family(2, 1, branch=0, free=(3, 2))  # plateau violated
    with pytest.raises(WeightError):
        enumerate_family(2, 1, branch=5, free=(3, 1))


def test_enumerate_family_m_less_n():
    w = enumerate_family(1, 2, branch=0, free=(-1, -4))
    assert w.L == (5, -1, -4)
    assert all_casimirs_vanish(w)
    w2 = enumerate_family(1, 2, branch=1, free=(2, 0))
    assert w2.L == (-2, 2, 0)
    with pytest.raises(WeightError):
        enumerate_family(1, 2, branch=0, free=(0, -4))


def test_enumerate_family_rejects_non_dominant():
    with pytest.raises(WeightError):
        enumerate_family(2, 2, free=(0, 1))  # increasing top block
    # gl(1|1) has no even root, so any single value is allowed
    w = enumerate_family(1, 1, free=(Fraction(1, 2),))
    assert all_casimirs_vanish(w)


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_scan_criterion_equivalence_and_completeness(mn):
    m, n = mn
    bound = 3
    smax = m + n + 2
    vanishing = set()
    for w in dominant_integral_weights(m, n, bound):
        multiset = all_casimirs_vanish(w)
        powers = all(q_s(w, s) == 0 for s in range(1, smax + 1))
        assert multiset == powers
        if multiset:
            vanishing.add(w.L)
            assert sum(w.L) == 0
            assert matched_pairs_count(w) == min(m, n)
    assert vanishing == family_images(m, n, bound)


def test_sl_variant():
    w = GlWeight(2, 1, (1, 0, 2))
    v = sl_variant(w)
    assert v.L == (-2, -3, 5)
    assert sum(v.L) == 0
    # already sum-zero weights are fixed, so verdicts match the gl computation
    w0 = GlWeight(2, 1, (3, 1, -4))
    assert sl_variant(w0).L == w0.L
    assert all_casimirs_vanish(sl_variant(w0)) == all_casimirs_vanish(w0)
    with pytest.raises(WeightError):
        sl_variant(GlWeight(2, 2, (0, 0, 0, 0)))
    z = sl_variant(GlWeight(2, 1, (0, 0, 0)))
    assert all_casimirs_vanish(z)


@pytest.mark.parametrize("q2", [1, 2, 3, 4])
def test_sl12_translation_matches_atypicality(q2):
    q = Fraction(q2, 2)
    assert all_casimirs_vanish(sl12_highest_weight(q, q))
    assert all_casimirs_vanish(sl12_highest_weight(-q, q))
    assert not all_casimirs_vanish(sl12_highest_weight(0, q))
    assert not all_casimirs_vanish(sl12_highest_weight(q + 1, q))
    assert all_casimirs_vanish(sl12_highest_weight(0, 0))


def test_sl12_translation_sum_zero():
    for b, q in ((H, H), (Fraction(3), H), (0, Fraction(2))):
        w = sl12_highest_weight(b, q)
        assert sum(w.L) == 0


def test_weights_are_values():
    w = GlWeight(2, 1, (3, H, -4))
    assert w == GlWeight(2, 1, [Fraction(3), H, -4]) and hash(w) == hash(GlWeight(2, 1, (3, H, -4)))
    assert w != GlWeight(1, 2, (3, H, -4)) and w != (2, 1, w.L) and w != w.L
    for field in ("m", "n", "L"):
        with pytest.raises(AttributeError):
            setattr(w, field, getattr(w, field))
    assert repr(w) == "GlWeight(m=2, n=1, L=(Fraction(3, 1), Fraction(1, 2), Fraction(-4, 1)))"
    assert w.L == (3, H, -4) and all(type(x) is Fraction for x in w.L)


@pytest.mark.parametrize("bad", [0.5, "1/2", True, None])
def test_weight_coordinates_are_ints_or_fractions(bad):
    """A float, a string or a bool is refused as a weight coordinate, never
    read through Fraction()."""
    with pytest.raises(WeightError):
        GlWeight(1, 1, (bad, 0))
    with pytest.raises(WeightError):
        sl12_highest_weight(bad, H)
    with pytest.raises(WeightError):
        sl12_highest_weight(0, bad)
    with pytest.raises(WeightError):
        enumerate_family(1, 1, free=(bad,))
