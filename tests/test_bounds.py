from fractions import Fraction
from math import comb

import pytest

from rootparity.bounds import (
    TYPICAL_ETA,
    classify_eta,
    predicted_balance_fracs,
    predicted_pattern_frac,
)


def test_balance_fracs_at_half():
    assert predicted_balance_fracs(Fraction(1, 2)) == (Fraction(2, 3), Fraction(1, 3))


def test_balance_fracs_small_eta_limit():
    frac1, frac0 = predicted_balance_fracs(Fraction(1, 10 ** 9))
    assert abs(float(frac1) - 0.5) < 1e-8
    assert abs(float(frac0) - 0.5) < 1e-8


def test_balance_fracs_typical():
    frac1, frac0 = predicted_balance_fracs(Fraction(4 / 3.141592653589793 ** 2))
    assert abs(float(frac1) - 0.627) < 1e-3
    assert abs(float(frac0) - 0.372) < 1e-3


def test_balance_fracs_sum_to_one_exactly():
    for num in range(1, 100):
        eta = Fraction(num, 201)  # grid in (0, 1/2)
        frac1, frac0 = predicted_balance_fracs(eta)
        assert frac1 + frac0 == 1


def test_balance_rejects_out_of_range():
    with pytest.raises(ValueError):
        predicted_balance_fracs(Fraction(0))
    with pytest.raises(ValueError):
        predicted_balance_fracs(Fraction(3, 2))


def test_pattern_frac_reduces_to_balance():
    for num in range(1, 100):
        eta = Fraction(num, 201)
        frac1, frac0 = predicted_balance_fracs(eta)
        assert predicted_pattern_frac(eta, 1, 1) == frac1
        assert predicted_pattern_frac(eta, 1, 0) == frac0


def test_pattern_frac_at_half():
    for ell in range(1, 6):
        for w in range(ell + 1):
            expect = Fraction(2, 3) ** w * Fraction(1, 3) ** (ell - w)
            assert predicted_pattern_frac(Fraction(1, 2), ell, w) == expect


@pytest.mark.parametrize("ell", range(1, 9))
def test_binomial_completeness(ell):
    for num in (1, 7, 50, 100, 200):
        eta = Fraction(num, 401)
        total = sum(
            comb(ell, w) * predicted_pattern_frac(eta, ell, w)
            for w in range(ell + 1)
        )
        assert total == 1


def test_frac1_monotone_in_eta():
    prev = None
    for num in range(1, 200):
        frac1, _ = predicted_balance_fracs(Fraction(num, 401))
        if prev is not None:
            assert frac1 > prev
        prev = frac1


def test_pattern_frac_range_violations():
    with pytest.raises(ValueError):
        predicted_pattern_frac(Fraction(1, 4), 2, 3)
    with pytest.raises(ValueError):
        predicted_pattern_frac(Fraction(1, 4), 0, 0)
    # eta is checked before ell and w
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\), got 3/2$"):
        predicted_pattern_frac(Fraction(3, 2), 0, 5)


def test_classify_fermat_prime_is_large():
    eta = Fraction(2 ** 15, 2 ** 16 + 1)
    assert classify_eta(eta).regime == "large"


def test_classify_typical():
    eta = Fraction(int(TYPICAL_ETA * 10 ** 6) + 5000, 10 ** 6)  # within tol/2
    assert classify_eta(eta).regime == "typical"


def test_classify_generic():
    assert classify_eta(Fraction(1, 5)).regime == "generic"


def test_classify_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_eta(Fraction(1, 2))
