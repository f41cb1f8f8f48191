"""Closed-form predictions for symbol and pattern frequencies.

All formulas are evaluated in exact rational arithmetic; floating point
appears only in the advisory regime classifier.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

# Expected phi(n)/n for even n; anchor for the "typical" regime label.
TYPICAL_ETA = 4 / math.pi ** 2

DEFAULT_CLASSIFY_TOL = 0.02


@dataclass(frozen=True)
class EtaProfile:
    eta: Fraction
    regime: str  # one of "large", "small", "typical", "generic"


def predicted_balance_fracs(eta: Fraction) -> tuple[Fraction, Fraction]:
    """Predicted fractions of ones and zeros: (1/(2-eta), (1-eta)/(2-eta))."""
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    frac1 = 1 / (2 - eta)
    frac0 = (1 - eta) / (2 - eta)
    return frac1, frac0


def predicted_pattern_frac(eta: Fraction, ell: int, w: int) -> Fraction:
    """Predicted frequency of one fixed length-ell pattern of weight w."""
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0 <= w <= ell:
        raise ValueError(f"w must lie in [0, {ell}], got {w}")
    frac1, frac0 = predicted_balance_fracs(eta)
    return frac1 ** w * frac0 ** (ell - w)


def classify_eta(eta: Fraction) -> EtaProfile:
    """Advisory regime label: nearest anchor of {1/2, 0, 4/pi^2} within
    DEFAULT_CLASSIFY_TOL."""
    eta = Fraction(eta)
    if not 0 < eta < Fraction(1, 2):
        raise ValueError(f"eta must lie in (0, 1/2), got {eta}")
    x = float(eta)
    anchors = (("large", 0.5), ("small", 0.0), ("typical", TYPICAL_ETA))
    label, dist = "generic", DEFAULT_CLASSIFY_TOL
    for name, anchor in anchors:
        d = abs(x - anchor)
        if d < dist:
            label, dist = name, d
    return EtaProfile(eta=eta, regime=label)
