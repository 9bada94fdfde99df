"""Entanglement measures for number-truncated thermal inputs at a lossless coupler.

The construction keeps a single total-photon sector N and attaches geometric
(Bose-Einstein) weights nbar^n/(nbar+1)^(n+1) to the coupler's closed-form
partial-transpose spectrum: the lossless binomial family and its pair
magnitudes, reweighted.  The weighted spectrum does not sum to one: the
default "as-printed" variant evaluates it as it stands (this is what the
reference curves show), while "normalized" rescales the diagonal family to a
probability vector first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fock import MeasureValue, entropy_bits
from .lossless import _binomial_weights, _pt_spectrum

_VARIANTS = ("as-printed", "normalized")


@dataclass(frozen=True)
class ThermalOccupation:
    """Mean photon numbers of the two input modes."""

    nbar_a: float
    nbar_b: float

    def __post_init__(self):
        for label, value in (("nbar_a", self.nbar_a), ("nbar_b", self.nbar_b)):
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"{label} must be finite and >= 0, got {value}")


def thermal_weight(nbar: float, n: int) -> float:
    """Geometric occupation weight nbar^n / (nbar+1)^(n+1); sums to 1 over n."""
    if nbar < 0.0:
        raise ValidationError(f"nbar must be >= 0, got {nbar}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    try:  # math.pow raises on overflow for numpy scalars too
        return math.pow(nbar, n) / math.pow(nbar + 1.0, n + 1)
    except OverflowError:
        raise NumericalError(f"occupation weight overflows a float at nbar={nbar:g}, "
                             f"n={n}") from None


def _occupation_weights(nbar: float, total: int) -> np.ndarray:
    return np.array([thermal_weight(nbar, n) for n in range(total + 1)])


def _check_variant(variant: str):
    if variant not in _VARIANTS:
        raise ValidationError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _unit_trace(values: np.ndarray, trace: float) -> np.ndarray:
    if trace <= 0.0:
        raise ValidationError("cannot normalize an all-zero spectrum")
    return values / trace


def thermal_diagonal_family(total: int, jt: float, occ: ThermalOccupation,
                            variant: str = "as-printed") -> np.ndarray:
    """Diagonal partial-transpose family: squared mode-a weight times the
    lossless binomial family.  The normalized variant rescales to unit sum."""
    _check_variant(variant)
    fam = _occupation_weights(occ.nbar_a, total) ** 2 * _binomial_weights(total, jt)
    if variant == "normalized":
        fam = _unit_trace(fam, fam.sum())
    return fam


def thermal_pt_spectrum(total: int, jt: float, occ: ThermalOccupation,
                        variant: str = "as-printed") -> np.ndarray:
    """All (N+1)^2 partial-transpose eigenvalues with thermal weights attached.

    Ordered index pairs (n, m), n != m, carry weight_a(n) * weight_b(m) times
    the lossless pair magnitude sqrt(w_n w_m), signed + for n < m and - for
    n > m; for equal occupations this is the usual +- pair family.
    Descending order.
    """
    _check_variant(variant)
    diag = thermal_diagonal_family(total, jt, occ, variant="as-printed")
    mags = np.sqrt(_binomial_weights(total, jt))
    pairs = (np.outer(_occupation_weights(occ.nbar_a, total),
                      _occupation_weights(occ.nbar_b, total))
             * np.outer(mags, mags))
    spectrum = _pt_spectrum(diag, pairs)
    if variant == "normalized":
        spectrum = _unit_trace(spectrum, diag.sum())
    return spectrum


def thermal_entropy(total: int, jt: float, occ: ThermalOccupation,
                    variant: str = "as-printed") -> MeasureValue:
    """Entropy (bits) of the thermal diagonal family; uses occ.nbar_a, matching
    the closed forms this reproduces.  With "as-printed" the family is used
    unnormalized, so the value tends to 0 as nbar grows."""
    fam = thermal_diagonal_family(total, jt, occ, variant)
    return MeasureValue("entropy", entropy_bits(fam))
