"""Entanglement measures for number-truncated thermal inputs at a lossless coupler.

The construction keeps a single total-photon sector N and attaches geometric
(Bose-Einstein) weights nbar^n/(nbar+1)^(n+1) to the coupler's closed-form
partial-transpose spectrum: the lossless binomial family and its pair
magnitudes, reweighted.  The weighted spectrum does not sum to one: the
default "as-printed" variant evaluates it as it stands (this is what the
reference curves show), while "normalized" rescales the diagonal family to a
probability vector first.

These are the paper's curve family, not the coupler's dynamics: a passive
coupler never entangles classical inputs such as thermal states (Kim, Son,
Buzek & Knight, PRA 65, 032323, 2002).  Two thermal inputs with equal nbar
are even left unchanged (their joint state depends only on the total photon
number), so each mode keeps its own entropy, 2.0 bits at nbar = 1, at every
Jt, while these curves vary with Jt.

The entropy is built one grid at a time: _thermal_entropies takes a grid of
nbar and a grid of Jt, one row of occupation weights per nbar and one
binomial row per Jt, and gives the entropy at every pair; thermal_entropy
and thermal_diagonal_family are its one-point calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fock import MeasureValue, _entropy_bits, _gated
from .lossless import _binomial_weights, _binomials, _pt_spectrum

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


def _unit_trace(values: np.ndarray, trace) -> np.ndarray:
    """values over trace, with one trace per row of values or one in all."""
    if np.any(trace <= 0.0):
        raise ValidationError("cannot normalize an all-zero spectrum")
    return values / trace


def _diagonal_families(total: int, jts: np.ndarray, nbars: np.ndarray,
                       variant: str) -> np.ndarray:
    """thermal_diagonal_family at every (nbar, Jt) pair of two 1-D grids, one
    row per pair with nbar in the outer loop, with its checks: an occupation
    weight that overflows raises at the first nbar that meets it, once the
    pairs before it have met the binomial table."""
    _check_variant(variant)
    weights = []
    for nbar in nbars.tolist():
        try:
            weights.append(_occupation_weights(nbar, total))
        except NumericalError:
            if weights:  # the pairs before it meet the binomial table first
                _binomials(total)
            raise
    fams = ((np.array(weights) ** 2)[:, None] * _binomial_weights(total, jts)
            ).reshape(-1, total + 1)
    if variant == "normalized":
        fams = _unit_trace(fams, fams.sum(axis=1)[:, None])
    return fams


def thermal_diagonal_family(total: int, jt: float, occ: ThermalOccupation,
                            variant: str = "as-printed") -> np.ndarray:
    """Diagonal partial-transpose family: squared mode-a weight times the
    lossless binomial family.  The normalized variant rescales to unit sum."""
    return _diagonal_families(total, np.array([jt]), np.array([occ.nbar_a]), variant)[0]


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


def _thermal_entropies(total: int, jts, nbars, variant: str = "as-printed") -> np.ndarray:
    """thermal_entropy with equal occupations at every (nbar, Jt) pair of two
    1-D grids: one row per nbar, one column per Jt."""
    fams = _diagonal_families(total, np.asarray(jts, dtype=float),
                              np.asarray(nbars, dtype=float), variant)
    return _gated("entropy", _entropy_bits(fams)).reshape(len(nbars), -1)


def thermal_entropy(total: int, jt: float, occ: ThermalOccupation,
                    variant: str = "as-printed") -> MeasureValue:
    """Entropy (bits) of the thermal diagonal family; uses occ.nbar_a, matching
    the closed forms this reproduces.  With "as-printed" the family is used
    unnormalized, so the value tends to 0 as nbar grows."""
    return MeasureValue("entropy", float(_thermal_entropies(total, [jt], [occ.nbar_a],
                                                            variant)[0, 0]))
