"""Entanglement measures for number-truncated thermal inputs at a lossless coupler.

The construction keeps a single total-photon sector N and attaches geometric
(Bose-Einstein) weights nbar^n/(nbar+1)^(n+1) to the diagonal of the
coupler's closed-form partial-transpose spectrum: the lossless binomial
family, reweighted.  The weighted family does not sum to one: the default
"as-printed" variant evaluates it as it stands (this is what the reference
curves show), while "normalized" rescales it to a probability vector first.

These are the paper's curve family, not the coupler's dynamics: a passive
coupler never entangles classical inputs such as thermal states (Kim, Son,
Buzek & Knight, PRA 65, 032323, 2002).  Two thermal inputs with equal nbar
are even left unchanged (their joint state depends only on the total photon
number), so each mode keeps its own entropy, 2.0 bits at nbar = 1, at every
Jt, while these curves vary with Jt.

The entropy is built one grid at a time: _thermal_entropies takes a grid of
nbar and a grid of Jt, one row of occupation weights per nbar and one
binomial row per Jt, and gives the entropy at every pair; thermal_entropy
is its one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import MeasureValue, _entropy_bits, _gated
from .lossless import _binomial_weights

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
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValidationError(f"nbar must be finite and >= 0, got {nbar}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    try:  # math.pow raises on overflow for numpy scalars too
        return math.pow(nbar, n) / math.pow(nbar + 1.0, n + 1)
    except OverflowError:  # (nbar / (nbar+1))^n lies in [0, 1] and cannot overflow
        return math.pow(nbar / (nbar + 1.0), n) / (nbar + 1.0)


def _diagonal_families(total: int, jts: np.ndarray, nbars: np.ndarray,
                       variant: str) -> np.ndarray:
    """Diagonal partial-transpose family at every (nbar, Jt) pair of two 1-D
    grids, one row per pair with nbar in the outer loop: the squared
    occupation weight times the lossless binomial family.  The normalized
    variant rescales each row to unit sum."""
    if variant not in _VARIANTS:
        raise ValidationError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    weights = np.array([[thermal_weight(nbar, n) for n in range(total + 1)]
                        for nbar in nbars.tolist()])
    fams = ((weights ** 2)[:, None] * _binomial_weights(total, jts)).reshape(-1, total + 1)
    if variant == "normalized":
        sums = fams.sum(axis=1)[:, None]
        if np.any(sums <= 0.0):
            raise ValidationError("cannot normalize an all-zero spectrum")
        fams = fams / sums
    return fams


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
