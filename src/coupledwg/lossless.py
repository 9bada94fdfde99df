"""Lossless dynamics of two linearly coupled modes.

The Hamiltonian omega*(n_a + n_b) + J*(a+ b + b+ a) conserves total photon
number, so evolution block-diagonalizes over sectors of fixed N.  Each sector
is an (N+1)x(N+1) real tridiagonal matrix whose eigensystem is computed once
and cached; time evolution is then exact to machine precision for any t.

Closed-form results for a single-mode Fock input |0, N> are provided alongside
(coefficients, partial-transpose spectrum, entanglement entropy) so the
numerical propagator can be checked against them and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError
from .fock import (
    MeasureValue,
    TwoModeDensityMatrix,
    TwoModePureState,
    _sectors,
    _total_photon_grid,
    entropy_bits,
    noon_state,
    pure_log_negativity,
)


@dataclass(frozen=True)
class CouplerParams:
    """Mode frequency omega and coupling strength J (both in the same units)."""

    omega: float
    J: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and math.isfinite(self.J)):
            raise ValidationError("omega and J must be finite")
        if self.J <= 0.0:
            raise ValidationError(f"J must be positive, got {self.J}")


def sector_coupling_matrix(total: int) -> np.ndarray:
    """Matrix of a+ b + b+ a on the sector span{|n, total-n>}, n = 0..total."""
    if total < 0:
        raise ValidationError("total photon number must be non-negative")
    mat = np.zeros((total + 1, total + 1))
    n = np.arange(total)
    off = np.sqrt((n + 1.0) * (total - n))
    mat[n + 1, n] = off
    mat[n, n + 1] = off
    return mat


@lru_cache(maxsize=None)
def _sector_eigensystem(total: int) -> tuple[np.ndarray, np.ndarray]:
    lam, vec = np.linalg.eigh(sector_coupling_matrix(total))
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def _sector_unitary(total: int, params: CouplerParams, t: float) -> np.ndarray:
    # the sector's eigenvalues lie in [-total, total]
    if not (math.isfinite(params.J * t * total) and math.isfinite(params.omega * total * t)):
        raise NumericalError(f"coupler phases overflow a float at J t = {params.J * t:g}, "
                             f"omega t = {params.omega * t:g}")
    lam, vec = _sector_eigensystem(total)
    phases = np.exp(-1j * params.J * t * lam)
    return np.exp(-1j * params.omega * total * t) * ((vec * phases) @ vec.T)


def _require_capacity_support(values: np.ndarray, cutoff: int, what: str):
    corner = _total_photon_grid(cutoff) > cutoff
    if np.any(values[corner] != 0):
        raise CapacityError(
            f"{what} has support on grid points with n_a + n_b > {cutoff}; "
            "photon-conserving evolution would be truncated there"
        )


def evolve_lossless(state: TwoModePureState, params: CouplerParams,
                    t: float) -> TwoModePureState:
    """Propagate a pure state for time t; exact within each photon sector.

    Raises CapacityError if the input occupies grid points with total photon
    number above the cutoff, where the sector does not fit on the grid.
    """
    cutoff = state.cutoff
    amps = state.amplitudes
    _require_capacity_support(amps, cutoff, "input state")
    out = np.zeros_like(amps)
    for total in range(cutoff + 1):
        na = np.arange(total + 1)
        vec = amps[na, total - na]
        if not np.any(vec):
            continue
        out[na, total - na] = _sector_unitary(total, params, t) @ vec
    return TwoModePureState(cutoff, out)


def _assemble_sectors(cutoff: int, block) -> np.ndarray:
    """Grid operator with block(total) on each photon sector that fits on the
    grid (total <= cutoff) and the identity on the corner sectors above it."""
    d = cutoff + 1
    a, b, valid = _sectors(d, 1)
    flat = a[:d] * d + b[:d]  # sectors 0..cutoff, members in n_a order
    total, row, col = np.nonzero(valid[:d, :, None] & valid[:d, None, :])
    out = np.eye(d * d, dtype=complex)
    out[flat[total, row], flat[total, col]] = np.concatenate(
        [block(n).ravel() for n in range(d)])
    return out


def lossless_unitary(cutoff: int, params: CouplerParams, t: float) -> np.ndarray:
    """Full-grid propagator, block unitary over photon sectors.

    Grid points with n_a + n_b > cutoff cannot host their full sector and are
    left untouched (identity blocks); keep support inside the capacity region.
    """
    return _assemble_sectors(cutoff, lambda total: _sector_unitary(total, params, t))


def evolve_lossless_dm(rho: TwoModeDensityMatrix, params: CouplerParams,
                       t: float) -> TwoModeDensityMatrix:
    """Conjugate a density matrix with the sector propagator."""
    diag = rho.entries.diagonal().real.reshape(rho.cutoff + 1, rho.cutoff + 1)
    _require_capacity_support(diag, rho.cutoff, "input density matrix")
    u = lossless_unitary(rho.cutoff, params, t)
    return TwoModeDensityMatrix(rho.cutoff, u @ rho.entries @ u.conj().T)


# ------------------------------------------------------------- closed forms


def su2_coefficients(total: int, jt: float) -> np.ndarray:
    """Amplitudes of exp(-iHt)|0, N> at omega = 0.

    Entry n is the amplitude on |n, N-n>:
    (-i)^n sin(Jt)^n cos(Jt)^(N-n) sqrt(binom(N, n)).
    """
    if total < 0:
        raise ValidationError("total photon number must be non-negative")
    n = np.arange(total + 1)
    s, c = math.sin(jt), math.cos(jt)
    return (-1j) ** n * s ** n * c ** (total - n) * np.sqrt(_binomials(total))


def _binomials(total: int) -> np.ndarray:
    """binom(N, n), n = 0..N, as floats; they overflow above N of about 1030."""
    try:
        return np.array([math.comb(total, k) for k in range(total + 1)], dtype=float)
    except OverflowError:
        raise NumericalError(f"binomial coefficients of N = {total} overflow a float") from None


def _binomial_family(total: int, s2: float, c2: float) -> np.ndarray:
    """binom(N, n) s2^n c2^(N-n), n = 0..N: the photon split of |0, N> behind
    a rotation with sin^2 = s2 and cos^2 = c2."""
    n = np.arange(total + 1)
    return _binomials(total) * s2 ** n * c2 ** (total - n)


def _binomial_weights(total: int, jt: float) -> np.ndarray:
    return _binomial_family(total, math.sin(jt) ** 2, math.cos(jt) ** 2)


def _pt_spectrum(diag: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Partial-transpose spectrum in descending order: each diagonal weight
    once, +pairs[n, m] for n < m and -pairs[n, m] for n > m."""
    size = diag.size
    vals = np.concatenate((diag, pairs[np.triu_indices(size, 1)],
                           -pairs[np.tril_indices(size, -1)]))
    return np.sort(vals)[::-1]


def pt_spectrum_closed(total: int, jt: float) -> np.ndarray:
    """All (N+1)^2 partial-transpose eigenvalues of the evolved |0, N> state.

    The weights binom(N,n) sin^2n cos^2(N-n) appear once each on the diagonal;
    every unordered pair contributes +-sqrt(w_n w_m).  Returned in descending
    order for deterministic serialization.
    """
    weights = _binomial_weights(total, jt)
    mags = np.sqrt(weights)
    return _pt_spectrum(weights, np.outer(mags, mags))


def entropy_closed(total: int, jt: float) -> MeasureValue:
    """Entanglement entropy (bits) of the evolved |0, N> state: the Shannon
    entropy of the binomial photon distribution with p = sin^2(Jt)."""
    return MeasureValue("entropy", entropy_bits(_binomial_weights(total, jt)))


def log_negativity_closed(total: int, jt: float) -> MeasureValue:
    """Log-negativity of the evolved |0, N> state from the closed spectrum."""
    evals = pt_spectrum_closed(total, jt)
    neg = float(-evals[evals < 0.0].sum())
    return MeasureValue("log_negativity", math.log2(1.0 + 2.0 * neg))


def noon_log_negativity(total: int, jt: float) -> MeasureValue:
    """Log-negativity of an evolved N00N state (J = 1, so time is Jt)."""
    state = noon_state(total, cutoff=total)
    evolved = evolve_lossless(state, CouplerParams(0.0, 1.0), jt)
    return pure_log_negativity(evolved)
