"""Lossless dynamics of two linearly coupled modes.

The Hamiltonian omega*(n_a + n_b) + J*(a+ b + b+ a) conserves total photon
number, so evolution block-diagonalizes over sectors of fixed N.  Each sector
is an (N+1)x(N+1) real tridiagonal matrix whose eigensystem is computed once
and cached; time evolution is then exact to machine precision for any t.

Closed-form results for a single-mode Fock input |0, N> are provided alongside
(partial-transpose spectrum, entanglement entropy) so the numerical
propagator can be checked against them and vice versa.

Curves are built one whole grid at a time.  Sector N evolves by one fixed
rotation, e^{-i omega N t} V diag(e^{-i J t lam}) V^T, so a chunk of a time
grid is one phase table and a stacked product per occupied sector
(_evolved), measured as a stack (_evolved_measures).  The N00N E_N and the
closed-form entropy take whole Jt grids the same way.  evolve_lossless,
noon_log_negativity and entropy_closed are the one-point calls of these
column forms, so a column equals the point calls bit for bit, with the same
errors at its first failing point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError
from .fock import (
    NORM_TOL,
    MeasureValue,
    TwoModeDensityMatrix,
    TwoModePureState,
    _entropy_bits,
    _gated,
    _grid_side,
    _pure_log_negativities,
    _total_photon_grid,
    noon_state,
)

# bytes built at once for one chunk of a time grid, here and in damped.py: a
# grid is walked in chunks of this size, so memory does not grow with the
# number of times.  It bounds memory only: no printed digit depends on it
_CHUNK_BYTES = 1 << 20


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


def _require_finite_phases(total: int, params: CouplerParams, t):
    # the phases of sectors up to total, at t or at each time of an array,
    # the first that overflows raising: their eigenvalues lie in [-total, total]
    times = np.asarray(t, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(np.isfinite(params.J * times * total) & np.isfinite(params.omega * total * times))
    if bad.any():
        t = float(times[bad][0])
        raise NumericalError(f"coupler phases overflow a float at J t = {params.J * t:g}, "
                             f"omega t = {params.omega * t:g}")


def _sector_unitaries(total: int, params: CouplerParams, times: np.ndarray) -> np.ndarray:
    """The coupler on sector total at each time, (times, total + 1, total + 1):
    e^{-i omega total t} V diag(e^{-i J t lam}) V^T.  The caller checks that
    the phases are finite."""
    lam, vec = _sector_eigensystem(total)
    phases = np.exp((-1j * params.J * times)[:, None] * lam)
    return (np.exp(-1j * params.omega * total * times)[:, None, None]
            * ((vec * phases[:, None, :]) @ vec.T))


def _sector_unitary(total: int, params: CouplerParams, t: float) -> np.ndarray:
    _require_finite_phases(total, params, t)
    return _sector_unitaries(total, params, np.array([t]))[0]


def _require_capacity_support(values: np.ndarray, cutoff: int, what: str):
    corner = _total_photon_grid(cutoff) > cutoff
    if np.any(values[corner] != 0):
        raise CapacityError(
            f"{what} has support on grid points with n_a + n_b > {cutoff}; "
            "photon-conserving evolution would be truncated there"
        )


def _evolved(state: TwoModePureState, params: CouplerParams,
             times: np.ndarray) -> Iterator[np.ndarray]:
    """The state's amplitude grid at each time of a 1-D array, one stack
    (count, d, d) per chunk of the grid, in order, with the checks of
    evolve_lossless: capacity, then per chunk the phases and the norm, each
    raising at the first time that fails it.  A chunk holds as many times as
    _CHUNK_BYTES allows, counting eight grids per time for the sector blocks
    and the consumer's copies."""
    cutoff, amps = state.cutoff, state.amplitudes
    _require_capacity_support(amps, cutoff, "input state")
    sectors = []
    for total in range(cutoff + 1):
        na = np.arange(total + 1)
        if np.any(amps[na, total - na]):
            sectors.append((total, na))
    step = max(1, _CHUNK_BYTES // (16 * 8 * (cutoff + 1) ** 2))
    for begin in range(0, times.size, step):
        chunk = times[begin:begin + step]
        _require_finite_phases(sectors[-1][0], params, chunk)  # the largest sector
        out = np.zeros((chunk.size, cutoff + 1, cutoff + 1), dtype=complex)
        for total, na in sectors:
            out[:, na, total - na] = _sector_unitaries(total, params, chunk) @ amps[na, total - na]
        # the norm gate: a state whose norm, taken over the stack, is not well
        # inside it is checked alone, as TwoModePureState checks it
        norms = np.linalg.norm(out, axis=(1, 2))
        for k in np.flatnonzero(~(np.abs(norms - 1.0) <= 0.5 * NORM_TOL)).tolist():
            TwoModePureState(cutoff, out[k])
        yield out


def evolve_lossless(state: TwoModePureState, params: CouplerParams,
                    t: float) -> TwoModePureState:
    """Propagate a pure state for time t; exact within each photon sector.

    Raises CapacityError if the input occupies grid points with total photon
    number above the cutoff, where the sector does not fit on the grid.
    """
    return TwoModePureState(state.cutoff, next(_evolved(state, params, np.array([t])))[0])


def _evolved_measures(state: TwoModePureState, params: CouplerParams, times: np.ndarray,
                      *measures) -> list:
    """Each measure (a function of a stack of amplitude grids, such as
    fock._pure_log_negativities) of the evolved state over a 1-D array of
    times, one array per measure; a chunk is measured before the next one
    is built."""
    chunks = [[measure(amps) for measure in measures]
              for amps in _evolved(state, params, times)]
    return [np.concatenate(column) for column in zip(*chunks)]


def _assemble_sectors(cutoff: int, block) -> np.ndarray:
    """Grid operator with block(total) on each photon sector that fits on the
    grid (total <= cutoff) and the identity on the corner sectors above it."""
    d = _grid_side(cutoff)
    out = np.eye(d * d, dtype=complex)
    for total in range(d):
        flat = np.arange(total + 1) * cutoff + total  # |n, total - n>, n = 0..total
        out[np.ix_(flat, flat)] = block(total)
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


def _binomials(total: int) -> np.ndarray:
    """binom(N, n), n = 0..N, as floats; they overflow above N of about 1030."""
    if total < 0:
        raise ValidationError("total photon number must be non-negative")
    try:
        return np.array([math.comb(total, k) for k in range(total + 1)], dtype=float)
    except OverflowError:
        raise NumericalError(f"binomial coefficients of N = {total} overflow a float") from None


def _binomial_family(total: int, s2: float, c2: float) -> np.ndarray:
    """binom(N, n) s2^n c2^(N-n), n = 0..N: the photon split of |0, N> behind
    a rotation with sin^2 = s2 and cos^2 = c2."""
    n = np.arange(total + 1)
    return _binomials(total) * s2 ** n * c2 ** (total - n)


def _binomial_weights(total: int, jt) -> np.ndarray:
    """_binomial_family at sin^2(Jt) and cos^2(Jt), taken with math's sin and
    cos: one family for a float Jt, one row per Jt of a 1-D array."""
    jts = np.asarray(jt, dtype=float)
    if not np.isfinite(jts).all():
        raise ValidationError(f"Jt must be finite, got {jts[~np.isfinite(jts)].flat[0]}")
    s2, c2 = (np.array([f(x) ** 2 for x in jts.reshape(-1).tolist()]).reshape(jts.shape + (1,))
              for f in (math.sin, math.cos))
    return _binomial_family(total, s2, c2)


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


def _entropies_closed(total: int, jts: np.ndarray) -> np.ndarray:
    """entropy_closed over a 1-D array of Jt."""
    return _gated("entropy", _entropy_bits(_binomial_weights(total, jts)))


def entropy_closed(total: int, jt: float) -> MeasureValue:
    """Entanglement entropy (bits) of the evolved |0, N> state: the Shannon
    entropy of the binomial photon distribution with p = sin^2(Jt)."""
    return MeasureValue("entropy", float(_entropies_closed(total, np.array([jt]))[0]))


def _noon_log_negativities(total: int, jts: np.ndarray) -> np.ndarray:
    """noon_log_negativity over a 1-D array of Jt."""
    return _evolved_measures(noon_state(total, cutoff=total), CouplerParams(0.0, 1.0), jts,
                             _pure_log_negativities)[0]


def noon_log_negativity(total: int, jt: float) -> MeasureValue:
    """Log-negativity of an evolved N00N state (J = 1, so time is Jt)."""
    return MeasureValue("log_negativity", float(_noon_log_negativities(total, np.array([jt]))[0]))
