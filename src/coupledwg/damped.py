"""Exact evolution of two coupled modes with equal photon loss, plus the
closed-form entanglement and purity expressions for that system.

Propagation strategy: with equal loss rates the coupler and the loss
commute, so rho(t) = U (E x E)(rho) U^dag, with U the lossless coupler
propagator and E single-mode amplitude damping, the same on both modes.  E
is the pure-loss case gamma_+ = 0 of the su(1,1) ordered form, whose
number-basis kernel is then the Kraus channel A_k|n> = sqrt(C(n, k))
gamma_-^{k/2} sqrt(gamma_3)^{n-k} |n-k> (Chuang, Leung & Yamamoto, PRA 56,
1114, 1997).  Its weights, sqrt(gamma_3) = e^{-gamma t} and gamma_- =
1 - e^{-2 gamma t}, come in closed form from loss_channel_factors for a
whole chunk of times at once; the ordered form (_su11_factorization) is
tested against them.  Once e^{-gamma t} underflows the weights give exactly
the vacuum.  Pure loss never raises photon number, so for inputs supported
on the capacity region n_a + n_b <= cutoff the grid evolution matches the
untruncated dynamics to machine precision.

Both factors keep photon-number sectors: loss takes the block pair (N, N')
of rho to (N - k, N' - k) for k photons lost in all, with a t-independent
weight times gamma_-^k sqrt(gamma_3)^{N+N'-2k}, and U is
V_N diag(e^{-i (omega N + J lam) t}) V_N^T on sector N, from the cached
sector eigensystem.  So the time dependence is scalar per (t, k) and per
eigenvector slot.

Cost model: once per call, the loss tables are built from the occupied
entries that rho holds (fock._Occupied), one row per k, over the block
pairs that loss reaches from them (a NOON or Fock input of N photons has
N + 1), and turned into the coupler eigenbasis.  A time grid is then a
handful of stacked products on (times x entries) arrays: the tables
weighted by gamma_-^k, the slot phases, and each block rotated back, with
no dense (d^2 x d^2) product and no Python loop over the times.  Each chunk
of the grid is checked for its trace deficit, renormalized and Hermitized on
the compact layout.  Drawn as states, each row, zeros and all, is held by a
TwoModeDensityMatrix on that one layout.  Drawn as measures
(DampedStates.measures), a chunk is one stack on the layout for
fock._measures, which every held state takes as a stack of one.  At most one
chunk of _CHUNK_BYTES is alive however many times are asked for, and a row's
arithmetic is that of its time alone (a vector-matrix loss product per time,
ordered sums, the real or complex eigensolve chosen per matrix), so it
equals the one-time call bit for bit.

The closed forms take whole time grids as well: _damped_entropies is one
binomial table per grid at effective angles taken with math per time, and
_purities_closed keeps its cmath per time.  damped_entropy,
damped_pt_spectrum and purity_closed are one-point calls of them, so a
column equals the point calls bit for bit, with the same errors at its first
failing point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NumericalError, TruncationError, ValidationError
from .fock import (
    MeasureValue,
    TwoModeDensityMatrix,
    _Layout,
    _measures,
    _Occupied,
    _entropy_bits,
    _gated,
    _ordered_sum,
    entropy_bits,
)
from .lossless import (
    _CHUNK_BYTES,
    CouplerParams,
    _assemble_sectors,
    _binomial_family,
    _binomials,
    _pt_spectrum,
    _require_capacity_support,
    _require_finite_phases,
    _sector_eigensystem,
    _sector_unitary,
)

TRACE_DEFICIT_LIMIT = 1e-10
# a chunk of compact states, their time factors and what fock._measures
# gathers from them takes up to _CHUNK_BYTES, four dense states at cutoff 10:
# the measures of a 101-point grid for NOON-10 take 6 chunks, and one for an
# input of up to 4 photons.  No printed digit depends on the count.


@dataclass(frozen=True)
class DampedParams:
    """Coupler parameters plus one photon-loss rate shared by both modes."""

    omega: float
    J: float
    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValidationError(f"omega must be finite, got {self.omega}")
        if not (math.isfinite(self.J) and self.J > 0.0):
            raise ValidationError(f"J must be finite and > 0, got {self.J}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValidationError(f"gamma must be finite and >= 0, got {self.gamma}")

    def coupler(self) -> CouplerParams:
        return CouplerParams(self.omega, self.J)


@dataclass(frozen=True)
class BogoliubovParams:
    """Squeezing content of the two damped normal modes (branch 1: omega - J,
    branch 2: omega + J) together with their complex frequencies."""

    mu1: float
    nu1: float
    mu2: float
    nu2: float
    r1: float
    r2: float
    omega1: complex
    omega2: complex
    omega3: complex
    omega4: complex


def bogoliubov_params(p: DampedParams) -> BogoliubovParams:
    """nu_k = gamma / sqrt(2 gamma^2 + (omega -+ J)^2) with the 0/0 limit set
    to 0, mu_k = sqrt(1 + nu_k^2) so mu^2 - nu^2 = 1 exactly, r_k = asinh(nu_k).
    The four complex frequencies are -+ sqrt(gamma^2 + (omega -+ J)^2)/2 - i gamma/2.
    """
    branch = []
    for name, detun in (("omega - J", p.omega - p.J), ("omega + J", p.omega + p.J)):
        try:
            square = 2.0 * p.gamma ** 2 + detun ** 2
        except OverflowError:  # float ** raises where * gives inf
            square = math.inf
        if square == math.inf:
            raise NumericalError(f"2 gamma^2 + ({name})^2 overflows a float at gamma = "
                                 f"{p.gamma:g}, {name} = {detun:g}")
        denom = math.sqrt(square)
        nu = 0.0 if denom == 0.0 else p.gamma / denom
        half = 0.5 * math.sqrt(p.gamma ** 2 + detun ** 2)
        branch.append((math.sqrt(1.0 + nu * nu), nu, math.asinh(nu), half))
    (mu1, nu1, r1, half1), (mu2, nu2, r2, half2) = branch
    shift = -0.5j * p.gamma
    return BogoliubovParams(mu1, nu1, mu2, nu2, r1, r2,
                            -half1 + shift, half1 + shift,
                            -half2 + shift, half2 + shift)


def _su11_factorization(eta_plus: complex, eta_3: complex, eta_minus: complex):
    """Coefficients of the normally ordered form of exp(eta_+ K_+ + eta_3 K_3
    + eta_- K_-) for su(1,1) generators.

    Returns (gamma_plus, g3_root, gamma_minus, phi) with gamma_3 = g3_root**2;
    computing the root directly sidesteps any square-root branch choice.  At
    eta = (0, -2 gamma t, 2 gamma t) this is the pure-loss channel, whose
    closed form loss_channel_factors gives.
    """
    phi = cmath.sqrt(eta_3 * eta_3 / 4.0 - eta_plus * eta_minus)
    try:
        sinh_phi, cosh_phi = cmath.sinh(phi), cmath.cosh(phi)
    except OverflowError:
        raise NumericalError(f"ordered-form factors overflow at phi = {phi:.6g}") from None
    if abs(phi) < 1e-6:
        p2 = phi * phi
        sinh_ratio = 1.0 + p2 / 6.0 + p2 * p2 / 120.0
    else:
        sinh_ratio = sinh_phi / phi
    denom = 2.0 * cosh_phi - eta_3 * sinh_ratio
    if denom == 0.0:
        raise NumericalError("ordered-form denominator vanished")
    g3_root = 2.0 / denom
    coeffs = (eta_plus * sinh_ratio * g3_root, g3_root,
              eta_minus * sinh_ratio * g3_root)
    if not all(cmath.isfinite(c) for c in coeffs):
        raise NumericalError(f"ordered-form coefficients are not finite at phi = {phi:.6g}")
    return (*coeffs, phi)


@dataclass(frozen=True)
class DisentangleParams:
    """Generator weights eta and the resulting ordered-product coefficients."""

    eta_plus: complex
    eta_3: complex
    eta_minus: complex
    phi: complex
    gamma_plus: complex
    gamma_3: complex
    gamma_minus: complex


def disentangle_params(p: DampedParams, t: float) -> DisentangleParams:
    """Ordered-product coefficients for the generator weights eta_- = gamma t,
    eta_3 = -2 (gamma + i J) t, eta_+ = -gamma t.

    These weights satisfy the boundary identities (all coefficients trivial at
    t = 0; |gamma_3| = 1 and gamma_+- = 0 at gamma = 0) but inject energy into
    the vacuum when gamma > 0, so the propagator uses the pure-loss weights
    from loss_channel_factors instead.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"t must be finite and >= 0, got {t}")
    eta_minus = complex(p.gamma * t)
    eta_3 = -2.0 * (p.gamma + 1j * p.J) * t
    eta_plus = complex(-p.gamma * t)
    g_plus, g3_root, g_minus, phi = _su11_factorization(eta_plus, eta_3, eta_minus)
    return DisentangleParams(eta_plus, eta_3, eta_minus, phi,
                             g_plus, g3_root * g3_root, g_minus)


def loss_channel_factors(gamma: float, t: float | np.ndarray):
    """(gamma_plus, sqrt(gamma_3), gamma_minus) for one mode with pure photon
    loss at rate gamma, at one time t or elementwise over an array of times:
    (0, e^{-gamma t}, 1 - e^{-2 gamma t}).  This is the closed form of the
    su(1,1) ordered form at eta = (0, -2 gamma t, 2 gamma t), which a test
    holds it to.  A gamma t that overflows a float gives the vacuum limit
    (0, 0, 1)."""
    with np.errstate(over="ignore"):
        rate = gamma * np.asarray(t, dtype=float)
        return 0.0, np.exp(-rate), -np.expm1(-2.0 * rate)


@lru_cache(maxsize=None)
def _sector_rotation(total: int) -> np.ndarray:
    # exp(-(pi/4)(a^dag b - b^dag a)) restricted to one total-photon sector;
    # the phase gauge diag(i^n) turns the antisymmetric generator into the
    # symmetric coupling matrix, so this is the coupler at Jt = pi/4 in that gauge.
    phase = np.array([1j ** n for n in range(total + 1)])
    core = _sector_unitary(total, CouplerParams(0.0, 1.0), math.pi / 4)
    u = phase.conj()[:, None] * core * phase[None, :]
    u.setflags(write=False)
    return u


@lru_cache(maxsize=None)
def mode_rotation(cutoff: int) -> np.ndarray:
    """Grid unitary of the balanced mode mixer taking a^dag b + b^dag a to
    n_b - n_a.  Corner sectors (total photon number above the cutoff) are left
    on the identity; capacity-supported states never reach them.  Built once
    per cutoff; the returned array is shared and read-only.  The propagator
    does not use this frame; a test builds a normal-mode reference from it."""
    out = _assemble_sectors(cutoff, _sector_rotation)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _root_binomials(dim: int) -> np.ndarray:
    # [k, n] -> sqrt(C(n, k)), zero for k > n; the largest n first, so that a
    # table whose binomials overflow a float is refused at once
    out = np.zeros((dim, dim))
    for n in range(dim - 1, -1, -1):
        out[:n + 1, n] = np.sqrt(_binomials(n))
    out.setflags(write=False)
    return out


def _lost_photons(values: np.ndarray, layout: _Layout):
    """Every way loss moves the occupied entries of rho down: k_a photons
    from mode a and k_b from mode b on both sides take |n_a, n_b><m_a, m_b|
    to |n_a - k_a, n_b - k_b><m_a - k_a, m_b - k_b| with the Kraus weight
    sqrt(C(n_a, k_a) C(m_a, k_a) C(n_b, k_b) C(m_b, k_b)), before any time
    factor.  Returns k = k_a + k_b, the target's four photon numbers and the
    weighted entry, one element per (entry, k_a, k_b)."""
    na, nb = np.divmod(layout.rows, layout.d)
    ma, mb = np.divmod(layout.cols, layout.d)
    per_a, per_b = np.minimum(na, ma) + 1, np.minimum(nb, mb) + 1
    count = per_a * per_b
    entry = np.repeat(np.arange(count.size), count)
    ka, kb = np.divmod(np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count),
                       per_b[entry])
    na, nb, ma, mb = na[entry], nb[entry], ma[entry], mb[entry]
    root = _root_binomials(layout.d)
    weighted = values[entry] * (root[ka, na] * root[ka, ma] * root[kb, nb] * root[kb, mb])
    return ka + kb, na - ka, nb - kb, ma - ka, mb - kb, weighted


class _SectorTerms(NamedTuple):
    """The t-independent part of rho(t) for one input, over a compact layout:
    whole sector block pairs (M, M'), one after the other, each row-major,
    for every pair that loss reaches from rho.  Every input loses all its
    photons in some term, so the pair (0, 0) is always laid out, first: entry
    0 is the vacuum population."""

    pairs: list            # (M, M', slice of the layout) per block pair
    lost: np.ndarray       # [k, entry]: k photons lost, coupler eigenbasis
    layout: _Layout        # every entry's transposed partner is laid out


def _sector_terms(occupied: _Occupied) -> _SectorTerms:
    d = occupied.layout.d
    k, na, nb, ma, mb, weighted = _lost_photons(*occupied)
    row_total, col_total = na + nb, ma + mb
    # both orders of every pair, so each entry's transposed partner is laid out
    reached = np.zeros(d * d, dtype=bool)
    reached[row_total * d + col_total] = reached[col_total * d + row_total] = True
    keys = np.flatnonzero(reached)
    sizes = (keys // d + 1) * (keys % d + 1)
    starts = np.cumsum(sizes) - sizes
    start_of = np.full(d * d, -1)
    start_of[keys] = starts
    size = int(sizes.sum())
    lost = np.zeros((d, size), dtype=complex)
    np.add.at(lost, (k, start_of[row_total * d + col_total] + na * (col_total + 1) + ma),
              weighted)
    layout = np.empty((2, size), dtype=int)
    pairs = []
    for key, start, n in zip(keys.tolist(), starts.tolist(), sizes.tolist()):
        m, m2 = divmod(key, d)
        sl = slice(start, start + n)
        vec, vec2 = _sector_eigensystem(m)[1], _sector_eigensystem(m2)[1]
        lost[:, sl] = (vec.T @ lost[:, sl].reshape(d, m + 1, m2 + 1) @ vec2).reshape(d, n)
        i, j = np.divmod(np.arange(n), m2 + 1)
        layout[:, sl] = (i * d + m - i, j * d + m2 - j)
        pairs.append((m, m2, sl))
    return _SectorTerms(pairs, lost, _Layout(d, *layout))


def _sector_stack(terms: _SectorTerms, p: DampedParams, times: np.ndarray) -> np.ndarray:
    """rho(t) on the compact layout, one row per time: the loss terms summed
    with weights gamma_-^k, eigenvector i of sector M scaled by
    sqrt(gamma_3)^M and its coupler phase e^{-i (omega M + J lam_i) t} on the
    left and by the conjugate on the right, then every block rotated out of
    the eigenbasis.  The loss weights take one vector-matrix product per time:
    a stacked gemm picks its kernel by the row count, which would make a row
    depend on its chunk.  The phases grow with t, so they are checked at the
    largest time only."""
    _require_finite_phases(terms.layout.d - 1, p.coupler(), float(times.max()))
    _, g3_root, g_minus = loss_channel_factors(p.gamma, times)
    column = times[:, None]
    # every sector in use is some pair's M: both orders of each pair are laid out
    amp = {m: g3_root[:, None] ** m * np.exp(-1j * p.omega * m * column)
           * np.exp(-1j * p.J * column * _sector_eigensystem(m)[0])
           for m in {m for m, _, _ in terms.pairs}}
    weights = g_minus[:, None] ** np.arange(terms.layout.d)
    stack = (weights[:, None, :] @ terms.lost)[:, 0, :]
    for m, m2, sl in terms.pairs:
        # a view into stack: the pair's entries are contiguous in each row
        block = stack[:, sl].reshape(times.size, m + 1, m2 + 1)
        block *= amp[m][:, :, None]
        block *= amp[m2].conj()[:, None, :]
        block[...] = _sector_eigensystem(m)[1] @ block @ _sector_eigensystem(m2)[1].T
    return stack


def _propagate(terms: _SectorTerms, p: DampedParams, times: np.ndarray,
               gathered: int = 0) -> Iterator[np.ndarray]:
    """rho(t) on the compact layout of terms, one chunk of the grid at a
    time, one row per time: each state has passed the trace-deficit gate and
    is renormalized and Hermitized.  A chunk holds as many times as
    _CHUNK_BYTES allows, counting per time the d = cutoff + 1 loss weights,
    three compact states (the stack, its Hermitized copy and the consumer's
    padded copy) and the gathered entries that the consumer takes from each
    state; the budget bounds memory only, since every row is reduced alone
    (fock._ordered_sum).  The stack is freed before a chunk is handed on.
    On a trace deficit the states before it come out first."""
    layout = terms.layout
    step = max(1, _CHUNK_BYTES // (16 * (3 * layout.partner.size + layout.d + gathered)))
    for begin in range(0, times.size, step):
        stack = _sector_stack(terms, p, times[begin:begin + step])
        trace = _ordered_sum(stack[:, layout.diag].real)
        deficit = np.abs(trace - 1.0)
        bad = np.flatnonzero(deficit > TRACE_DEFICIT_LIMIT)
        error = None
        if bad.size:
            error = TruncationError(
                f"probability {deficit[bad[0]]:.3e} left the grid; raise the cutoff above "
                f"{layout.d - 1}", tail_estimate=float(deficit[bad[0]]))
            stack, trace = stack[:bad[0]], trace[:bad[0]]
        stack /= trace[:, None]
        states = stack[:, layout.partner]
        np.conjugate(states, out=states)
        states += stack
        states *= 0.5
        del stack
        if states.shape[0]:
            yield states
        if error is not None:
            raise error


class DampedStates:
    """rho(t) over a 1-D array of times, built one chunk of the grid at a
    time as it is consumed, so memory does not grow with the number of times.
    The call's _SectorTerms carry all of rho that the propagator reads.

    Iterating gives the states in order, each a validated
    TwoModeDensityMatrix holding a read-only copy of its chunk row on the
    call's layout, whose positions its repr counts.  measures() gives
    instead the columns E_N, the entropy S of mode a and the purity over the
    whole grid, one chunk at a time, straight from the compact layout
    (fock._measures): every state passes the same gates, and no dense state
    is built unless rho mixes photon sectors."""

    def __init__(self, terms: _SectorTerms, p: DampedParams, times: np.ndarray):
        self._terms, self._p, self._times = terms, p, times
        self._states = self._held_states()  # runs from the first next()

    def __iter__(self) -> "DampedStates":
        return self

    def __next__(self) -> TwoModeDensityMatrix:
        return next(self._states)

    def _held_states(self) -> Iterator[TwoModeDensityMatrix]:
        layout = self._terms.layout
        for chunk in _propagate(self._terms, self._p, self._times):
            for row in chunk:
                values = row.copy()
                values.setflags(write=False)
                yield TwoModeDensityMatrix(layout.d - 1, _Occupied(values, layout))

    def measures(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One (E_N, S, purity) triple of arrays per chunk of the grid, in order."""
        layout = self._terms.layout
        for chunk in _propagate(self._terms, self._p, self._times, layout.gathered):
            yield _measures(chunk, layout)


def evolve_damped_exact(rho: TwoModeDensityMatrix, p: DampedParams, t: float | np.ndarray
                        ) -> TwoModeDensityMatrix | DampedStates:
    """Propagate rho under the coupler Hamiltonian with equal photon loss on
    both modes, to one time t >= 0 or over an array of times.

    A float t gives the state at t.  A 1-D array gives a DampedStates: an
    iterator over the states at its times, in order, each built as it is
    drawn, so memory does not grow with the number of times; its measures()
    gives the E_N, S and purity columns instead.  No time stepping is
    involved.  Once e^{-gamma t} underflows to 0 (gamma t above about 745)
    the loss weights give exactly the vacuum."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValidationError(f"t must be a number or a 1-D array, got shape {times.shape}")
    flat = times.reshape(-1)
    if flat.size and not (flat.min() >= 0.0 and math.isfinite(flat.max())):
        bad = flat[~(np.isfinite(flat) & (flat >= 0.0))][0]
        raise ValidationError(f"t must be finite and >= 0, got {bad}")
    layout = rho._occupied.layout
    occupied = np.zeros(layout.d ** 2)
    occupied[layout.rows] = occupied[layout.cols] = 1.0
    _require_capacity_support(occupied.reshape(layout.d, layout.d), rho.cutoff, "density matrix")
    states = DampedStates(_sector_terms(rho._occupied), p, flat)
    return next(states) if times.ndim == 0 else states


def _theta(p: DampedParams, t: float) -> complex:
    return complex(math.sqrt(2.0) * p.gamma, p.J) * t


def _damped_diagonals(total: int, p: DampedParams, times: np.ndarray) -> np.ndarray:
    """The lossless family at the effective angle of each time of a 1-D
    array, one row per time: sin^2 -> |sinh th|^2 / cosh 2x and cos^2 ->
    |cosh th|^2 / cosh 2x with th = x + iy, both written through tanh x so
    that no factor overflows at large gamma t.  The angles are math's, per
    time; the first time that is not finite and >= 0, or whose J t
    overflows, raises.  Both weights are finite and lie in [0, 1]."""
    s2, c2 = [], []
    for t in times.tolist():
        if not (math.isfinite(t) and t >= 0.0):
            raise ValidationError(f"t must be finite and >= 0, got {t}")
        x, y = math.sqrt(2.0) * p.gamma * t, p.J * t
        if not math.isfinite(x):  # sqrt(2) gamma alone may overflow, to nan at t = 0
            x = math.sqrt(2.0) * (p.gamma * t)
        if math.isinf(y):
            raise NumericalError(f"J t = {p.J:g} * {t:g} overflows a float")
        th2 = math.tanh(x) ** 2
        s2.append((th2 + math.sin(y) ** 2 * (1.0 - th2)) / (1.0 + th2))
        c2.append((th2 + math.cos(y) ** 2 * (1.0 - th2)) / (1.0 + th2))
    return _binomial_family(total, np.array(s2)[:, None], np.array(c2)[:, None])


def damped_pt_spectrum(total: int, p: DampedParams, t: float) -> np.ndarray:
    """Closed-form partial-transpose spectrum (descending) for the damped
    coupler driven by the |0, N> input, renormalized to unit trace: the
    lossless spectrum at the effective angle atan(|sinh th| / |cosh th|),
    th = (sqrt(2) gamma + i J) t.  At gamma = 0 this coincides with the
    lossless spectrum as a multiset."""
    weights = _damped_diagonals(total, p, np.array([t]))[0]
    mags = np.sqrt(weights)
    return _pt_spectrum(weights, np.outer(mags, mags))


def _damped_entropies(total: int, p: DampedParams, times: np.ndarray) -> np.ndarray:
    """damped_entropy over a 1-D array of times: one binomial table for the
    grid.  A row with a weight outside [0, 1] is checked alone, as
    entropy_bits checks it."""
    weights = _damped_diagonals(total, p, times)
    for k in np.flatnonzero(~((weights >= 0.0) & (weights <= 1.0)).all(axis=1)).tolist():
        entropy_bits(weights[k])
    return _gated("entropy", _entropy_bits(weights))


def damped_entropy(total: int, p: DampedParams, t: float) -> MeasureValue:
    """Entropy (bits) of the normalized diagonal family; reduces to the
    lossless entropy at gamma = 0, to 0 at t = 0, and to the entropy of
    Binomial(N, 1/2) as gamma t grows."""
    return MeasureValue("entropy", float(_damped_entropies(total, p, np.array([t]))[0]))


_PURITY_VARIANTS = ("as-printed", "rate-times-t")


def _purities_closed(p: DampedParams, times: np.ndarray,
                     variant: str = "as-printed") -> np.ndarray:
    """purity_closed over a 1-D array of times, each value cmath's, per
    time; the first time that fails raises its error."""
    if variant not in _PURITY_VARIANTS:
        raise ValidationError(f"variant must be one of {_PURITY_VARIANTS}, got {variant!r}")
    values = []
    for t in times.tolist():
        if not (math.isfinite(t) and t >= 0.0):
            raise ValidationError(f"t must be finite and >= 0, got {t}")
        th = _theta(p, t)
        if th == 0.0 or p.gamma == 0.0:  # th underflows only where 4 gamma t does: the limit 1
            values.append(1.0)
            continue
        if not cmath.isfinite(th):
            raise NumericalError(f"(sqrt(2) gamma + i J) t = {th} overflows a float")
        if variant == "as-printed":
            mix = complex(p.gamma, p.J * t)
        else:
            mix = complex(p.gamma, p.J) * t
        # -4 gamma t sinh th / (th cosh th + mix sinh th), divided through by
        # cosh th so that nothing overflows at large gamma t
        tanh = cmath.tanh(th)
        expo = -4.0 * p.gamma * t * tanh / (th + mix * tanh)
        value = min(max(cmath.exp(expo).real, 0.0), 1.0)
        if math.isnan(value):  # refused here, by MeasureValue's gate, before a later time's error
            _gated("purity", np.array([value]))
        values.append(value)
    return np.array(values)


def purity_closed(p: DampedParams, t: float, variant: str = "as-printed") -> MeasureValue:
    """Closed-form purity of the damped pair, exactly 1 at t = 0 or gamma = 0.
    A t > 0 at which th = (sqrt(2) gamma + i J) t underflows to 0 gives the
    t -> 0 limit, 1.

    The two variants differ in the mixing term of the denominator:
    "as-printed" uses gamma + i J t, "rate-times-t" uses (gamma + i J) t.
    The real part is clamped into [0, 1].

    This is the paper's curve family, not the purity of the dynamics.  At
    J = 1, gamma in {0.05, 0.3} and 12 times in [0.1, 5] either variant
    differs from purity(evolve_damped_exact(...)) by up to 0.477 for |1,0>
    and up to 0.727 for |1,1> and NOON-2; at J = 1, gamma = 0.05, t = 5 it
    gives 1.0 where the exact purity of |1,0> is 0.523.  Before the clamp
    the "as-printed" value exceeds 1 on 445 of the 1200 nonzero-time points
    of figure 5a (max 1.049) and on 132 of 1200 in figure 5b (max 1.056).
    """
    return MeasureValue("purity", float(_purities_closed(p, np.array([t]), variant)[0]))
