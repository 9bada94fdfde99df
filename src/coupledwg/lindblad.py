"""Brute-force master-equation integrator used as the numerical referee.

Marches the density matrix on the full product grid with classical fixed-step
RK4.  The right-hand side is the Lindblad form with a non-Hermitian
H_eff = H - i gamma (n_a + n_b) (Dalibard, Castin & Molmer, PRL 68, 580, 1992),
L(rho) = -i (H_eff rho - rho H_eff^dag) + 2 gamma (a rho a^dag + b rho b^dag),
applied as two dense products over operators stacked once per system:
[-i H_eff; s a; s b] rho, then [rho, s a rho, s b rho] [i H_eff^dag; s a^T; s b^T]
with s = sqrt(2 gamma).  It is independent of the closed forms so it can
arbitrate them, and it keeps only the sampled states.

The generator does not depend on time, so an RK4 step of size h is one fixed
linear map of rho: the stability polynomial 1 + z + z^2/2 + z^3/6 + z^4/24
at z = hL (Hairer & Wanner, Solving ODEs II, IV.2).  Most entries of rho
stay exactly 0 for a whole run, so integrate tabulates that map on the grid
positions the step reaches from rho's support (_set_table), for each h that
serves at least as many steps as the set has members, up to _TABLE_ENTRIES
members; each of that h's steps is then one matrix-vector product on the
set.  The set and every table entry come from running the dense _rk4_step
on basis matrices, not from the physics, and every sample is scattered back
to a dense matrix.  Every other h marches _rk4_step, the only RK4 formula.
On one BLAS thread (numpy 2.4.6, scipy-openblas 0.3.31, 2-core x86 host,
NOON-c inputs, J = 0.6, gamma = 0.02, h = 0.005) a step takes 2.6, 2.6,
2.9, 3.8 and 9 us tabulated at cutoffs 1-4 and 6, on sets of 5, 14, 30, 55
and 140 members, against 39, 49, 79, 166 and 615 us marched; a build costs
about one marched step per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .damped import DampedParams
from .errors import IntegrationError, ValidationError
from .fock import TwoModeDensityMatrix, _as_entries, _measure_columns, _support

SAMPLE_TRACE_TOL = 1e-9
SAMPLE_EIG_FLOOR = -1e-9
# a step of integrate takes 2.6-3.8 us tabulated at cutoffs 1-4 and 9 us at
# cutoff 6 (NOON inputs), 166 us marched at cutoff 4 (module docstring), so
# 10^6 steps take about 4 s tabulated on a set of up to 55 members and about
# 3 minutes marched at cutoff 4; the workloads take a few thousand
MAX_RK4_STEPS = 10 ** 6
# the most grid positions, closed under transposition, on which integrate
# tabulates an RK4 step: a table of at most 1 MiB.  NOON-7 reaches 204 (14 us
# a step, 1.1 ms marched); NOON-8 reaches 285 and marches
_TABLE_ENTRIES = 256
# the most entries in one stack of basis matrices that a table's build steps:
# 64 KiB, so the build's temporaries stay small beside the process (peak
# RSS), and no larger stack is faster per member at cutoffs 3-6
_STACK_ENTRIES = 4096


def default_dt(p: DampedParams) -> float:
    """Step size small enough for the fastest rate in play."""
    return 0.01 / max(p.omega, p.J, p.gamma, 1.0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings."""

    dt: float
    t_max: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValidationError(f"t_max must be finite and > 0, got {self.t_max}")
        steps = self.t_max / self.dt
        if not steps <= MAX_RK4_STEPS:  # written so that NaN fails too
            raise ValidationError(f"t_max / dt = {steps:g} steps is over {MAX_RK4_STEPS}")


@lru_cache(maxsize=8)
def _system_operators(cutoff: int, omega: float, coupling: float, gamma: float):
    """The stacks left = [-i H_eff; s a; s b] and right = [i H_eff^dag; s a^T;
    s b^T], each (3 d^2) x d^2 complex with s = sqrt(2 gamma); shared and
    read-only."""
    d = cutoff + 1
    low = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    a = np.kron(low, np.eye(d))
    b = np.kron(np.eye(d), low)
    h_eff = (omega - 1j * gamma) * (a.T @ a + b.T @ b) + coupling * (a.T @ b + b.T @ a)
    s = math.sqrt(2.0 * gamma)
    left = np.concatenate([-1j * h_eff, s * a, s * b])
    right = np.concatenate([1j * h_eff.conj().T, s * a.T, s * b.T])
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def liouvillian_apply(rho_mat: np.ndarray, cutoff: int, p: DampedParams) -> np.ndarray:
    """Right-hand side of the master equation, in the Lindblad form above, of
    one grid matrix or of each matrix of a stack (..., d^2, d^2)."""
    left, right = _system_operators(cutoff, p.omega, p.J, p.gamma)
    n = rho_mat.shape[-1]
    z = left @ rho_mat
    return z[..., :n, :] + np.concatenate(
        [rho_mat, z[..., n:2 * n, :], z[..., 2 * n:, :]], axis=-1) @ right


def _rk4_step(rho_mat: np.ndarray, cutoff: int, p: DampedParams, h: float) -> np.ndarray:
    k1 = liouvillian_apply(rho_mat, cutoff, p)
    k2 = liouvillian_apply(rho_mat + 0.5 * h * k1, cutoff, p)
    k3 = liouvillian_apply(rho_mat + 0.5 * h * k2, cutoff, p)
    k4 = liouvillian_apply(rho_mat + h * k3, cutoff, p)
    return rho_mat + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _set_table(rho: np.ndarray, cutoff: int, p: DampedParams, h: float, limit: int):
    """The RK4 step at h on the grid positions it reaches from rho's support,
    as (reached, partner, table), or None when more than limit positions are
    reached or an image is not finite.

    reached is a boolean (d^2, d^2) mask, closed under transposition; its
    members are read in row-major order, and partner[k] is the member at
    member k's transposed position.  Column k of table is _rk4_step of member
    k's basis matrix, read on the members.  The set grows from rho's support:
    each new member's basis matrix is stepped once, in stacks of at most
    _STACK_ENTRIES entries, and every position an image makes nonzero, and
    its transpose, joins the set, until nothing new appears.  The growth
    stops before the first stack that would start from more than limit
    positions, so a refused set costs at most about limit steps."""
    n = rho.shape[0]
    reached = (rho != 0) | (rho != 0).T
    new = np.flatnonzero(reached)
    chunk = max(1, _STACK_ENTRIES // rho.size)
    pieces = []
    while new.size:
        stepped = reached.copy()
        for part in np.split(new, range(chunk, new.size, chunk)):
            if np.count_nonzero(reached) > limit:
                return None
            basis = np.zeros((part.size, rho.size), dtype=complex)
            basis[np.arange(part.size), part] = 1.0
            images = _rk4_step(basis.reshape(-1, n, n), cutoff, p, h).reshape(part.size, -1)
            if not np.isfinite(images).all():
                return None
            cols = np.flatnonzero(images.any(axis=0))
            pieces.append((part, cols, images[:, cols]))
            rows, columns = np.divmod(cols, n)
            reached[rows, columns] = reached[columns, rows] = True
        new = np.flatnonzero(reached & ~stepped)
    members = np.flatnonzero(reached)
    index = np.zeros(rho.size, dtype=np.intp)
    index[members] = np.arange(members.size)
    table = np.zeros((members.size, members.size), dtype=complex)
    for part, cols, values in pieces:
        table[index[cols][:, None], index[part]] = values.T
    return reached, index[members % n * n + members // n], table


@dataclass(frozen=True)
class Trajectory:
    """Sampled states from one integration run.  states holds read-only
    complex matrices (not validated density-matrix objects, so the stored
    trace drift is visible rather than masked)."""

    times: np.ndarray
    states: tuple
    diagnostics: dict

    def __post_init__(self):
        self.times.setflags(write=False)

    def __len__(self) -> int:
        return len(self.states)


def integrate(rho0: TwoModeDensityMatrix, p: DampedParams, config: IntegratorConfig,
              sample_times: Sequence[float] | None = None) -> Trajectory:
    """March rho0 forward with fixed-step RK4, storing only the sampled states.

    sample_times defaults to 21 evenly spaced points on [0, t_max].  Each
    interval between consecutive samples is covered by ceil(span/dt) equal
    substeps.  The state is re-Hermitized after every step (roundoff hygiene)
    but the trace is never rescaled, so trace drift is a genuine error signal:
    every sample is checked for |trace - 1| <= 1e-9 and eigenvalues >= -1e-9.
    An h that serves at least as many steps of the call as rho's reached set
    has members steps through its set table (module docstring): 2.6-3.8 us a
    step at cutoffs 1-4 and 9 us at cutoff 6, against 39-166 and 615 us
    marched.  The table is built on the h's first interval and dropped after
    its last, and no table outlives the call.  An interval whose rho has
    support outside its h's set marches.  diagnostics counts rk4_steps, the
    tabulated_steps among them and the table_members of the largest table.
    """
    if sample_times is None:
        times = np.linspace(0.0, config.t_max, 21)
    else:
        times = np.asarray(list(sample_times), dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("sample_times must be a non-empty 1-D sequence")
        if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValidationError("sample_times must be non-negative and strictly increasing")
        if times[-1] > config.t_max * (1.0 + 1e-12) + 1e-15:
            raise ValidationError("sample_times reach beyond t_max")
    # each interval's (substeps, h), the steps each h serves and the last
    # interval that uses it
    plan, served, last_use = [], {}, {}
    t_now = 0.0
    for i, target in enumerate(times):
        nsteps, h = 0, 0.0
        span = float(target) - t_now
        if span > 1e-15:
            nsteps = max(1, math.ceil(span / config.dt - 1e-12))
            h = span / nsteps
            served[h] = served.get(h, 0) + nsteps
            last_use[h] = i
            t_now = float(target)
        plan.append((nsteps, h))
    rho = rho0.entries
    tables = {}
    samples = []
    worst_drift = 0.0
    worst_eig = np.inf
    steps_taken = tabulated = largest = 0
    for i, (target, (nsteps, h)) in enumerate(zip(times, plan)):
        # a step far above the stable one overflows to a non-finite state,
        # which the trace gate below refuses
        with np.errstate(over="ignore", invalid="ignore"):
            held = None
            if nsteps:
                if h not in tables:
                    tables[h] = _set_table(rho, rho0.cutoff, p, h,
                                           min(_TABLE_ENTRIES, served[h]))
                    if tables[h] is not None:
                        largest = max(largest, tables[h][2].shape[0])
                held = tables[h] if last_use[h] > i else tables.pop(h)
            if held is not None and not rho[~held[0]].any():
                reached, partner, table = held
                v = rho[reached]
                for _ in range(nsteps):
                    v = table @ v
                    v = 0.5 * (v + v[partner].conj())
                rho = np.zeros(rho.shape, dtype=complex)
                rho[reached] = v
                tabulated += nsteps
            else:
                for _ in range(nsteps):
                    rho = _rk4_step(rho, rho0.cutoff, p, h)
                    rho = 0.5 * (rho + rho.conj().T)
        steps_taken += nsteps
        drift = abs(float(np.trace(rho).real) - 1.0)
        worst_drift = max(worst_drift, drift)
        if not drift <= SAMPLE_TRACE_TOL:  # written so that NaN fails too
            raise IntegrationError(
                f"trace drifted by {drift:.3e} at t={target:g}; reduce dt "
                f"(currently {config.dt:g})")
        low = float(np.linalg.eigvalsh(rho).min())
        worst_eig = min(worst_eig, low)
        if not low >= SAMPLE_EIG_FLOOR:
            raise IntegrationError(
                f"eigenvalue {low:.3e} at t={target:g}; reduce dt or raise the cutoff")
        rho.setflags(write=False)  # every step allocates a fresh array
        samples.append(rho)
    return Trajectory(times=times.copy(), states=tuple(samples),
                      diagnostics={"max_trace_drift": worst_drift,
                                   "min_eigenvalue": worst_eig,
                                   "rk4_steps": steps_taken,
                                   "tabulated_steps": tabulated,
                                   "table_members": largest})


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference; accepts matrices or
    density-matrix objects."""
    ent_r, d_r = _as_entries(rho)
    ent_s, d_s = _as_entries(sigma)
    if d_r != d_s:
        raise ValidationError(f"grid mismatch: {d_r} vs {d_s}")
    diff = ent_r - ent_s
    evals = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.abs(evals).sum())


@dataclass(frozen=True)
class DeviationReport:
    """Per-sample disagreement between a closed-form trajectory and the
    integrator, plus deltas of the derived measures (closed minus oracle)."""

    times: np.ndarray
    max_abs_entry: np.ndarray
    trace_distances: np.ndarray
    entropy_delta: np.ndarray
    log_negativity_delta: np.ndarray
    purity_delta: np.ndarray

    @property
    def worst_trace_distance(self) -> float:
        return float(self.trace_distances.max())


def compare(closed_states: Iterable, oracle: Trajectory) -> DeviationReport:
    """Line up closed-form states against oracle samples (same grid, same
    number of points) and report elementwise and measure-level deviations.
    Each pair's elementwise gap and trace distance read its dense matrices;
    the measures read each side as one stack on the union of its occupied
    positions, through the measure gates alone.  So the first sample whose
    trace is off by more than fock.TRACE_TOL = 1e-10 raises ValidationError,
    although integrate keeps samples off by up to SAMPLE_TRACE_TOL = 1e-9."""
    closed = list(closed_states)
    if len(closed) != len(oracle.states):
        raise ValidationError(
            f"{len(closed)} closed-form states vs {len(oracle.states)} samples")
    ours = [_as_entries(state)[0] for state in closed]
    max_abs, tdist = [], []
    for mine, ref in zip(ours, oracle.states):
        if mine.shape != ref.shape:
            raise ValidationError(f"grid mismatch: {mine.shape} vs {ref.shape}")
        max_abs.append(float(np.abs(mine - ref).max()))
        tdist.append(trace_distance(mine, ref))
    d = math.isqrt(ours[0].shape[0]) if ours else 1  # no samples: stacks (0, 1, 1)
    (en, s, pur), (ref_en, ref_s, ref_pur) = (
        _measure_columns(*_support(np.reshape(side, (-1, d * d, d * d)), d))
        for side in (ours, oracle.states))
    return DeviationReport(times=oracle.times.copy(), max_abs_entry=np.asarray(max_abs),
                           trace_distances=np.asarray(tdist), entropy_delta=s - ref_s,
                           log_negativity_delta=en - ref_en, purity_delta=pur - ref_pur)
