"""Brute-force master-equation integrator used as the numerical referee.

Marches the density matrix on the full product grid with classical fixed-step
RK4.  The right-hand side is the Lindblad form with a non-Hermitian
H_eff = H - i gamma (n_a + n_b) (Dalibard, Castin & Molmer, PRL 68, 580, 1992),
L(rho) = -i (H_eff rho - rho H_eff^dag) + 2 gamma (a rho a^dag + b rho b^dag):
six dense (d^2) x (d^2) products per apply.  It is independent of the closed
forms so it can arbitrate them, and it keeps only the sampled states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .damped import DampedParams
from .errors import IntegrationError, ValidationError
from .fock import TwoModeDensityMatrix, _as_entries, log_negativity, purity, \
    reduced_state, von_neumann_entropy

SAMPLE_TRACE_TOL = 1e-9
SAMPLE_EIG_FLOOR = -1e-9
MAX_RK4_STEPS = 10 ** 6  # about 5 minutes at cutoff 4; the workloads take a few thousand


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
    """H_eff, its adjoint and the jumps a, b on the grid; shared and read-only."""
    d = cutoff + 1
    low = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    a = np.kron(low, np.eye(d))
    b = np.kron(np.eye(d), low)
    h_eff = (omega - 1j * gamma) * (a.T @ a + b.T @ b) + coupling * (a.T @ b + b.T @ a)
    ops = (h_eff, h_eff.conj().T, a, b)
    for mat in ops:
        mat.setflags(write=False)
    return ops


def liouvillian_apply(rho_mat: np.ndarray, cutoff: int, p: DampedParams) -> np.ndarray:
    """Right-hand side of the master equation, in the Lindblad form above."""
    h_eff, h_eff_adj, a, b = _system_operators(cutoff, p.omega, p.J, p.gamma)
    out = -1j * (h_eff @ rho_mat - rho_mat @ h_eff_adj)
    if p.gamma != 0.0:
        out += 2.0 * p.gamma * (a @ rho_mat @ a.T + b @ rho_mat @ b.T)
    return out


def _rk4_step(rho_mat: np.ndarray, cutoff: int, p: DampedParams, h: float) -> np.ndarray:
    k1 = liouvillian_apply(rho_mat, cutoff, p)
    k2 = liouvillian_apply(rho_mat + 0.5 * h * k1, cutoff, p)
    k3 = liouvillian_apply(rho_mat + 0.5 * h * k2, cutoff, p)
    k4 = liouvillian_apply(rho_mat + h * k3, cutoff, p)
    return rho_mat + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


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
    rho = rho0.entries
    samples = []
    worst_drift = 0.0
    worst_eig = np.inf
    steps_taken = 0
    t_now = 0.0
    for target in times:
        span = float(target) - t_now
        if span > 1e-15:
            nsteps = max(1, math.ceil(span / config.dt - 1e-12))
            h = span / nsteps
            for _ in range(nsteps):
                rho = _rk4_step(rho, rho0.cutoff, p, h)
                rho = 0.5 * (rho + rho.conj().T)
            steps_taken += nsteps
            t_now = float(target)
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
                                   "rk4_steps": steps_taken})


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference; accepts matrices or
    density-matrix objects."""
    ent_r, d_r = _as_entries(rho)
    ent_s, d_s = _as_entries(sigma)
    if d_r != d_s:
        raise ValidationError(f"grid mismatch: {d_r} vs {d_s}")
    evals = np.linalg.eigvalsh(0.5 * (ent_r - ent_s)
                               + 0.5 * (ent_r - ent_s).conj().T)
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
    number of points) and report elementwise and measure-level deviations."""
    closed = [_as_entries(state)[0] for state in closed_states]
    if len(closed) != len(oracle.states):
        raise ValidationError(
            f"{len(closed)} closed-form states vs {len(oracle.states)} samples")
    max_abs, tdist, ds, de, dp = [], [], [], [], []
    for ours, ref in zip(closed, oracle.states):
        if ours.shape != ref.shape:
            raise ValidationError(f"grid mismatch: {ours.shape} vs {ref.shape}")
        max_abs.append(float(np.abs(ours - ref).max()))
        tdist.append(trace_distance(ours, ref))
        ds.append(float(von_neumann_entropy(reduced_state(ours)))
                  - float(von_neumann_entropy(reduced_state(ref))))
        de.append(float(log_negativity(ours)) - float(log_negativity(ref)))
        dp.append(float(purity(ours)) - float(purity(ref)))
    return DeviationReport(times=oracle.times.copy(),
                           max_abs_entry=np.asarray(max_abs),
                           trace_distances=np.asarray(tdist),
                           entropy_delta=np.asarray(ds),
                           log_negativity_delta=np.asarray(de),
                           purity_delta=np.asarray(dp))
