import math

import numpy as np
import pytest

from coupledwg import lindblad
from coupledwg.damped import DampedParams, evolve_damped_exact
from coupledwg.errors import IntegrationError, ValidationError
from coupledwg.fock import TwoModeDensityMatrix, fock_state, noon_state, purity
from coupledwg.lindblad import (
    DeviationReport,
    IntegratorConfig,
    Trajectory,
    compare,
    default_dt,
    integrate,
    liouvillian_apply,
    trace_distance,
)
from coupledwg.lossless import CouplerParams, evolve_lossless_dm


def dm(state):
    return TwoModeDensityMatrix.from_pure(state)


def test_config_validation():
    IntegratorConfig(dt=0.01, t_max=1.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(dt=0.0, t_max=1.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(dt=0.01, t_max=0.0)
    with pytest.raises(ValidationError, match="steps"):
        IntegratorConfig(dt=1e-320, t_max=10.0)
    IntegratorConfig(dt=1.0, t_max=float(lindblad.MAX_RK4_STEPS))
    with pytest.raises(ValidationError, match="over"):
        IntegratorConfig(dt=1.0, t_max=lindblad.MAX_RK4_STEPS + 1.0)


def test_default_dt_tracks_fastest_rate():
    assert default_dt(DampedParams(0.0, 0.5, 0.05)) == 0.01
    assert default_dt(DampedParams(0.0, 4.0, 0.05)) == 0.0025
    assert default_dt(DampedParams(8.0, 0.5, 0.05)) == 0.00125


def _reference_apply(rho_mat, cutoff, p):
    # the apply before the Lindblad form: -i [H, rho] plus, per mode, the
    # dissipator gamma (2 L rho L^dag - n rho - rho n) with n = L^dag L
    d = cutoff + 1
    low = np.zeros((d, d))
    for n in range(1, d):
        low[n - 1, n] = math.sqrt(n)
    a = np.kron(low, np.eye(d))
    b = np.kron(np.eye(d), low)
    num_a, num_b = a.T @ a, b.T @ b
    ham = p.omega * (num_a + num_b) + p.J * (a.T @ b + b.T @ a)
    out = -1j * (ham @ rho_mat - rho_mat @ ham)
    if p.gamma != 0.0:
        for op, num in ((a, num_a), (b, num_b)):
            out += p.gamma * (2.0 * (op @ rho_mat @ op.conj().T)
                              - num @ rho_mat - rho_mat @ num)
    return out


def test_lindblad_form_matches_reference_apply():
    rng = np.random.default_rng(8)
    for cutoff in range(7):
        d2 = (cutoff + 1) ** 2
        for omega in (0.0, 0.3):
            for coupling in (0.5, 2.0):
                for gamma in (0.0, 0.05, 1.0):
                    p = DampedParams(omega, coupling, gamma)
                    raw = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
                    raw /= np.linalg.norm(raw)
                    for mat in (0.5 * (raw + raw.conj().T), raw):
                        gap = np.abs(liouvillian_apply(mat, cutoff, p)
                                     - _reference_apply(mat, cutoff, p)).max()
                        assert gap <= 1e-13, (cutoff, p)


def test_rhs_is_traceless():
    rng = np.random.default_rng(11)
    p = DampedParams(0.3, 0.8, 0.2)
    d2 = 9
    for _ in range(50):
        raw = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        herm = 0.5 * (raw + raw.conj().T)
        herm = herm / np.trace(herm).real
        out = liouvillian_apply(herm, 2, p)
        assert abs(np.trace(out)) < 1e-12


def test_vacuum_is_stationary():
    p = DampedParams(0.0, 1.0, 0.3)
    cfg = IntegratorConfig(dt=0.01, t_max=2.0)
    traj = integrate(dm(fock_state(0, 0, 2)), p, cfg)
    for state in traj.states:
        assert np.max(np.abs(state - traj.states[0])) < 1e-12


def test_first_sample_is_exact_input():
    rho = dm(noon_state(2, 2))
    traj = integrate(rho, DampedParams(0.0, 1.0, 0.1),
                     IntegratorConfig(dt=0.005, t_max=1.0))
    assert np.array_equal(traj.states[0], rho.entries)
    assert traj.times[0] == 0.0


def test_lossless_limit_matches_closed_propagator():
    p = DampedParams(0.0, 1.0, 0.0)
    rho = dm(fock_state(1, 1, 2))
    t_end = math.pi / 4
    cfg = IntegratorConfig(dt=1e-3, t_max=t_end)
    traj = integrate(rho, p, cfg, sample_times=[t_end])
    ref = evolve_lossless_dm(rho, CouplerParams(0.0, 1.0), t_end)
    assert np.max(np.abs(traj.states[0] - ref.entries)) < 1e-8


def test_photon_number_decay():
    p = DampedParams(0.0, 0.7, 0.2)
    cutoff = 2
    d = cutoff + 1
    rho = dm(fock_state(1, 1, cutoff))
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0)
    traj = integrate(rho, p, cfg, sample_times=[0.5, 1.0])
    grid_total = (np.arange(d)[:, None] + np.arange(d)[None, :]).reshape(-1)
    for t, state in zip(traj.times, traj.states):
        mean = float(np.real(np.diag(state) @ grid_total))
        assert abs(mean - 2.0 * math.exp(-2.0 * p.gamma * t)) < 1e-6


def test_purity_preserved_without_loss():
    p = DampedParams(0.0, 1.2, 0.0)
    traj = integrate(dm(noon_state(2, 2)), p, IntegratorConfig(dt=1e-3, t_max=1.0))
    for state in traj.states:
        assert float(purity(state)) == pytest.approx(1.0, abs=1e-9)


def test_rk4_convergence_order():
    # halving dt must cut the error by roughly 2^4; the analytic zero-loss
    # propagator provides the exact solution
    p = DampedParams(0.0, 1.0, 0.0)
    rho = dm(fock_state(1, 0, 1))
    t_end = 2.0 * math.pi
    ref = evolve_lossless_dm(rho, CouplerParams(0.0, 1.0), t_end)
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate(rho, p, IntegratorConfig(dt=dt, t_max=t_end),
                         sample_times=[t_end])
        errs.append(np.max(np.abs(traj.states[0] - ref.entries)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_sample_time_validation():
    rho = dm(fock_state(0, 0, 1))
    p = DampedParams(0.0, 1.0, 0.1)
    cfg = IntegratorConfig(dt=0.01, t_max=1.0)
    with pytest.raises(ValidationError):
        integrate(rho, p, cfg, sample_times=[0.5, 0.5])
    with pytest.raises(ValidationError):
        integrate(rho, p, cfg, sample_times=[0.5, 1.5])
    with pytest.raises(ValidationError):
        integrate(rho, p, cfg, sample_times=[])
    with pytest.raises(ValidationError):
        integrate(rho, p, cfg, sample_times=[-0.5, 0.5])


def test_unstable_step_raises():
    p = DampedParams(0.0, 1.0, 5.0)
    cfg = IntegratorConfig(dt=0.5, t_max=3.0)
    with pytest.raises(IntegrationError):
        integrate(dm(fock_state(1, 1, 2)), p, cfg)


def test_nan_state_trips_the_trace_gate(monkeypatch):
    monkeypatch.setattr(lindblad, "liouvillian_apply",
                        lambda rho_mat, cutoff, p: np.full_like(rho_mat, np.nan))
    with pytest.raises(IntegrationError, match="trace"):
        integrate(dm(fock_state(1, 0, 1)), DampedParams(0.0, 1.0, 0.1),
                  IntegratorConfig(dt=0.01, t_max=0.1))


def test_samples_are_read_only():
    traj = integrate(dm(fock_state(1, 0, 1)), DampedParams(0.0, 1.0, 0.1),
                     IntegratorConfig(dt=0.01, t_max=0.1))
    for state in traj.states:
        assert not state.flags.writeable


def test_diagnostics_recorded():
    p = DampedParams(0.0, 1.0, 0.1)
    traj = integrate(dm(fock_state(1, 0, 1)), p, IntegratorConfig(dt=0.005, t_max=1.0))
    assert traj.diagnostics["rk4_steps"] >= 200
    assert traj.diagnostics["max_trace_drift"] <= 1e-9
    assert traj.diagnostics["min_eigenvalue"] >= -1e-9
    assert len(traj) == 21


def test_trace_distance_basics():
    rho = dm(fock_state(1, 0, 1))
    sig = dm(fock_state(0, 1, 1))
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(rho, sig) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        trace_distance(rho.entries, np.eye(16) / 16.0)


def test_compare_against_closed_form():
    p = DampedParams(0.0, 1.0, 0.05)
    rho = dm(fock_state(1, 1, 2))
    times = [0.0, 0.4, 0.8]
    traj = integrate(rho, p, IntegratorConfig(dt=1e-3, t_max=1.0), sample_times=times)
    closed = [evolve_damped_exact(rho, p, t) for t in times]
    report = compare(closed, traj)
    assert isinstance(report, DeviationReport)
    assert report.max_abs_entry.max() < 1e-8
    assert report.worst_trace_distance < 1e-8
    assert np.max(np.abs(report.entropy_delta)) < 1e-6
    assert np.max(np.abs(report.log_negativity_delta)) < 1e-6
    assert np.max(np.abs(report.purity_delta)) < 1e-6


def test_compare_length_mismatch():
    p = DampedParams(0.0, 1.0, 0.0)
    rho = dm(fock_state(1, 0, 1))
    traj = integrate(rho, p, IntegratorConfig(dt=0.01, t_max=0.5), sample_times=[0.5])
    with pytest.raises(ValidationError):
        compare([rho, rho], traj)
