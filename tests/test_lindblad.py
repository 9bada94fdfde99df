import math

import numpy as np
import pytest

from coupledwg import lindblad
from coupledwg.damped import DampedParams, evolve_damped_exact
from coupledwg.errors import IntegrationError, ValidationError
from coupledwg.fock import TwoModeDensityMatrix, fock_state, log_negativity, noon_state, purity, \
    reduced_state, state_from_amplitudes, von_neumann_entropy
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


def test_trajectory_matches_reference_apply(monkeypatch):
    # the stacked apply must give the referee's dynamics, not only its value
    # at one random point
    cfg = IntegratorConfig(dt=0.0025, t_max=0.25)
    times = [0.0, 0.1, 0.25]
    for cutoff in range(1, 5):
        for state in (fock_state(1, cutoff - 1, cutoff), noon_state(cutoff, cutoff)):
            for gamma in (0.0, 0.04):
                p = DampedParams(0.3, 1.0, gamma)
                stacked = integrate(dm(state), p, cfg, sample_times=times)
                with monkeypatch.context() as patch:
                    patch.setattr(lindblad, "liouvillian_apply", _reference_apply)
                    reference = integrate(dm(state), p, cfg, sample_times=times)
                for ours, ref in zip(stacked.states, reference.states):
                    assert np.abs(ours - ref).max() <= 1e-12, (cutoff, gamma)
                assert abs(stacked.diagnostics["min_eigenvalue"]
                           - reference.diagnostics["min_eigenvalue"]) <= 1e-13


# compare's grid (t_max 10, 20 samples, half the default dt: one h, up to 13
# in its last bits) and an irregular one whose step sizes 2^-8 (in the first
# and third intervals), 0.2998046875/77 and 0.7001953125/180 serve 512, 77
# and 180 steps: each tabulates where rho's reached set has at most that
# many members (Fock and NOON inputs reach 5 to 55 positions up to cutoff 4)
STEP_GRIDS = ((0.005, np.linspace(0.0, 10.0, 21)),
              (2.0 ** -8, [0.0, 1.0, 1.2998046875, 2.2998046875, 3.0]))


def test_tabulated_step_matches_marching(monkeypatch):
    # catches a table path that drops the re-Hermitization (a sample is then
    # not exactly Hermitian), steps with a transposed table, or takes another
    # h's table; a size constant of 0 marches every step
    for cutoff in (1, 2, 3):
        for state in (fock_state(1, cutoff - 1, cutoff), noon_state(cutoff, cutoff)):
            for gamma in (0.0, 0.04):
                p = DampedParams(0.3, 0.3, gamma)
                for dt, times in STEP_GRIDS:
                    cfg = IntegratorConfig(dt=dt, t_max=float(times[-1]))
                    tabulated = integrate(dm(state), p, cfg, sample_times=times)
                    with monkeypatch.context() as patch:
                        patch.setattr(lindblad, "_TABLE_ENTRIES", 0)
                        marched = integrate(dm(state), p, cfg, sample_times=times)
                    for ours, ref in zip(tabulated.states, marched.states):
                        assert np.array_equal(ours, ours.conj().T), (cutoff, gamma, dt)
                        assert np.abs(ours - ref).max() <= 1e-12, (cutoff, gamma, dt)
                    assert abs(tabulated.diagnostics["min_eigenvalue"]
                               - marched.diagnostics["min_eigenvalue"]) <= 1e-13
                    assert (tabulated.diagnostics["rk4_steps"]
                            == marched.diagnostics["rk4_steps"])


def test_step_path_follows_the_grid_size(monkeypatch):
    # the reached set of |1,0> holds the vacuum and the one-photon block, 5
    # positions at every cutoff: a table costs 4 applies per round of its
    # closure (a stack of 1, then of 4), whatever the step count.  Catches a
    # table for an h that serves fewer steps than its set has members, a set
    # over _TABLE_ENTRIES, a bound on the grid in place of the set, and a
    # table rebuilt for an h that comes back after another interval
    shapes = []
    apply = lindblad.liouvillian_apply

    def counted(rho_mat, cutoff, p):
        shapes.append(rho_mat.shape)
        return apply(rho_mat, cutoff, p)

    monkeypatch.setattr(lindblad, "liouvillian_apply", counted)
    p = DampedParams(0.0, 0.8, 0.04)

    def applies(cutoff, times, dt=2.0 ** -8):
        shapes.clear()
        integrate(dm(fock_state(1, 0, cutoff)), p,
                  IntegratorConfig(dt=dt, t_max=float(times[-1])), sample_times=times)
        return len(shapes)

    for cutoff in (1, 2, 3, 4):
        n = (cutoff + 1) ** 2
        for t_max in (1.0, 3.0):  # 256 and 768 steps
            assert applies(cutoff, [t_max]) == 2 * 4
            assert set(shapes) == {(1, n, n), (4, n, n)}
    assert applies(3, [5.0 / 256.0]) == 2 * 4
    # 4 steps: the closure stops when its set outgrows them, then marches
    assert applies(3, [4.0 / 256.0]) == 4 + 4 * 4
    assert set(shapes) == {(1, 16, 16), (16, 16)}
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_TABLE_ENTRIES", 4)
        assert applies(3, [1.0]) == 4 + 4 * 256
    # one closure for 2^-8 (used again in the third interval), then a round
    # of the 5 members for each of the other two h
    assert applies(3, STEP_GRIDS[1][1]) == 2 * 4 + 4 + 4
    assert set(shapes) == {(1, 16, 16), (4, 16, 16), (5, 16, 16)}


def _mixed(cutoff):
    return state_from_amplitudes({(0, 0): 1.0, (1, 1): 1.0}, cutoff)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_march_keeps_every_entry_outside_the_reached_set_zero(cutoff, monkeypatch):
    # the table holds only the positions that the dense step reaches from
    # rho's support; the march must leave every other entry exactly 0
    h = 0.002
    for state in (fock_state(1, cutoff - 1, cutoff), noon_state(cutoff, cutoff), _mixed(cutoff)):
        rho = dm(state)
        for gamma in (0.0, 0.04):
            p = DampedParams(0.3, 0.5, gamma)
            reached, _, _ = lindblad._set_table(rho.entries, cutoff, p, h, rho.entries.size)
            assert np.count_nonzero(reached) < reached.size
            with monkeypatch.context() as patch:
                patch.setattr(lindblad, "_TABLE_ENTRIES", 0)
                marched = integrate(rho, p, IntegratorConfig(dt=h, t_max=0.6),
                                    sample_times=np.arange(1, 16) * 0.04)
            assert marched.diagnostics["rk4_steps"] == 300
            for state_t in marched.states:
                assert not state_t[~reached].any(), (cutoff, gamma)


def test_tabulated_step_matches_marching_at_cutoffs_4_and_5(monkeypatch):
    # the gates of test_tabulated_step_matches_marching where the grid has
    # more than _TABLE_ENTRIES entries.  On the irregular grid, cutoff 5's
    # lossy sets of 91 members march the h that serves 77 steps between two
    # tabulated intervals; compare's grid runs at cutoff 4 alone, for time
    for cutoff, grids in ((4, STEP_GRIDS), (5, STEP_GRIDS[1:])):
        for state in (fock_state(1, cutoff - 1, cutoff), noon_state(cutoff, cutoff)):
            for gamma in (0.0, 0.04):
                p = DampedParams(0.3, 0.25, gamma)
                for dt, times in grids:
                    cfg = IntegratorConfig(dt=dt, t_max=float(times[-1]))
                    tabulated = integrate(dm(state), p, cfg, sample_times=times)
                    with monkeypatch.context() as patch:
                        patch.setattr(lindblad, "_TABLE_ENTRIES", 0)
                        marched = integrate(dm(state), p, cfg, sample_times=times)
                    for ours, ref in zip(tabulated.states, marched.states):
                        assert np.array_equal(ours, ours.conj().T), (cutoff, gamma, dt)
                        assert np.abs(ours - ref).max() <= 1e-12, (cutoff, gamma, dt)
                    assert abs(tabulated.diagnostics["min_eigenvalue"]
                               - marched.diagnostics["min_eigenvalue"]) <= 1e-13
                    steps = tabulated.diagnostics["rk4_steps"]
                    assert steps == marched.diagnostics["rk4_steps"]
                    assert tabulated.diagnostics["tabulated_steps"] == (
                        steps - 77 if (cutoff, gamma, dt) == (5, 0.04, 2.0 ** -8) else steps)
                    assert marched.diagnostics["tabulated_steps"] == 0


def test_diagnostics_count_the_steps_of_each_path(monkeypatch):
    p = DampedParams(0.3, 0.8, 0.04)
    cfg = IntegratorConfig(dt=2.0 ** -8, t_max=3.0)
    times = STEP_GRIDS[1][1]
    for cutoff, state, members in ((2, fock_state(1, 1, 2), 14), (3, noon_state(3, 3), 30),
                                   (4, _mixed(4), 20)):
        diagnostics = integrate(dm(state), p, cfg, sample_times=times).diagnostics
        assert diagnostics["rk4_steps"] == diagnostics["tabulated_steps"] == 769
        assert diagnostics["table_members"] == members
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "_TABLE_ENTRIES", members - 1)
            diagnostics = integrate(dm(state), p, cfg, sample_times=times).diagnostics
        assert diagnostics["rk4_steps"] == 769
        assert diagnostics["tabulated_steps"] == diagnostics["table_members"] == 0


def test_a_table_that_cannot_hold_rho_marches(monkeypatch):
    # a held set that misses part of rho's support (here every set is the
    # vacuum's) must not step it, and a build with a non-finite image must
    # give no table: both runs march, as with no tables at all.  The one h
    # serves 200 steps, more than the grid's 81 entries
    rho = dm(noon_state(2, 2))
    p = DampedParams(0.3, 0.5, 0.04)
    cfg = IntegratorConfig(dt=0.005, t_max=1.0)
    times = [0.5, 1.0]
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_TABLE_ENTRIES", 0)
        marched = integrate(rho, p, cfg, sample_times=times)
    vacuum = dm(fock_state(0, 0, 2)).entries
    build, step = lindblad._set_table, lindblad._rk4_step
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_set_table",
                      lambda rho_mat, cutoff, p, h, limit: build(vacuum, cutoff, p, h, limit))
        wrong_set = integrate(rho, p, cfg, sample_times=times)
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_rk4_step", lambda rho_mat, *args: (
            step(rho_mat, *args) if rho_mat.ndim == 2 else np.full_like(rho_mat, np.inf)))
        overflowed = integrate(rho, p, cfg, sample_times=times)
    for run in (wrong_set, overflowed):
        assert run.diagnostics["tabulated_steps"] == 0
        for ours, ref in zip(run.states, marched.states):
            assert np.array_equal(ours, ref)


def test_apply_of_a_stack_is_each_matrix_apply():
    # catches a stacked apply that mixes rows or columns across matrices
    rng = np.random.default_rng(3)
    p = DampedParams(0.3, 1.2, 0.05)
    for cutoff in (1, 2, 3):
        d2 = (cutoff + 1) ** 2
        stack = rng.normal(size=(2, 3, d2, d2)) + 1j * rng.normal(size=(2, 3, d2, d2))
        out = liouvillian_apply(stack, cutoff, p)
        assert out.shape == stack.shape
        for index in np.ndindex(2, 3):
            assert np.array_equal(out[index], liouvillian_apply(stack[index], cutoff, p))


def test_system_operators_are_shared_complex_stacks():
    left, right = lindblad._system_operators(2, 0.3, 1.0, 0.05)
    for stack in (left, right):
        assert stack.shape == (27, 9)
        assert stack.dtype == complex
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0] = 0.0
    assert lindblad._system_operators(2, 0.3, 1.0, 0.05)[0] is left


def test_apply_leaves_its_argument_and_reduces_to_the_commutator():
    rng = np.random.default_rng(5)
    cutoff, d2 = 3, 16
    p = DampedParams(0.3, 1.2, 0.0)
    raw = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
    raw /= np.linalg.norm(raw)
    for mat in (0.5 * (raw + raw.conj().T), raw):
        kept = mat.copy()
        out = liouvillian_apply(mat, cutoff, p)
        assert np.array_equal(mat, kept)
        # at gamma = 0 the reference is -i (H rho - rho H) alone
        assert np.abs(out - _reference_apply(mat, cutoff, p)).max() <= 1e-14


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
    wider = integrate(dm(fock_state(1, 0, 3)), p, IntegratorConfig(dt=0.01, t_max=0.5),
                      sample_times=[0.5])
    with pytest.raises(ValidationError, match=r"grid mismatch: \(9, 9\) vs \(16, 16\)"):
        compare([dm(fock_state(1, 0, 2))], wider)


def _per_sample_deltas(closed, traj):
    # compare's measure deltas, one sample at a time through the public measures
    def measures(rho):
        return (float(von_neumann_entropy(reduced_state(rho))), float(log_negativity(rho)),
                float(purity(rho)))
    return np.array([np.subtract(measures(state), measures(ref))
                     for state, ref in zip(closed, traj.states)]).T


@pytest.mark.parametrize("gamma", [0.0, 0.05])
@pytest.mark.parametrize("spec", ["fock:1,0", "noon:2", "fock:2,1"])
def test_compare_measures_match_per_sample_route(spec, gamma):
    kind, _, numbers = spec.partition(":")
    photons = [int(n) for n in numbers.split(",")]
    p = DampedParams(0.0, 1.0, gamma)
    times = np.linspace(0.0, 1.0, 6)
    for cutoff in (sum(photons), sum(photons) + 1):
        state = fock_state(*photons, cutoff) if kind == "fock" else noon_state(*photons, cutoff)
        rho = dm(state)
        traj = integrate(rho, p, IntegratorConfig(dt=1e-3, t_max=1.0), sample_times=times)
        closed = list(evolve_damped_exact(rho, p, times))
        report = compare(closed, traj)
        entropy, log_neg, pur = _per_sample_deltas(closed, traj)
        assert report.entropy_delta.tobytes() == entropy.tobytes()
        assert report.log_negativity_delta.tobytes() == log_neg.tobytes()
        assert np.abs(report.purity_delta - pur).max() <= 1e-15
        # nonzero deltas, so that swapping the two sides shows
        assert np.all([np.any(column != 0.0) for column in (entropy, log_neg, pur)])


def test_compare_raises_the_first_bad_samples_trace_error():
    # samples 2 and 3 drift by 5e-10 and 3e-9: within the oracle's 1e-9 for
    # sample 2, beyond the entropy gate's 1e-10 for both.  Sample 3 is nearly
    # pure, so its purity also leaves the purity gate, and the entropy error
    # of sample 2 must come first, as it does one sample at a time
    p = DampedParams(0.0, 1.0, 0.0)
    rho = dm(fock_state(1, 0, 1))
    times = [0.0, 0.2, 0.4, 0.6, 0.8]
    traj = integrate(rho, p, IntegratorConfig(dt=0.01, t_max=1.0), sample_times=times)
    states = list(traj.states)
    states[2] = states[2] * (1.0 + 5e-10)
    states[3] = states[3] * (1.0 + 3e-9)
    drifted = Trajectory(traj.times, tuple(states), traj.diagnostics)
    closed = list(evolve_damped_exact(rho, p, times))
    with pytest.raises(ValidationError) as err:
        compare(closed, drifted)
    assert str(err.value) == "trace deviates from 1 by 5.000e-10"
    with pytest.raises(ValidationError, match="purity"):
        purity(states[3])
