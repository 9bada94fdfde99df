import cmath
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

import coupledwg.damped as damped
import coupledwg.fock as fock
import coupledwg.lossless as lossless
from coupledwg.damped import (
    _PURITY_VARIANTS,
    BogoliubovParams,
    DampedParams,
    _damped_entropies,
    _purities_closed,
    bogoliubov_params,
    damped_entropy,
    damped_pt_spectrum,
    disentangle_params,
    evolve_damped_exact,
    loss_channel_factors,
    mode_rotation,
    purity_closed,
)
from coupledwg.errors import (
    CapacityError,
    CoupledwgError,
    NumericalError,
    TruncationError,
    ValidationError,
)
from coupledwg.fock import (
    TwoModeDensityMatrix,
    _pure_log_negativities,
    _reduced_entropies,
    fock_state,
    log_negativity,
    noon_state,
    purity,
    reduced_state,
    state_from_amplitudes,
    von_neumann_entropy,
)
from coupledwg.gaussian import (
    _log_negativities_gaussian,
    _symplectic_spectra,
    _thermal_evolved_covariances,
    log_negativity_gaussian,
    symplectic_eigenvalues,
    thermal_evolved_covariance,
)
from coupledwg.lossless import CouplerParams, _entropies_closed, _evolved_measures, \
    _noon_log_negativities, entropy_closed, evolve_lossless_dm, pt_spectrum_closed
from coupledwg.thermal import _thermal_entropies

P = DampedParams(omega=0.0, J=0.5, gamma=0.05)

# Frozen ordered-product coefficients for the printed generator weights at
# gamma=0.05, J=0.5, t=1 (independent evaluation, complex arithmetic only).
PRINTED_PHI = 0.05024935323464248 + 0.49751884135226465j
PRINTED_GAMMA_PLUS = -0.040203381000851905 + 0.021503444743578223j
PRINTED_GAMMA_3 = 0.4883704294186721 - 0.7593317081661678j
PRINTED_GAMMA_MINUS = 0.040203381000851905 - 0.021503444743578223j

# Frozen closed-form spectrum/entropy at gamma=0.05, J=0.5, N=2, t=1.
DAMPED_SPECTRUM_N2 = np.array([
    0.589013228375308, 0.458507493794399, 0.356917487991742,
    0.178458743995871, 0.138918223756948, 0.0540692836329495,
    -0.138918223756948, -0.178458743995871, -0.458507493794399])
DAMPED_ENTROPY_N2 = 1.20786703002167

# Frozen purity values (both denominator variants).
PURITY_J3_T20 = 0.997949944084918
PURITY_J3_T20_RATE = 0.997713111615834
PURITY_J025_T20 = 0.876545582935947
PURITY_J025_T20_RATE = 0.848160174629101

# Frozen reference-integrator entries for |1,1>, gamma=0.05, J=0.5, omega=0,
# t=1 on the cutoff-2 grid (independent RK4, dt=5e-4).
ORACLE_11_DIAG = np.array([
    0.00905591700606, 0.086106664958, 0.289860741489,
    0.086106664958, 0.2390092701, 0.0,
    0.289860741489, 0.0, 0.0])
ORACLE_11_COHERENCE_02_20 = 0.2898607414888091


def test_params_validation():
    DampedParams(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        DampedParams(math.nan, 1.0, 0.0)
    with pytest.raises(ValidationError):
        DampedParams(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        DampedParams(0.0, 1.0, -0.1)
    assert P.coupler() == CouplerParams(0.0, 0.5)


def test_bogoliubov_lossless_limit():
    bp = bogoliubov_params(DampedParams(1.0, 0.5, 0.0))
    assert bp.nu1 == 0.0 and bp.nu2 == 0.0
    assert bp.mu1 == 1.0 and bp.mu2 == 1.0
    assert bp.r1 == 0.0 and bp.r2 == 0.0


def test_bogoliubov_resonant_branch():
    # omega = J makes the first branch detuning vanish: nu1 = 1/sqrt(2).
    bp = bogoliubov_params(DampedParams(0.5, 0.5, 0.05))
    assert bp.nu1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert bp.mu1 == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert bp.r1 == pytest.approx(math.asinh(1.0 / math.sqrt(2.0)), abs=1e-15)
    assert bp.omega1 == pytest.approx(-0.025 - 0.025j, abs=1e-15)
    assert bp.omega2 == pytest.approx(+0.025 - 0.025j, abs=1e-15)


def test_bogoliubov_hyperbolic_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        omega, coupling, rate = rng.uniform(0.0, 3.0, size=3)
        bp = bogoliubov_params(DampedParams(omega, coupling + 1e-3, rate))
        assert abs(bp.mu1 ** 2 - bp.nu1 ** 2 - 1.0) < 1e-10
        assert abs(bp.mu2 ** 2 - bp.nu2 ** 2 - 1.0) < 1e-10


def test_loss_channel_factors_match_exact_forms():
    for gamma, t in ((0.05, 1.0), (0.3, 2.5), (1.0, 0.1)):
        g_plus, g3_root, g_minus = loss_channel_factors(gamma, t)
        assert g_plus == 0.0
        assert g3_root == pytest.approx(math.exp(-gamma * t), abs=1e-14)
        assert g_minus == pytest.approx(1.0 - math.exp(-2.0 * gamma * t), abs=1e-14)
    assert loss_channel_factors(0.0, 3.0) == (0.0, 1.0, 0.0)


def test_ordered_form_referees_the_closed_weights():
    # the su(1,1) ordered form at eta = (0, -2 gamma t, 2 gamma t), on both
    # sides of its series switch at |phi| = 1e-6, up to gamma t = 700
    gammas = (1e-9, 2e-6, 0.05, 1.0, 100.0)
    times = np.array([1e-4, 0.3, 2.0, 7.0])
    for gamma in gammas:
        closed = loss_channel_factors(gamma, times)
        for n, t in enumerate(times.tolist()):
            g_plus, g3_root, g_minus, _ = damped._su11_factorization(
                0.0, -2.0 * gamma * t, 2.0 * gamma * t)
            assert g_plus == 0.0 and closed[0] == 0.0
            for ordered, array_value, scalar_value in zip(
                    (g3_root, g_minus), closed[1:], loss_channel_factors(gamma, t)[1:]):
                for value in (array_value[n], scalar_value):
                    assert abs(value - ordered) <= 1e-13 * abs(ordered), (gamma, t)
    phis = [gamma * t for gamma in gammas for t in times]
    assert min(phis) < 1e-6 < max(phis)


def test_factorization_small_argument_continuity():
    # across the series/direct switch the root coefficient stays smooth
    for eps in (1e-9, 1e-7, 1e-5):
        _, g3_root, g_minus, _ = damped._su11_factorization(0.0, -2 * eps, 2 * eps)
        assert abs(g3_root - math.exp(-eps)) < 1e-13
        assert abs(g_minus - (1.0 - math.exp(-2 * eps))) < 1e-13


def test_disentangle_fixture_values():
    dp = disentangle_params(P, 1.0)
    assert dp.eta_minus == pytest.approx(0.05, abs=1e-15)
    assert dp.eta_plus == pytest.approx(-0.05, abs=1e-15)
    assert dp.eta_3 == pytest.approx(-0.1 - 1.0j, abs=1e-15)
    assert dp.phi == pytest.approx(PRINTED_PHI, abs=1e-14)
    assert dp.gamma_plus == pytest.approx(PRINTED_GAMMA_PLUS, abs=1e-14)
    assert dp.gamma_3 == pytest.approx(PRINTED_GAMMA_3, abs=1e-14)
    assert dp.gamma_minus == pytest.approx(PRINTED_GAMMA_MINUS, abs=1e-14)


def test_factorization_overflow_is_typed():
    # gamma t = 1000 overflows cosh(phi) in the ordered form; the closed-form
    # loss weights stay finite there and beyond
    with pytest.raises(NumericalError):
        disentangle_params(DampedParams(0.0, 1.0, 200.0), 5.0)
    assert loss_channel_factors(1.0, 710.0) == (0.0, math.exp(-710.0), 1.0)
    assert loss_channel_factors(1e300, 1e300) == (0.0, 0.0, 1.0)


def test_disentangle_boundary_identities():
    dp0 = disentangle_params(P, 0.0)
    assert dp0.gamma_plus == 0.0 and dp0.gamma_minus == 0.0
    assert dp0.gamma_3 == pytest.approx(1.0, abs=1e-15)
    lossfree = disentangle_params(DampedParams(0.0, 0.8, 0.0), 1.7)
    assert lossfree.gamma_plus == 0.0 and lossfree.gamma_minus == 0.0
    assert abs(lossfree.gamma_3) == pytest.approx(1.0, abs=1e-10)
    assert lossfree.gamma_3 == pytest.approx(cmath.exp(-2j * 0.8 * 1.7), abs=1e-12)
    with pytest.raises(ValidationError, match=r"t must be finite and >= 0, got -1\.0"):
        disentangle_params(P, -1.0)


@functools.lru_cache(maxsize=None)
def _loop_branch_kernel(dim, freq, gamma, t, g_plus, g3_root, g_minus):
    # plain loop over the general ordered-form triple sum (q annihilations and
    # p creations per side, scalar e^{gamma t}) with a free rotation at freq,
    # kept as the referee behind the normal-mode route below
    kern = np.zeros((dim * dim, dim * dim), dtype=complex)
    scale = cmath.exp(gamma * t)
    for m in range(dim):
        for mp in range(dim):
            phase = scale * cmath.exp(-1j * freq * t * (m - mp))
            row = m * dim + mp
            for big in range(dim):
                bigp = big - (m - mp)
                if bigp < 0 or bigp >= dim:
                    continue
                acc = 0.0j
                for q in range(max(0, big - m), min(big, bigp) + 1):
                    p = m - big + q
                    coeff = math.sqrt(math.comb(big, q) * math.comb(bigp, q)
                                      * math.comb(m, p) * math.comb(mp, p))
                    acc += (coeff * g_minus ** q
                            * g3_root ** (big + bigp - 2 * q + 1) * g_plus ** p)
                kern[row, big * dim + bigp] = phase * acc
    return kern


def _normal_mode_route(rho, p, t):
    # the coupler's normal modes are two free modes at omega -+ J with the
    # same loss: rotate with mode_rotation, damp each rotated mode with its
    # own free phase, rotate back
    d = rho.cutoff + 1
    u = mode_rotation(rho.cutoff)
    sigma = (u @ rho.entries @ u.conj().T).reshape(d, d, d, d)
    paired = sigma.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    factors = loss_channel_factors(p.gamma, t)
    kern_a = _loop_branch_kernel(d, p.omega - p.J, p.gamma, t, *factors)
    kern_b = _loop_branch_kernel(d, p.omega + p.J, p.gamma, t, *factors)
    paired = kern_a @ paired @ kern_b.T
    sigma = paired.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return u.conj().T @ sigma @ u


def _grid_pure_states():
    tmsv = np.zeros((9, 9))
    tmsv[np.arange(5), np.arange(5)] = 0.5 ** np.arange(5)
    return [noon_state(1, 1), noon_state(2, 2), noon_state(6, 6), noon_state(10, 10),
            fock_state(2, 1, 3), fock_state(3, 3, 6),
            state_from_amplitudes({(0, 0): 1.0, (1, 2): 0.5j, (2, 0): -0.3,
                                   (0, 1): 0.2}, 3),
            state_from_amplitudes(tmsv / np.linalg.norm(tmsv), 8)]


def _grid_inputs():
    rhos = [TwoModeDensityMatrix.from_pure(state) for state in _grid_pure_states()]
    mix = [TwoModeDensityMatrix.from_pure(state).entries for state in (
        fock_state(1, 1, 3), state_from_amplitudes({(0, 2): 1.0, (1, 0): 0.4}, 3))]
    return rhos + [TwoModeDensityMatrix(3, 0.6 * mix[0] + 0.4 * mix[1])]


def test_propagator_matches_normal_mode_route():
    times = (0.4, 2.5, 5.0, 40.0)
    for rho in _grid_inputs():
        for omega, coupling in ((0.0, 0.5), (0.7, 1.3)):
            for gamma in (0.0, 0.05, 0.3, 1.0):
                p = DampedParams(omega, coupling, gamma)
                states = list(evolve_damped_exact(rho, p, np.array(times)))
                assert len(states) == len(times)
                for t, state in zip(times, states):
                    want = _normal_mode_route(rho, p, t)
                    assert np.max(np.abs(state.entries - want)) <= 1e-12, (rho.cutoff, p, t)


# (gamma, times) of the chunking tests
_GRIDS = ((0.05, np.concatenate((np.linspace(0.0, 8.0, 37), [40.0, 0.3]))),
          # unsorted, across gamma t in [700, 760], where e^{-gamma t} underflows
          (100.0, np.array([7.6, 7.0, 0.01, 7.46, 7.3, 7.05, 7.5])))


@pytest.fixture(scope="module")
def one_time_entries():
    # (rho, params, times, the one-time calls' entries) over _grid_inputs() x
    # _GRIDS: a one-time call is one chunk under any budget, so every budget
    # shares them
    cases = []
    for rho in _grid_inputs():
        for gamma, times in _GRIDS:
            p = DampedParams(0.7, 1.3, gamma)
            cases.append((rho, p, times,
                          [evolve_damped_exact(rho, p, float(t)).entries for t in times]))
    return cases


@pytest.mark.parametrize("chunk_bytes", [damped._CHUNK_BYTES, 1 << 18, 1 << 14, 1 << 26])
def test_batch_matches_scalar_calls(chunk_bytes, monkeypatch, one_time_entries):
    # a state is the one-time call's bit for bit, whatever chunk of the grid
    # it was built in: no step of the propagator depends on how many times
    # share a chunk
    monkeypatch.setattr(damped, "_CHUNK_BYTES", chunk_bytes)
    for rho, p, times, wants in one_time_entries:
        batch = evolve_damped_exact(rho, p, times)
        for t, want in zip(times, wants):
            assert np.array_equal(next(batch).entries, want), (rho.cutoff, t)
        assert next(batch, None) is None


def _one_at_a_time(column, grid):
    # the column of a grid built from the column's one-point calls
    return np.concatenate([column(grid[k:k + 1]) for k in range(grid.size)], axis=-1)


def _column_forms():
    # (label, column of a grid) for every column form over a time or Jt grid
    for rho in _grid_inputs():
        for gamma, _ in _GRIDS:
            p = DampedParams(0.7, 1.3, gamma)
            yield f"damped {rho} gamma {gamma}", lambda g, rho=rho, p=p: np.concatenate(
                list(evolve_damped_exact(rho, p, g).measures()), axis=1)
    params = CouplerParams(0.7, 1.3)
    for state in _grid_pure_states():
        yield f"lossless cutoff {state.cutoff}", lambda g, state=state: np.array(
            _evolved_measures(state, params, g, _pure_log_negativities, _reduced_entropies))
    for total in (1, 2, 6, 10):
        yield f"noon {total}", functools.partial(_noon_log_negativities, total)
        yield f"entropy_closed {total}", functools.partial(_entropies_closed, total)
        yield f"thermal {total}", lambda g, total=total: _thermal_entropies(total, g, [1.0])


def test_columns_equal_one_time_calls_under_any_chunk_budget(monkeypatch):
    # every column of a grid is its one-point calls bit for bit, under the
    # default chunk budget, 16 KiB and 64 MiB: the budget bounds memory only
    forms = list(_column_forms())
    grids = [times for _, times in _GRIDS]
    want = [[_one_at_a_time(column, grid) for grid in grids] for _, column in forms]
    for budget in (damped._CHUNK_BYTES, 1 << 14, 1 << 26):
        monkeypatch.setattr(damped, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(lossless, "_CHUNK_BYTES", budget)
        for (label, column), columns in zip(forms, want):
            for grid, one_at_a_time in zip(grids, columns):
                assert np.array_equal(column(grid), one_at_a_time), (label, budget, grid[0])


# the closed forms' time grid: t = 0, an unsorted tail, gamma t up to 800,
# and 5e-324, where theta underflows at J = 1e-12
_CLOSED_TIMES = np.concatenate((np.linspace(0.0, 8.0, 17), [40.0, 400.0, 0.3, 5e-324]))
_CLOSED_NBARS = np.array([0.0, 0.25, 1.0, 3.0, 0.0, 8.0])


def _closed_form_mismatches() -> list:
    """The labels of the closed-form column forms that differ from their
    one-point calls, compared as bytes so that signed zeros count: the
    Gaussian covariances, symplectic spectra and E_N over (gamma, nbar, r)
    grids, damped_entropy and both purity_closed variants."""
    mismatches = []

    def check(label, column, points):
        if np.asarray(column).tobytes() != np.array(points, dtype=float).tobytes():
            mismatches.append(label)
    times = _CLOSED_TIMES.tolist()
    for gamma in (0.0, 0.05, 2.0):
        p = DampedParams(0.7, 1.3, gamma)
        for r in (0.0, 0.25, 1.5):
            grids = [(f"t, nbar {nbar}", _CLOSED_TIMES, nbar, [(t, nbar) for t in times])
                     for nbar in (0.0, 1.0)]
            grids.append(("nbar", 1.0, _CLOSED_NBARS, [(1.0, n) for n in _CLOSED_NBARS.tolist()]))
            for grid, t, nbar, points in grids:
                label = f"gamma {gamma} r {r} over {grid}"
                covs = _thermal_evolved_covariances(p, t, nbar, nbar, r, r)
                check(f"covariances {label}", covs,
                      [thermal_evolved_covariance(p, *point, point[1], r, r) for point in points])
                check(f"E_N {label}", _log_negativities_gaussian(covs),
                      [float(log_negativity_gaussian(cov)) for cov in covs])
                for flip in (False, True):
                    check(f"spectra {flip} {label}", list(_symplectic_spectra(covs, flip)),
                          [symplectic_eigenvalues(cov, flip) for cov in covs])
        for total in (1, 2, 5):
            check(f"damped_entropy {total} gamma {gamma}", _damped_entropies(total, p, _CLOSED_TIMES),
                  [float(damped_entropy(total, p, t)) for t in times])
        for q in (p, DampedParams(0.0, 1e-12, gamma)):
            for variant in _PURITY_VARIANTS:
                check(f"purity_closed {variant} {q}", _purities_closed(q, _CLOSED_TIMES, variant),
                      [float(purity_closed(q, t, variant)) for t in times])
    return mismatches


def test_closed_form_columns_equal_one_point_calls():
    # the columns behind figures 3a-6 and the gaussian and purity commands
    # are their one-point calls bit for bit
    assert _closed_form_mismatches() == []


def _first_error(calls) -> tuple:
    # (index, type, message) of the first call that raises
    for k, call in enumerate(calls):
        try:
            call()
        except CoupledwgError as exc:
            return k, type(exc), str(exc)
    return None


def test_closed_form_columns_raise_the_first_failing_points_error():
    p = DampedParams(0.0, 0.5, 0.05)
    # nbar = 1e100 overflows the discriminant, 1e308 Delta itself
    for nbars in ([0.0, 1.0, 1e100, 1e308], [0.0, 1.0, 1e308, 1e100]):
        k, kind, message = _first_error(
            [lambda n=n: log_negativity_gaussian(thermal_evolved_covariance(p, 1.0, n, n, 0.25, 0.25))
             for n in nbars])
        assert k == 2
        with pytest.raises(kind) as info:
            _log_negativities_gaussian(_thermal_evolved_covariances(
                p, 1.0, np.array(nbars), np.array(nbars), 0.25, 0.25))
        assert str(info.value) == message
    # each point's n1, n2, t, r1 and r2 in turn: a bad t at point 0 comes
    # before a bad occupation at point 1; at r = 1 an occupation of 1e308
    # overflows its term at point 2
    for t, n1, r, first in (([-1.0, 1.0], [0.0, -1.0], 0.25, 0),
                            ([1.0, 1.0, 1.0], [0.0, 1.0, 1e308], 1.0, 2)):
        k, kind, message = _first_error(
            [lambda t_k=t_k, n_k=n_k: thermal_evolved_covariance(p, t_k, n_k, 0.0, r, r)
             for t_k, n_k in zip(t, n1)])
        assert k == first
        with pytest.raises(kind) as info:
            _thermal_evolved_covariances(p, np.array(t), np.array(n1), 0.0, r, r)
        assert str(info.value) == message
    # theta overflows from J t = 2e308 on; at gamma = 1e308 the purity is NaN
    # (refused by its gate) from the first t > 0, and theta overflows later
    for q, times, first in ((DampedParams(0.0, 1e307, 0.05), [0.0, 1.0, 5.0, 20.0, 50.0], 3),
                            (DampedParams(0.0, 3.0, 1e308), [0.0, 0.005, 2.0], 1)):
        k, kind, message = _first_error([lambda t=t: purity_closed(q, t) for t in times])
        assert k == first
        with pytest.raises(kind) as info:
            _purities_closed(q, np.array(times))
        assert str(info.value) == message


def test_batch_crossing_the_vacuum_limit():
    # e^{-gamma t} underflows to 0 from gamma t = 745.2 on
    rho = TwoModeDensityMatrix.from_pure(noon_state(2, 2))
    params = DampedParams(0.0, 1.0, 200.0)
    vacuum = np.zeros_like(rho.entries)
    vacuum[0, 0] = 1.0
    times = np.array([0.001, 3.73, 3.5, 0.002, 5.0])  # gamma t 0.2, 746, 700, 0.4, 1000
    for t, state in zip(times, evolve_damped_exact(rho, params, times)):
        if params.gamma * t >= 746.0:
            assert np.array_equal(state.entries, vacuum)
            continue
        if params.gamma * t >= 700.0:
            assert np.max(np.abs(state.entries - vacuum)) <= 1e-300
        else:
            assert abs(state.entries[0, 0] - 1.0) > 0.1
        assert np.array_equal(state.entries,
                              evolve_damped_exact(rho, params, float(t)).entries)


def _heating_where(hot):
    # the loss weights, but gamma_- = 0.5 with sqrt(gamma_3) = 1 at the times
    # where hot(t) holds: that channel's trace on |n><n| is 1.5^n, so it
    # creates probability
    loss = damped.loss_channel_factors

    def factors(gamma, t):
        _, g3_root, g_minus = loss(gamma, t)
        return 0.0, np.where(hot(t), 1.0, g3_root), np.where(hot(t), 0.5, g_minus)
    return factors


def test_batch_gates(monkeypatch):
    rho = TwoModeDensityMatrix.from_pure(noon_state(1, 1))
    with pytest.raises(ValidationError):
        evolve_damped_exact(rho, P, np.array([0.0, math.nan]))
    with pytest.raises(ValidationError):
        evolve_damped_exact(rho, P, np.array([0.0, -1.0]))
    with pytest.raises(ValidationError):
        evolve_damped_exact(rho, P, np.zeros((2, 2)))
    # phases overflow only at the last time: omega t = 2e308 there
    with pytest.raises(NumericalError):
        list(evolve_damped_exact(rho, DampedParams(1e308, 0.5, 0.05),
                                 np.array([0.0, 0.5, 1.0, 2.0])))
    amp = np.zeros((3, 3), dtype=complex)
    amp[2, 2] = 1.0  # n_a + n_b = 4 > cutoff 2
    corner = TwoModeDensityMatrix.from_pure(state_from_amplitudes(amp, 2))
    with pytest.raises(CapacityError):
        evolve_damped_exact(corner, P, np.array([0.0, 0.5]))
    # the channel heats only from t = 1 on: the states before it come out
    monkeypatch.setattr(damped, "loss_channel_factors", _heating_where(lambda t: t >= 1.0))
    states = evolve_damped_exact(rho, P, np.array([0.0, 0.5, 1.0, 1.5]))
    assert len([next(states), next(states)]) == 2
    with pytest.raises(TruncationError):
        next(states)


def test_batch_memory_does_not_grow_with_the_grid(monkeypatch):
    # drawing the first state, or the first chunk of measures, of a
    # 10^6-point grid builds one chunk of it
    rho = TwoModeDensityMatrix.from_pure(noon_state(10, 10))
    p = DampedParams(0.3, 0.7, 0.05)
    evolve_damped_exact(rho, p, 0.5)  # fill the caches first
    stack = damped._sector_stack

    def one_chunk(terms, params, times):
        # refused before it is built: the whole grid would take gigabytes
        assert times.size < 1000
        return stack(terms, params, times)
    monkeypatch.setattr(damped, "_sector_stack", one_chunk)
    times = np.linspace(0.0, 50.0, 10 ** 6)
    for draw in (next, lambda states: next(states.measures())):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            first = draw(evolve_damped_exact(rho, p, times))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        if draw is next:
            assert np.max(np.abs(first.entries - rho.entries)) <= 1e-13
        else:  # NOON-10 at t = 0 carries one ebit and is pure
            assert 0 < first[0].size < 1000
            assert [column[0] for column in first] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        # one dense state is 234 kB, and validating it takes about four; any
        # array over the grid takes 1 MB (bool) to 16 MB (complex)
        assert peak < 6 * rho.entries.nbytes


def test_damped_route_builds_no_dense_state():
    # measures() of a from_pure input reads no dense matrix, and a drawn
    # state is held as its values on the call's own layout until entries is
    # read: at the positions a dense argument occupies they are its dense
    # form's values, and every other one is 0
    rho = TwoModeDensityMatrix.from_pure(noon_state(4, 4))
    p = DampedParams(0.3, 0.7, 0.05)
    times = np.linspace(0.0, 3.0, 7)
    list(evolve_damped_exact(rho, p, times).measures())
    assert "entries" not in vars(rho)
    states = evolve_damped_exact(rho, p, times)
    layout = states._terms.layout
    d2 = layout.d ** 2
    where = np.full(d2 * d2, -1)
    where[layout.rows * d2 + layout.cols] = np.arange(layout.rows.size)
    for state in states:
        assert "entries" not in vars(state)
        values, held = state._occupied
        assert held is layout and not values.flags.writeable
        dense = TwoModeDensityMatrix(state.cutoff, state.entries)
        assert "entries" in vars(state)
        want, support = dense._occupied
        picked = where[support.rows * d2 + support.cols]
        assert picked.min() >= 0
        assert values.dtype == want.dtype and values[picked].tobytes() == want.tobytes()
        assert np.all(np.delete(values, picked) == 0)
    assert "entries" not in vars(rho)


def _per_state_columns(rho, p, times):
    states = list(evolve_damped_exact(rho, p, times))
    return [np.array([float(f(state)) for state in states]) for f in (
        log_negativity, lambda state: von_neumann_entropy(reduced_state(state)), purity)]


def _column_inputs():
    for n in range(1, 9):
        for extra in (0, 2):
            yield noon_state(n, n + extra)
            yield fock_state(n // 2, n - n // 2, n + extra)
    # sector-mixing: its states take the dense route
    yield state_from_amplitudes({(0, 0): 1.0, (1, 2): 0.5j, (2, 0): -0.3}, 3)


@pytest.mark.parametrize("gamma", [0.0, 0.05, 128.0, 1e300])
def test_measures_match_per_state_route(gamma):
    times = np.linspace(0.0, 6.0, 13)  # at gamma = 128, gamma t runs to 768
    p = DampedParams(0.3, 0.7, gamma)
    for state in _column_inputs():
        rho = TwoModeDensityMatrix.from_pure(state)
        chunks = list(evolve_damped_exact(rho, p, times).measures())
        columns = np.concatenate(chunks, axis=1)
        assert columns.shape == (3, times.size)
        # a drawn state is its chunk's row on the call's layout, so every
        # measure takes the same solves and the same ordered sums
        en, entropy, pure = _per_state_columns(rho, p, times)
        assert np.array_equal(columns[0], en) and np.array_equal(columns[1], entropy), (state, gamma)
        assert np.array_equal(columns[2], pure), (state, gamma)
        if gamma == 1e300:  # the vacuum after t = 0
            assert np.array_equal(columns[:, 1:], np.tile([[0.0], [0.0], [1.0]], 12))


def _message_shape(exc):
    return re.sub(r"nan|-?[0-9][0-9.e+-]*", "#", str(exc))


def test_measure_gates_fire_for_one_bad_state(monkeypatch):
    # each corruption of one state of a chunk trips the gate that single-state
    # validation trips, with the same error; the sector-mixing input takes
    # the dense solve
    p = DampedParams(0.3, 0.7, 0.05)
    times = np.linspace(0.0, 3.0, 7)
    mixed = state_from_amplitudes({(0, 0): 1.0, (1, 2): 0.5j, (2, 0): -0.3}, 3)
    for state in (noon_state(2, 2), mixed):
        rho = TwoModeDensityMatrix.from_pure(state)
        d = rho.cutoff + 1
        terms = evolve_damped_exact(rho, p, times)._terms
        layout = terms.layout
        assert (layout.blocks is None) == (state is mixed)
        (chunk,) = damped._propagate(terms, p, times, layout.gathered)
        off = np.flatnonzero(layout.rows != layout.cols)[0]

        def herm(row):
            row[off] += 1e-9

        def trace(row):
            row *= 1.001

        def floor(row):  # Hermitian with unit trace, but the vacuum population is -0.2
            shift = 0.2 + row[layout.diag[0]].real
            row[layout.diag[0]] -= shift
            row[layout.diag[-1]] += shift

        def nan(row):
            row[off] = np.nan

        for corrupt, gate in ((herm, "Hermiticity"), (trace, "trace"),
                              (floor, "eigenvalue"), (nan, "Hermiticity")):
            bad = chunk.copy()
            corrupt(bad[3])
            dense = np.zeros((d * d, d * d), dtype=complex)
            dense[layout.rows, layout.cols] = bad[3]
            with pytest.raises(ValidationError, match=gate) as single:
                TwoModeDensityMatrix(rho.cutoff, dense)
            with pytest.raises(ValidationError) as batch:
                fock._measures(bad, layout)
            assert _message_shape(batch.value) == _message_shape(single.value)
        # the first bad state in time decides, whichever gate it fails
        bad = chunk.copy()
        trace(bad[2])
        herm(bad[4])
        with pytest.raises(ValidationError, match="trace"):
            fock._measures(bad, layout)
    rho = TwoModeDensityMatrix.from_pure(noon_state(2, 2))
    # a trace deficit at one time of the chunk
    monkeypatch.setattr(damped, "loss_channel_factors", _heating_where(lambda t: t == 1.5))
    with pytest.raises(TruncationError) as single:
        evolve_damped_exact(rho, p, 1.5)
    with pytest.raises(TruncationError) as batch:
        list(evolve_damped_exact(rho, p, times).measures())
    assert str(batch.value) == str(single.value)


def test_cached_mode_rotation_is_read_only():
    u = mode_rotation(3)
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    assert np.array_equal(mode_rotation(3), u)


def test_mode_rotation_is_unitary_and_diagonalizes_coupling():
    cutoff = 3
    d = cutoff + 1
    u = mode_rotation(cutoff)
    assert np.allclose(u @ u.conj().T, np.eye(d * d), atol=1e-12)
    # coupling operator on the grid
    low = np.zeros((d, d))
    for n in range(1, d):
        low[n - 1, n] = math.sqrt(n)
    a = np.kron(low, np.eye(d))
    b = np.kron(np.eye(d), low)
    hop = a.T @ b + b.T @ a
    rotated = u @ hop @ u.conj().T
    for total in range(cutoff + 1):
        idx = [na * d + (total - na) for na in range(total + 1)]
        block = rotated[np.ix_(idx, idx)]
        want = np.diag([total - 2.0 * na for na in range(total + 1)])
        # rotated coupling acts as n_b - n_a on each complete sector
        assert np.allclose(block, want, atol=1e-12)


def test_zero_loss_reduces_to_lossless_propagator():
    params = DampedParams(omega=0.7, J=0.5, gamma=0.0)
    t = 1.3
    for state in (fock_state(1, 1, 3), noon_state(2, 3),
                  state_from_amplitudes({(0, 0): 1.0, (1, 2): 0.5}, 3)):
        rho = TwoModeDensityMatrix.from_pure(state)
        direct = evolve_lossless_dm(rho, params.coupler(), t)
        via_damped = evolve_damped_exact(rho, params, t)
        assert np.max(np.abs(direct.entries - via_damped.entries)) < 1e-12


def test_zero_time_is_identity():
    rho = TwoModeDensityMatrix.from_pure(noon_state(2, 2))
    out = evolve_damped_exact(rho, P, 0.0)
    assert np.max(np.abs(out.entries - rho.entries)) < 1e-13


def test_vacuum_is_stationary_under_loss():
    rho = TwoModeDensityMatrix.from_pure(fock_state(0, 0, 2))
    out = evolve_damped_exact(rho, DampedParams(0.3, 1.0, 0.8), 2.0)
    assert np.max(np.abs(out.entries - rho.entries)) < 1e-13


def test_large_gamma_t_reaches_vacuum_limit():
    rho = TwoModeDensityMatrix.from_pure(noon_state(2, 2))
    params = DampedParams(0.0, 1.0, 200.0)
    vacuum = np.zeros_like(rho.entries)
    vacuum[0, 0] = 1.0
    # once e^{-gamma t} underflows the loss weights give exactly the vacuum
    for t in (3.73, 5.0):  # gamma t = 746, 1000
        out = evolve_damped_exact(rho, params, t)
        assert np.array_equal(out.entries, vacuum)
    # below that it is the vacuum to far below any tolerance
    below = evolve_damped_exact(rho, params, 3.5)  # gamma t = 700
    assert np.max(np.abs(below.entries - vacuum)) <= 1e-300


def test_total_photon_number_decays_exponentially():
    cutoff = 2
    d = cutoff + 1
    rho = TwoModeDensityMatrix.from_pure(fock_state(1, 1, cutoff))
    grid_total = (np.arange(d)[:, None] + np.arange(d)[None, :]).reshape(-1)
    for t in (0.3, 1.0, 4.0):
        out = evolve_damped_exact(rho, DampedParams(0.4, 0.9, 0.25), t)
        mean = float(np.real(np.diag(out.entries) @ grid_total))
        assert mean == pytest.approx(2.0 * math.exp(-2.0 * 0.25 * t), abs=1e-12)


def test_propagator_matches_reference_integrator():
    rho = TwoModeDensityMatrix.from_pure(fock_state(1, 1, 2))
    out = evolve_damped_exact(rho, P, 1.0)
    assert np.allclose(np.diag(out.entries).real, ORACLE_11_DIAG, atol=1e-9)
    assert out.entries[2, 6] == pytest.approx(ORACLE_11_COHERENCE_02_20, abs=1e-9)


def test_corner_support_rejected():
    amp = np.zeros((3, 3), dtype=complex)
    amp[2, 2] = 1.0  # n_a + n_b = 4 > cutoff 2
    state = state_from_amplitudes(amp, 2)
    rho = TwoModeDensityMatrix.from_pure(state)
    with pytest.raises(CapacityError):
        evolve_damped_exact(rho, P, 0.5)


def test_truncation_error_on_heating_kernel(monkeypatch):
    monkeypatch.setattr(damped, "loss_channel_factors", _heating_where(lambda t: t >= 0.0))
    rho = TwoModeDensityMatrix.from_pure(fock_state(1, 0, 1))
    with pytest.raises(TruncationError) as info:
        evolve_damped_exact(rho, P, 1.0)
    assert info.value.tail_estimate > 1e-10


def test_damped_spectrum_fixture():
    spec = damped_pt_spectrum(2, P, 1.0)
    assert spec.shape == (9,)
    assert np.allclose(spec, DAMPED_SPECTRUM_N2, atol=1e-12)
    assert abs(spec.sum() - 1.0) < 1e-12


def test_damped_spectrum_lossless_reduction():
    params = DampedParams(0.0, 0.5, 0.0)
    for total, t in ((2, 0.9), (3, 1.7), (4, 0.4)):
        ours = damped_pt_spectrum(total, params, t)
        ref = np.sort(pt_spectrum_closed(total, 0.5 * t))[::-1]
        assert np.allclose(ours, ref, atol=1e-12)


def test_damped_entropy_values():
    assert float(damped_entropy(2, P, 1.0)) == pytest.approx(DAMPED_ENTROPY_N2, abs=1e-11)
    assert float(damped_entropy(3, P, 0.0)) == 0.0
    lossfree = DampedParams(0.0, 0.5, 0.0)
    for total, t in ((2, 1.1), (4, 0.6)):
        assert float(damped_entropy(total, lossfree, t)) == pytest.approx(
            float(entropy_closed(total, 0.5 * t)), abs=1e-12)
    # a negative t gave 1.34 bits, an infinite one "math domain error"
    for t in (-1.0, math.inf, math.nan):
        for closed in (damped_entropy, damped_pt_spectrum):
            with pytest.raises(ValidationError, match="t must be finite and >= 0"):
                closed(2, P, t)
    with pytest.raises(ValidationError, match="total photon number must be non-negative"):
        damped_entropy(-1, P, 1.0)


def test_damped_closed_forms_are_lossless_family_at_effective_angle():
    # phi = atan(|sinh th| / |cosh th|), th = (sqrt(2) gamma + i J) t
    for gamma in (0.01, 0.05, 0.1):
        params = DampedParams(0.0, 0.5, gamma)
        for t in np.linspace(0.0, 5.0, 51):
            th = complex(math.sqrt(2.0) * gamma, 0.5) * float(t)
            phi = math.atan(abs(cmath.sinh(th)) / abs(cmath.cosh(th)))
            for total in range(1, 7):
                ours = damped_pt_spectrum(total, params, float(t))
                assert np.max(np.abs(ours - pt_spectrum_closed(total, phi))) <= 1e-14
                assert abs(float(damped_entropy(total, params, float(t)))
                           - float(entropy_closed(total, phi))) <= 1e-14


def test_closed_forms_at_large_gamma_t():
    # gamma t = 1000: the family tends to Binomial(N, 1/2), i.e. the lossless
    # family at Jt = pi/4, and the purity exponent to -4 gamma t / (th + mix)
    params = DampedParams(0.0, 1.0, 200.0)
    assert float(damped_entropy(2, params, 5.0)) == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(damped_pt_spectrum(2, params, 5.0),
                       pt_spectrum_closed(2, math.pi / 4), atol=1e-12)
    th = complex(math.sqrt(2.0) * 200.0, 1.0) * 5.0
    limit = cmath.exp(-4000.0 / (th + complex(200.0, 5.0))).real
    assert float(purity_closed(params, 5.0)) == pytest.approx(limit, abs=1e-12)
    assert float(purity_closed(params, 5.0)) == pytest.approx(0.0839, abs=1e-4)


def test_closed_forms_refuse_an_overflowing_angle():
    # J t = 1e310 overflows a float: math.sin(inf) raised a bare ValueError
    p = DampedParams(0.0, 1e300, 0.1)
    for closed in (damped_entropy, damped_pt_spectrum):
        with pytest.raises(NumericalError, match=r"^J t = 1e\+300 \* 1e\+10 overflows a float$"):
            closed(2, p, 1e10)
    # a column raises the error of its first failing time
    with pytest.raises(NumericalError, match="^J t = "):
        _damped_entropies(2, p, np.array([1.0, 1e10, -1.0]))
    with pytest.raises(ValidationError, match=r"^t must be finite and >= 0, got -1\.0$"):
        _damped_entropies(2, p, np.array([1.0, -1.0, 1e10]))


def test_closed_forms_take_an_overflowing_sqrt2_gamma():
    # sqrt(2) gamma overflows to inf: at t = 0 the angle was nan, so the
    # entropy was refused and the spectrum came out nan
    p = DampedParams(0.0, 1.0, 1.7e308)
    assert float(damped_entropy(2, p, 0.0)) == 0.0
    assert np.array_equal(damped_pt_spectrum(2, p, 0.0), damped_pt_spectrum(2, P, 0.0))
    assert float(damped_entropy(2, p, 1.0)) == 1.5  # Binomial(2, 1/2)


def test_bogoliubov_overflow_is_typed():
    # p.gamma ** 2 raised a bare OverflowError, and at gamma = 1e154 the sum
    # 2 gamma^2 overflowed to inf and gave nu = 0 for about 1/sqrt(2)
    for params, message in (
            (DampedParams(0.0, 1.0, 1e154),
             r"2 gamma\^2 \+ \(omega - J\)\^2 overflows a float at gamma = 1e\+154, "
             r"omega - J = -1"),
            (DampedParams(0.0, 1e300, 1e300),
             r"2 gamma\^2 \+ \(omega - J\)\^2 overflows a float at gamma = 1e\+300, "
             r"omega - J = -1e\+300"),
            (DampedParams(1e200, 1e200, 0.0),
             r"2 gamma\^2 \+ \(omega \+ J\)\^2 overflows a float at gamma = 0, "
             r"omega \+ J = 2e\+200")):
        with pytest.raises(NumericalError, match=f"^{message}$"):
            bogoliubov_params(params)


def test_ordered_form_refuses_what_it_cannot_divide_or_hold():
    # eta_3 = 2 and eta_+ eta_- = 1 give phi = 0 and a zero denominator,
    # which disentangle_params's weights never do (Im eta_3 = -2 J t); at
    # J t = 1e310 its coefficients are not finite
    with pytest.raises(NumericalError, match="^ordered-form denominator vanished$"):
        damped._su11_factorization(1.0, 2.0, 1.0)
    with pytest.raises(NumericalError, match="^ordered-form coefficients are not finite at phi = "):
        disentangle_params(DampedParams(0.0, 1e300, 0.1), 1e10)


def test_purity_boundary_cases():
    assert float(purity_closed(DampedParams(0.0, 3.0, 0.0), 5.0)) == 1.0
    assert float(purity_closed(P, 0.0)) == 1.0
    with pytest.raises(ValidationError, match=r"t must be finite and >= 0, got -1\.0"):
        purity_closed(P, -1.0)


def test_purity_at_an_underflowing_theta_is_the_small_time_limit():
    # th = (sqrt(2) gamma + i J) t is 0 at t = 5e-324: the t -> 0 limit, 1
    for variant in ("as-printed", "rate-times-t"):
        assert float(purity_closed(DampedParams(0.0, 1e-12, 0.05), 5e-324, variant)) == 1.0
    assert float(purity_closed(DampedParams(0.0, 1.0, 0.05), 5e-324)) == 1.0


def test_purity_clamps_early_overshoot():
    # the raw closed form exceeds 1 slightly at small times; the clamp holds
    assert float(purity_closed(DampedParams(0.0, 3.0, 0.05), 1.0)) == 1.0


def test_purity_fixture_values():
    strong = DampedParams(0.0, 3.0, 0.05)
    weak = DampedParams(0.0, 0.25, 0.05)
    assert float(purity_closed(strong, 20.0)) == pytest.approx(PURITY_J3_T20, abs=1e-12)
    assert float(purity_closed(strong, 20.0, variant="rate-times-t")) == pytest.approx(
        PURITY_J3_T20_RATE, abs=1e-12)
    assert float(purity_closed(weak, 20.0)) == pytest.approx(PURITY_J025_T20, abs=1e-12)
    assert float(purity_closed(weak, 20.0, variant="rate-times-t")) == pytest.approx(
        PURITY_J025_T20_RATE, abs=1e-12)
    assert float(purity_closed(weak, 20.0)) < float(purity_closed(strong, 20.0))


def test_purity_variant_validation():
    with pytest.raises(ValidationError):
        purity_closed(P, 1.0, variant="printed")


def test_propagator_is_deterministic():
    rho = TwoModeDensityMatrix.from_pure(noon_state(2, 2))
    first = evolve_damped_exact(rho, P, 0.8)
    second = evolve_damped_exact(rho, P, 0.8)
    assert np.array_equal(first.entries, second.entries)


def test_overflowing_phases_raise_typed_errors():
    with pytest.raises(NumericalError):
        purity_closed(DampedParams(0.0, 1e308, 0.05), 10.0)
    rho = TwoModeDensityMatrix.from_pure(noon_state(1, 1))
    with pytest.raises(NumericalError):
        evolve_damped_exact(rho, DampedParams(1e308, 0.5, 0.05), 3.0)
