import cmath
import functools
import math

import numpy as np
import pytest

import coupledwg.damped as damped
from coupledwg.damped import (
    BogoliubovParams,
    DampedParams,
    bogoliubov_params,
    damped_entropy,
    damped_pt_spectrum,
    disentangle_params,
    evolve_damped_exact,
    loss_channel_factors,
    mode_rotation,
    purity_closed,
)
from coupledwg.errors import CapacityError, NumericalError, TruncationError, ValidationError
from coupledwg.fock import (
    TwoModeDensityMatrix,
    fock_state,
    noon_state,
    state_from_amplitudes,
)
from coupledwg.lossless import CouplerParams, entropy_closed, evolve_lossless_dm, \
    pt_spectrum_closed

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
    # gamma t = 1000 overflows cosh(phi); gamma t = 710 leaves cosh finite but
    # the ordered-form coefficients not
    with pytest.raises(NumericalError):
        disentangle_params(DampedParams(0.0, 1.0, 200.0), 5.0)
    with pytest.raises(NumericalError):
        loss_channel_factors(1.0, 710.0)


def test_disentangle_boundary_identities():
    dp0 = disentangle_params(P, 0.0)
    assert dp0.gamma_plus == 0.0 and dp0.gamma_minus == 0.0
    assert dp0.gamma_3 == pytest.approx(1.0, abs=1e-15)
    lossfree = disentangle_params(DampedParams(0.0, 0.8, 0.0), 1.7)
    assert lossfree.gamma_plus == 0.0 and lossfree.gamma_minus == 0.0
    assert abs(lossfree.gamma_3) == pytest.approx(1.0, abs=1e-10)
    assert lossfree.gamma_3 == pytest.approx(cmath.exp(-2j * 0.8 * 1.7), abs=1e-12)


@functools.lru_cache(maxsize=None)
def _loop_branch_kernel(dim, freq, gamma, t, g_plus, g3_root, g_minus):
    # plain loop over the general ordered-form triple sum (q annihilations and
    # p creations per side, scalar e^{gamma t}) with a free rotation at freq,
    # kept as the referee for the amplitude-damping Kraus kernel
    # damped._loss_kernel (freq = 0) and for the normal-mode route below
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


def test_loss_kernel_matches_loop_reference():
    for dim in range(1, 12):
        for gamma in (0.0, 0.05, 0.1, 1.0):
            for t in (0.0, 0.7, 3.0, 25.0):
                factors = loss_channel_factors(gamma, t)
                want = _loop_branch_kernel(dim, 0.0, gamma, t, *factors)
                got = damped._loss_kernel(dim, *factors[1:])
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12


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


def _grid_inputs():
    tmsv = np.zeros((9, 9))
    tmsv[np.arange(5), np.arange(5)] = 0.5 ** np.arange(5)
    pure = [noon_state(1, 1), noon_state(2, 2), noon_state(6, 6), noon_state(10, 10),
            fock_state(2, 1, 3), fock_state(3, 3, 6),
            state_from_amplitudes({(0, 0): 1.0, (1, 2): 0.5j, (2, 0): -0.3,
                                   (0, 1): 0.2}, 3),
            state_from_amplitudes(tmsv / np.linalg.norm(tmsv), 8)]
    rhos = [TwoModeDensityMatrix.from_pure(state) for state in pure]
    mix = [TwoModeDensityMatrix.from_pure(state).entries for state in (
        fock_state(1, 1, 3), state_from_amplitudes({(0, 2): 1.0, (1, 0): 0.4}, 3))]
    return rhos + [TwoModeDensityMatrix(3, 0.6 * mix[0] + 0.4 * mix[1])]


def test_propagator_matches_normal_mode_route():
    for rho in _grid_inputs():
        for omega, coupling in ((0.0, 0.5), (0.7, 1.3)):
            for gamma in (0.0, 0.05, 0.3, 1.0):
                for t in (0.4, 2.5, 5.0, 40.0):
                    p = DampedParams(omega, coupling, gamma)
                    got = evolve_damped_exact(rho, p, t).entries
                    want = _normal_mode_route(rho, p, t)
                    assert np.max(np.abs(got - want)) <= 1e-12, (rho.cutoff, p, t)


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
    out = evolve_damped_exact(rho, params, 5.0)  # gamma t = 1000
    assert np.array_equal(out.entries, vacuum)
    # just below the switch the kernel path already gives the vacuum
    t_below = 0.999 * damped.VACUUM_LIMIT_GAMMA_T / params.gamma
    below = evolve_damped_exact(rho, params, t_below)
    assert np.max(np.abs(below.entries - vacuum)) < 1e-300


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
    # gamma_- = 0.5 with sqrt(gamma_3) = 1 creates probability: the channel's
    # trace on |n><n| is 1.5^n
    monkeypatch.setattr(damped, "loss_channel_factors",
                        lambda gamma, t: (0.0, 1.0, 0.5))
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


def test_purity_boundary_cases():
    assert float(purity_closed(DampedParams(0.0, 3.0, 0.0), 5.0)) == 1.0
    assert float(purity_closed(P, 0.0)) == 1.0


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
