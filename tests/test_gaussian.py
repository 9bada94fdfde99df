import math

import numpy as np
import pytest

from coupledwg.damped import DampedParams
from coupledwg.errors import NumericalError, ValidationError
from coupledwg.fock import pure_log_negativity
from coupledwg.gaussian import (
    log_negativity_gaussian,
    simon_separable,
    symplectic_eigenvalues,
    thermal_evolved_covariance,
    tmsv_covariance,
    two_mode_squeezed_state,
    vacuum_covariance,
    vacuum_evolved_covariance,
)

P = DampedParams(omega=0.0, J=0.5, gamma=0.05)
TWO_R_OVER_LN2 = 0.5 / math.log(2.0)  # log-negativity of r=0.25 squeezing

# Frozen fixtures (independent evaluation).
VAC_EN_G005_T1 = 0.634925164659791
THERMAL_COV_DIAG = 1.013856679144715     # n=1, r=0.25, gamma=0.1, t=1
THERMAL_COV_CROSS = 0.4266367518922968


def _is_physical(cov, tol=1e-9):
    # uncertainty principle: smallest normal-branch symplectic eigenvalue at
    # least 1/2, up to tol; invariants without real symplectic eigenvalues
    # are unphysical rather than an error
    try:
        nu_minus, _ = symplectic_eigenvalues(cov)
    except NumericalError:
        return False
    return nu_minus >= 0.5 - tol


def test_vacuum_symplectic_eigenvalues():
    nu_minus, nu_plus = symplectic_eigenvalues(vacuum_covariance())
    assert nu_minus == 0.5 and nu_plus == 0.5
    assert float(log_negativity_gaussian(vacuum_covariance())) == 0.0
    assert _is_physical(vacuum_covariance())


def test_tmsv_partial_transpose_eigenvalue():
    r = 0.25
    nu_minus, nu_plus = symplectic_eigenvalues(tmsv_covariance(r), partial_transposed=True)
    assert nu_minus == pytest.approx(math.exp(-2 * r) / 2, abs=1e-14)
    assert nu_plus == pytest.approx(math.exp(2 * r) / 2, abs=1e-14)
    assert float(log_negativity_gaussian(tmsv_covariance(r))) == pytest.approx(
        TWO_R_OVER_LN2, abs=1e-13)


def test_tmsv_normal_branch_is_pure():
    # both normal-branch eigenvalues sit at 1/2 for any pure Gaussian state;
    # the determinant route cancels heavily at large r, hence the loose bound
    for r in (0.1, 0.5, 1.5):
        nu_minus, nu_plus = symplectic_eigenvalues(tmsv_covariance(r))
        assert nu_minus == pytest.approx(0.5, abs=2e-5)
        assert nu_plus == pytest.approx(0.5, abs=2e-5)


def test_fock_side_cross_check():
    for r in (0.1, 0.25, 0.5):
        gauss = float(log_negativity_gaussian(tmsv_covariance(r)))
        fock = float(pure_log_negativity(two_mode_squeezed_state(r, 40)))
        assert abs(gauss - fock) < 1e-6


def test_two_mode_squeezed_state_layout():
    state = two_mode_squeezed_state(0.5, 6)
    amps = state.amplitudes
    off_diag = amps - np.diag(np.diag(amps))
    assert np.all(off_diag == 0.0)
    assert amps[1, 1].real > 0.0
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    assert two_mode_squeezed_state(0.0, 3).amplitudes[0, 0] == 1.0


def test_vacuum_evolved_reduces_to_squeezed_vacuum():
    lossfree = DampedParams(0.0, 0.5, 0.0)
    for t in (0.0, 1.0, 7.0):
        cov = vacuum_evolved_covariance(lossfree, t, 0.25, 0.25)
        assert np.allclose(cov, tmsv_covariance(0.25), atol=1e-14)
    assert float(log_negativity_gaussian(cov)) == pytest.approx(TWO_R_OVER_LN2, abs=1e-13)


def test_vacuum_evolved_long_time_is_vacuum():
    cov = vacuum_evolved_covariance(DampedParams(0.0, 0.5, 1.0), 30.0, 0.25, 0.25)
    assert np.allclose(cov, vacuum_covariance(), atol=1e-12)


def test_vacuum_evolved_fixture_and_monotonicity():
    values = []
    for gamma in (0.0, 0.02, 0.05, 0.1):
        p = DampedParams(0.0, 0.5, gamma)
        values.append(float(log_negativity_gaussian(vacuum_evolved_covariance(p, 1.0, 0.25, 0.25))))
    assert values[2] == pytest.approx(VAC_EN_G005_T1, abs=1e-12)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_evolved_states_stay_physical():
    for gamma in (0.0, 0.05, 0.3):
        p = DampedParams(0.0, 0.5, gamma)
        for t in (0.0, 0.7, 4.0, 20.0):
            assert _is_physical(vacuum_evolved_covariance(p, t, 0.25, 0.25))
            assert _is_physical(thermal_evolved_covariance(p, t, 1.0, 1.0, 0.25, 0.25))


def test_thermal_fixture_matrix():
    p = DampedParams(0.0, 0.5, 0.1)
    cov = thermal_evolved_covariance(p, 1.0, 1.0, 1.0, 0.25, 0.25)
    assert cov[0, 0] == pytest.approx(THERMAL_COV_DIAG, abs=1e-14)
    assert cov[1, 1] == pytest.approx(THERMAL_COV_DIAG, abs=1e-14)
    assert cov[0, 2] == pytest.approx(-THERMAL_COV_CROSS, abs=1e-14)
    assert cov[1, 3] == pytest.approx(+THERMAL_COV_CROSS, abs=1e-14)
    assert float(log_negativity_gaussian(cov)) == 0.0


def test_thermal_zero_occupation_matches_vacuum_path():
    p = DampedParams(0.0, 0.5, 0.07)
    ours = thermal_evolved_covariance(p, 1.3, 0.0, 0.0, 0.25, 0.25)
    ref = vacuum_evolved_covariance(p, 1.3, 0.25, 0.25)
    assert np.array_equal(ours, ref)


def test_thermal_lossless_limit_scales_squeezed_vacuum():
    lossfree = DampedParams(0.0, 0.5, 0.0)
    for n in (0.5, 1.0, 3.0):
        cov = thermal_evolved_covariance(lossfree, 2.0, n, n, 0.25, 0.25)
        assert np.allclose(cov, (1.0 + n) * tmsv_covariance(0.25), atol=1e-13)
        want = max(0.0, TWO_R_OVER_LN2 - math.log2(1.0 + n))
        assert float(log_negativity_gaussian(cov)) == pytest.approx(want, abs=1e-12)


def test_entanglement_death_threshold():
    # at gamma = 0 the thermal squeezed state separates at n = e^{2r} - 1
    lossfree = DampedParams(0.0, 0.5, 0.0)
    r = 0.25
    threshold = math.exp(2 * r) - 1.0
    below = thermal_evolved_covariance(lossfree, 1.0, threshold - 0.01, threshold - 0.01, r, r)
    above = thermal_evolved_covariance(lossfree, 1.0, threshold + 0.01, threshold + 0.01, r, r)
    assert float(log_negativity_gaussian(below)) > 0.0
    assert float(log_negativity_gaussian(above)) == 0.0
    assert not simon_separable(below)
    assert simon_separable(above)


def test_simon_matches_log_negativity_on_random_states():
    # vacuum plus classical noise is always separable, so the ensemble is
    # seeded with squeezed thermal states to reach both sides of the boundary
    rng = np.random.default_rng(23)
    hits_entangled = 0
    for _ in range(200):
        p = DampedParams(0.0, 0.5, rng.uniform(0.0, 0.2))
        n = rng.uniform(0.0, 1.5)
        r = rng.uniform(0.0, 1.0)
        cov = thermal_evolved_covariance(p, rng.uniform(0.0, 5.0), n, n, r, r)
        raw = rng.normal(size=(4, 2))
        cov = cov + 0.01 * (raw @ raw.T)
        entangled = float(log_negativity_gaussian(cov)) > 1e-12
        assert simon_separable(cov, band=1e-9) == (not entangled)
        hits_entangled += int(entangled)
    assert 0 < hits_entangled < 200  # both branches exercised


def test_unbalanced_thermal_inputs_can_be_rejected():
    # strongly asymmetric occupations and squeezings push the thermal
    # correction outside the uncertainty bound; the physicality check must
    # say so
    lossfree = DampedParams(0.0, 0.5, 0.0)
    assert not _is_physical(thermal_evolved_covariance(lossfree, 1.0, 0.0, 1.5, 1.0, 0.2))


def test_discriminant_guard():
    # a wildly unphysical "covariance" trips the invariant checks
    bad = np.diag([1.0, -1.0, 1.0, -1.0])
    with pytest.raises(NumericalError):
        symplectic_eigenvalues(bad)


def test_invariant_guards_name_their_failure():
    # a random symmetric matrix can have a negative discriminant, and the
    # zero matrix collapses the partially transposed eigenvalue
    a = np.random.default_rng(0).standard_normal((4, 4))
    with pytest.raises(NumericalError, match=r"^symplectic discriminant -[0-9.e+]+ is negative$"):
        symplectic_eigenvalues(a + a.T)
    with pytest.raises(NumericalError, match="^partially transposed eigenvalue collapsed to zero$"):
        log_negativity_gaussian(np.zeros((4, 4)))


def test_validation_errors():
    with pytest.raises(ValidationError):
        vacuum_evolved_covariance(P, -1.0, 0.25, 0.25)
    with pytest.raises(ValidationError):
        vacuum_evolved_covariance(P, 1.0, math.inf, 0.25)
    with pytest.raises(ValidationError):
        thermal_evolved_covariance(P, 1.0, -0.5, 0.0, 0.25, 0.25)
    with pytest.raises(ValidationError):
        tmsv_covariance(math.nan)
    with pytest.raises(ValidationError, match="r must be finite, got nan"):
        two_mode_squeezed_state(math.nan, 3)
    with pytest.raises(ValidationError):
        symplectic_eigenvalues(np.eye(5))


def test_overflow_raises_typed_errors():
    with pytest.raises(NumericalError):
        tmsv_covariance(400.0)
    with pytest.raises(NumericalError):
        thermal_evolved_covariance(P, 1.0, 0.0, 0.0, 400.0, 400.0)
    # invariants that overflow are refused, not read as E_N = 0
    for cov in (thermal_evolved_covariance(P, 1.0, 1e308, 1e308, 0.25, 0.25),
                vacuum_evolved_covariance(P, 1.0, 300.0, 300.0)):
        with pytest.raises(NumericalError):
            log_negativity_gaussian(cov)


def test_squeezing_whose_double_overflows_is_refused():
    # 2r = inf: math.cosh(inf) is inf and raises nothing, so the guard tests 2r
    for r in (1e308, -1e308, 9e307):
        with pytest.raises(NumericalError, match="squeezing r = .* overflows a float"):
            tmsv_covariance(r)
        with pytest.raises(NumericalError, match="squeezing r = .* overflows a float"):
            thermal_evolved_covariance(P, 1.0, 0.5, 0.5, r, 0.25)
        with pytest.raises(NumericalError, match="squeezing r = .* overflows a float"):
            vacuum_evolved_covariance(P, 1.0, 0.25, r)


def test_simon_refuses_invariants_that_are_not_finite():
    # both once gave False with RuntimeWarnings
    infinite = np.where(np.eye(4) > 0.0, math.inf, 0.0)
    for cov, name in ((np.full((4, 4), math.nan), "det A nan"), (infinite, "det A inf")):
        with pytest.raises(NumericalError, match=f"Simon invariants are not finite \\({name}"):
            simon_separable(cov)
    # finite blocks whose product overflows in the trace term
    huge = tmsv_covariance(0.25) * 1e80
    with pytest.raises(NumericalError, match="trace term inf"):
        simon_separable(huge)


def test_symplectic_refuses_a_covariance_that_is_not_finite():
    # both once read "symplectic invariants overflow a float (Delta nan)"
    infinite = np.where(np.eye(4) > 0.0, math.inf, 0.0)
    for cov, name in ((np.full((4, 4), math.nan), "det A nan"), (infinite, "det A inf")):
        for measure in (symplectic_eigenvalues, log_negativity_gaussian):
            with pytest.raises(NumericalError,
                               match=f"symplectic invariants are not finite \\({name}\\)"):
                measure(cov)


def test_complex_covariance_is_refused():
    # the imaginary part was dropped under a ComplexWarning: (0.5, 0.5)
    with pytest.raises(ValidationError, match="a covariance is real"):
        symplectic_eigenvalues(0.5 * np.eye(4) + 1j)
    with pytest.raises(ValidationError, match="a covariance is real"):
        simon_separable(vacuum_covariance().astype(complex))


def test_overflow_message_names_the_invariant_that_overflowed():
    # at r = 200 det V rounds to 0 while Delta is inf
    with pytest.raises(NumericalError, match=r"overflow a float \(Delta inf\)"):
        log_negativity_gaussian(tmsv_covariance(200.0))
