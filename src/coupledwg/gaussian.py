"""Continuous-variable treatment: 4x4 covariance matrices for squeezed and
thermal inputs under the damped coupler, symplectic spectra, and the
log-negativity computed from the partially transposed invariants.

Quadrature ordering is (x_a, p_a, x_b, p_b) with the vacuum at identity/2, so
physical states have symplectic eigenvalues >= 1/2.

The evolved covariances are the paper's curve family for inputs squeezed
along the coupler's normal modes.  Time enters only through the loss factor
e^{-2 gamma t} and the coupler rotation is not applied, so at gamma = 0 every
curve here is flat.  For other inputs this is not the dynamics: a two-mode
squeezed vacuum (r = 0.25) behind a 50:50 coupler (J = 0.5, gamma = 0,
t = pi/2) keeps E_N = 0.7213 here, while the exact value is 0, a product of
two single-mode squeezers.  The exact Fock-grid propagator, fed the TMSV
restricted to n_a + n_b <= cutoff, gives 3.5e-3 at cutoff 8, 2.8e-4 at 12,
2.0e-5 at 16, 1.4e-6 at 20 and 9.2e-8 at 24: grid truncation.
"""

from __future__ import annotations

import math

import numpy as np

from .damped import DampedParams
from .errors import NumericalError, ValidationError
from .fock import MeasureValue, TwoModePureState, state_from_amplitudes

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
DISCRIMINANT_FLOOR = -1e-10


def _as_covariance(state) -> np.ndarray:
    cov = np.asarray(state, dtype=float)
    if cov.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 covariance, got shape {cov.shape}")
    return cov


def _blocks(cov: np.ndarray):
    return cov[:2, :2], cov[2:, 2:], cov[:2, 2:]


def symplectic_eigenvalues(state, partial_transposed: bool = False) -> tuple:
    """(nu_minus, nu_plus) from the quadratic invariant; the partial-transpose
    branch flips the sign of the cross-block determinant."""
    cov = _as_covariance(state)
    alpha, beta, cross = _blocks(cov)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        det_a = float(np.linalg.det(alpha))
        det_b = float(np.linalg.det(beta))
        det_c = float(np.linalg.det(cross))
        det_v = float(np.linalg.det(cov))
    delta = det_a + det_b + (-2.0 * det_c if partial_transposed else 2.0 * det_c)
    disc = delta * delta - 4.0 * det_v
    if not math.isfinite(disc):
        raise NumericalError(f"symplectic invariants overflow a float (det {det_v:.3e})")
    scale = max(1.0, delta * delta, abs(det_v))
    if disc < DISCRIMINANT_FLOOR * scale:
        raise NumericalError(f"symplectic discriminant {disc:.3e} is negative")
    root = math.sqrt(max(disc, 0.0))
    lo = 0.5 * (delta - root)
    hi = 0.5 * (delta + root)
    if lo < -1e-10 * max(1.0, abs(delta)):
        raise NumericalError(f"negative squared symplectic eigenvalue {lo:.3e}")
    return math.sqrt(max(lo, 0.0)), math.sqrt(hi)


def log_negativity_gaussian(state) -> MeasureValue:
    """max(0, -log2(2 nu_minus~)) with nu_minus~ the smaller partially
    transposed symplectic eigenvalue."""
    nu_minus, _ = symplectic_eigenvalues(state, partial_transposed=True)
    if nu_minus <= 0.0:
        raise NumericalError("partially transposed eigenvalue collapsed to zero")
    return MeasureValue("log_negativity", max(0.0, -math.log2(2.0 * nu_minus)))


def simon_separable(state, band: float = 1e-12) -> bool:
    """Determinant-based separability test for two-mode Gaussian states; for
    these states it is exact, so it must agree with log_negativity == 0."""
    cov = _as_covariance(state)
    alpha, beta, cross = _blocks(cov)
    det_a = float(np.linalg.det(alpha))
    det_b = float(np.linalg.det(beta))
    det_c = float(np.linalg.det(cross))
    mixed = float(np.trace(alpha @ _J2 @ cross @ _J2 @ beta @ _J2 @ cross.T @ _J2))
    lhs = det_a * det_b + (0.25 - abs(det_c)) ** 2 - mixed
    rhs = 0.25 * (det_a + det_b)
    return lhs >= rhs - band


def tmsv_covariance(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum with squeezing r (x-correlations negative,
    p-correlations positive)."""
    if not math.isfinite(r):
        raise ValidationError(f"r must be finite, got {r}")
    ch, sh = _cosh_sinh_2r(r)
    return 0.5 * np.array([[ch, 0.0, -sh, 0.0],
                           [0.0, ch, 0.0, sh],
                           [-sh, 0.0, ch, 0.0],
                           [0.0, sh, 0.0, ch]])


def _cosh_sinh_2r(r: float) -> tuple[float, float]:
    try:
        return math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise NumericalError(f"squeezing r = {r:g} overflows a float") from None


def vacuum_covariance() -> np.ndarray:
    return 0.5 * np.eye(4)


def vacuum_evolved_covariance(p: DampedParams, t: float, r1: float, r2: float) -> np.ndarray:
    """Curve-family covariance of an input squeezed along both normal-mode
    branches after time t of loss: the squeezed part decays as
    e^{-2 gamma t} while vacuum noise flows back in, so the matrix tends to
    the vacuum.  The coupler rotation is not applied (see the module note)."""
    for name, val in (("t", t), ("r1", r1), ("r2", r2)):
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val}")
    if t < 0.0:
        raise ValidationError(f"t must be >= 0, got {t}")
    decay = math.exp(-2.0 * p.gamma * t)
    (ch1, sh1), (ch2, sh2) = _cosh_sinh_2r(r1), _cosh_sinh_2r(r2)
    press = decay * (ch1 + ch2) + 2.0 * (1.0 - decay)
    shear = decay * (sh1 + sh2)
    return 0.25 * np.array([[press, 0.0, -shear, 0.0],
                            [0.0, press, 0.0, shear],
                            [-shear, 0.0, press, 0.0],
                            [0.0, shear, 0.0, press]])


def thermal_evolved_covariance(p: DampedParams, t: float, n1: float, n2: float,
                               r1: float, r2: float) -> np.ndarray:
    """Same curve family with thermal occupations n1, n2 seeding the two
    branches.  At n1 = n2 = 0 this is vacuum_evolved_covariance exactly; at
    gamma = 0 with equal occupations and squeezings it is (1 + n) times the
    squeezed-vacuum covariance, so the log-negativity loses log2(1 + n)."""
    for name, val in (("n1", n1), ("n2", n2)):
        if not (math.isfinite(val) and val >= 0.0):
            raise ValidationError(f"{name} must be finite and >= 0, got {val}")
    # first, so that its overflow check on cosh(2r) > cosh(r)^2 covers c, d, e, f
    vacuum = vacuum_evolved_covariance(p, t, r1, r2)
    decay = math.exp(-2.0 * p.gamma * t)
    c = decay * (n1 * math.cosh(r1) ** 2 + n2 * math.sinh(r1) ** 2)
    d = decay * (n1 * math.sinh(r2) ** 2 + n2 * math.cosh(r2) ** 2)
    e = decay * 0.5 * (n1 + n2) * math.sinh(2.0 * r1)
    f = decay * 0.5 * (n1 + n2) * math.sinh(2.0 * r2)
    extra = 0.5 * np.array([[c, 0.0, -e, 0.0],
                            [0.0, c, 0.0, f],
                            [-e, 0.0, d, 0.0],
                            [0.0, f, 0.0, d]])
    return vacuum + extra


def two_mode_squeezed_state(r: float, cutoff: int) -> TwoModePureState:
    """Number-basis twin of tmsv_covariance for cross-checking the two
    pictures: amplitudes tanh(r)^n on the diagonal, normalized on the grid."""
    if not math.isfinite(r):
        raise ValidationError(f"r must be finite, got {r}")
    lam = math.tanh(r)
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(cutoff + 1):
        amps[n, n] = lam ** n
    return state_from_amplitudes(amps, cutoff)
