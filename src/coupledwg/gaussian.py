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

Curves are built one whole grid at a time.  vacuum_evolved_covariance and
_thermal_evolved_covariances stack the covariances of a grid of times or of
occupations, one 4x4 matrix per point, each point's exp, cosh and sinh taken
with math.  The symplectic
invariants of a stack take its block determinants and det V as two stacked
np.linalg.det calls, which solve each matrix alone (_determinants); the
discriminant, the roots and log2 stay math's, per point (_symplectic_spectra,
_log_negativities_gaussian).  thermal_evolved_covariance,
symplectic_eigenvalues and log_negativity_gaussian are the one-point calls of
these column forms, so a column equals the point calls bit for bit.  A
failing grid raises the error of its first failing point.
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
    if np.iscomplexobj(state):
        raise ValidationError("a covariance is real, got a complex array")
    cov = np.asarray(state, dtype=float)
    if cov.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 covariance, got shape {cov.shape}")
    return cov


def _determinants(covs: np.ndarray) -> list:
    """(det A, det B, det C, det V) of each covariance of a stack (n, 4, 4):
    its blocks of mode a and mode b, their cross term and the whole matrix,
    inf or NaN where they overflow, for the caller to refuse.  Two stacked
    np.linalg.det calls, one over the 2x2 blocks and one over V; each matrix
    of a stack is solved alone, so a point's values do not depend on the
    stack it is in."""
    blocks = covs.reshape(-1, 2, 2, 2, 2).swapaxes(2, 3)  # [n, block row, block col]
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(blocks).reshape(-1, 4).tolist()
        whole = np.linalg.det(covs).tolist()
    return [(det_a, det_b, det_c, det_v)
            for (det_a, det_c, _, det_b), det_v in zip(dets, whole)]


def _invariant_error(cov: np.ndarray, invariants: dict) -> NumericalError:
    """The error of a covariance whose Delta or discriminant is not finite:
    "not finite" when the covariance itself is not, naming the first
    invariant that is not; else an overflow of Delta or the discriminant."""
    if np.isfinite(cov).all():
        name = "Delta" if not math.isfinite(invariants["Delta"]) else "discriminant"
        return NumericalError(
            f"symplectic invariants overflow a float ({name} {invariants[name]:.3e})")
    name = next(key for key, value in invariants.items() if not math.isfinite(value))
    return NumericalError(f"symplectic invariants are not finite ({name} {invariants[name]:.3e})")


def _symplectic_spectra(covs: np.ndarray, partial_transposed: bool):
    """(nu_minus, nu_plus) of each covariance of a stack (n, 4, 4), in order,
    from the quadratic invariant; the partial-transpose branch flips the sign
    of the cross-block determinant.  The determinants are stacked; the
    discriminant and the roots are math's, per point.  A generator, so that
    a point's gates, and any its consumer adds, raise before the next
    point's."""
    sign = -2.0 if partial_transposed else 2.0
    for cov, (det_a, det_b, det_c, det_v) in zip(covs, _determinants(covs)):
        delta = det_a + det_b + sign * det_c
        disc = delta * delta - 4.0 * det_v
        if not (math.isfinite(delta) and math.isfinite(disc)):
            raise _invariant_error(cov, {"det A": det_a, "det B": det_b, "det C": det_c,
                                         "det V": det_v, "Delta": delta,
                                         "discriminant": disc})
        scale = max(1.0, delta * delta, abs(det_v))
        if disc < DISCRIMINANT_FLOOR * scale:
            raise NumericalError(f"symplectic discriminant {disc:.3e} is negative")
        root = math.sqrt(max(disc, 0.0))
        lo = 0.5 * (delta - root)
        hi = 0.5 * (delta + root)
        if lo < -1e-10 * max(1.0, abs(delta)):
            raise NumericalError(f"negative squared symplectic eigenvalue {lo:.3e}")
        yield math.sqrt(max(lo, 0.0)), math.sqrt(hi)


def symplectic_eigenvalues(state, partial_transposed: bool = False) -> tuple:
    """(nu_minus, nu_plus) from the quadratic invariant; the partial-transpose
    branch flips the sign of the cross-block determinant."""
    return next(_symplectic_spectra(_as_covariance(state)[None], partial_transposed))


def _log_negativities_gaussian(covs: np.ndarray) -> np.ndarray:
    """log_negativity_gaussian of each covariance of a stack (n, 4, 4)."""
    values = []
    for nu_minus, _ in _symplectic_spectra(covs, partial_transposed=True):
        if nu_minus <= 0.0:
            raise NumericalError("partially transposed eigenvalue collapsed to zero")
        values.append(max(0.0, -math.log2(2.0 * nu_minus)))
    return np.array(values)


def log_negativity_gaussian(state) -> MeasureValue:
    """max(0, -log2(2 nu_minus~)) with nu_minus~ the smaller partially
    transposed symplectic eigenvalue."""
    value = _log_negativities_gaussian(_as_covariance(state)[None])[0]
    return MeasureValue("log_negativity", float(value))


def simon_separable(state, band: float = 1e-12) -> bool:
    """Determinant-based separability test for two-mode Gaussian states; for
    these states it is exact, so it must agree with log_negativity == 0.
    Invariants that are not finite raise NumericalError."""
    cov = _as_covariance(state)
    alpha, beta, cross = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]
    det_a, det_b, det_c, _ = _determinants(cov[None])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = float(np.trace(alpha @ _J2 @ cross @ _J2 @ beta @ _J2 @ cross.T @ _J2))
    for name, value in (("det A", det_a), ("det B", det_b), ("det C", det_c),
                        ("trace term", mixed)):
        if not math.isfinite(value):
            raise NumericalError(f"Simon invariants are not finite ({name} {value:.3e})")
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
        if math.isfinite(2.0 * r):  # cosh(inf) is inf, and raises nothing
            return math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        pass
    raise NumericalError(f"squeezing r = {r:g} overflows a float")


def vacuum_covariance() -> np.ndarray:
    return 0.5 * np.eye(4)


def _quadrature_stack(diag_a, diag_b, x_cross, p_cross) -> np.ndarray:
    # the (n, 4, 4) stack [[a, 0, -x, 0], [0, a, 0, p], [-x, 0, b, 0], [0, p, 0, b]]
    out = np.zeros((diag_a.size, 4, 4))
    for (i, j), value in (((0, 0), diag_a), ((1, 1), diag_a), ((2, 2), diag_b),
                          ((3, 3), diag_b), ((0, 2), -x_cross), ((2, 0), -x_cross),
                          ((1, 3), p_cross), ((3, 1), p_cross)):
        out[:, i, j] = value
    return out


def _points(*values) -> list:
    # numbers and 1-D arrays broadcast together, as one list of numbers each
    return [v.tolist() for v in np.broadcast_arrays(*(np.reshape(v, -1) for v in values))]


def _vacuum_point(p: DampedParams, t: float, r1: float, r2: float) -> tuple:
    """One checked point of vacuum_evolved_covariance: e^{-2 gamma t} and 4 V's terms."""
    for name, val in (("t", t), ("r1", r1), ("r2", r2)):
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val}")
    if t < 0.0:
        raise ValidationError(f"t must be >= 0, got {t}")
    decay = math.exp(-2.0 * p.gamma * t)
    (ch1, sh1), (ch2, sh2) = _cosh_sinh_2r(r1), _cosh_sinh_2r(r2)
    return decay, decay * (ch1 + ch2) + 2.0 * (1.0 - decay), decay * (sh1 + sh2)


def vacuum_evolved_covariance(p: DampedParams, t, r1, r2) -> np.ndarray:
    """Curve-family covariance of an input squeezed along both normal-mode
    branches after time t of loss: the squeezed part decays as
    e^{-2 gamma t} while vacuum noise flows back in, so the matrix tends to
    the vacuum.  The coupler rotation is not applied (see the module note).

    Numbers give one 4x4 matrix.  If any of t, r1 and r2 is a 1-D array,
    they are broadcast together and give an (n, 4, 4) stack, each point's
    scalars math's and checked in turn, so the first failing point raises."""
    terms = [_vacuum_point(p, *point)[1:] for point in zip(*_points(t, r1, r2))]
    press, shear = np.array(terms).reshape(-1, 2).T
    stack = 0.25 * _quadrature_stack(press, press, shear, shear)
    return stack if max(map(np.ndim, (t, r1, r2))) else stack[0]


# the occupation terms of 2 V beyond the vacuum's, each times e^{-2 gamma t}
_OCCUPATION_TERMS = ("n1 cosh^2 r1 + n2 sinh^2 r1", "n1 sinh^2 r2 + n2 cosh^2 r2",
                     "(n1 + n2) sinh(2 r1) / 2", "(n1 + n2) sinh(2 r2) / 2")


def _thermal_evolved_covariances(p: DampedParams, t, n1, n2, r1, r2) -> np.ndarray:
    """thermal_evolved_covariance at each point of t, n1, n2, r1 and r2, each
    a number or a 1-D array, broadcast together: an (n, 4, 4) stack.  Each
    point's scalars are math's, and its n1, n2, t, r1 and r2 are checked in
    turn, so the first failing point raises; an occupation term that
    overflows a float raises NumericalError, naming it."""
    terms = []
    for t_k, n1_k, n2_k, r1_k, r2_k in zip(*_points(t, n1, n2, r1, r2)):
        for name, val in (("n1", n1_k), ("n2", n2_k)):
            if not (math.isfinite(val) and val >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {val}")
        # first, so that its overflow check on cosh(2r) > cosh(r)^2 covers the terms
        decay, press, shear = _vacuum_point(p, t_k, r1_k, r2_k)
        # the mean occupation halves each term before the sum, which rounds as
        # 0.5 * (n1 + n2) does but stays finite where n1 + n2 overflows
        mean = 0.5 * n1_k + 0.5 * n2_k
        point = (decay * (n1_k * math.cosh(r1_k) ** 2 + n2_k * math.sinh(r1_k) ** 2),
                 decay * (n1_k * math.sinh(r2_k) ** 2 + n2_k * math.cosh(r2_k) ** 2),
                 decay * mean * math.sinh(2.0 * r1_k), decay * mean * math.sinh(2.0 * r2_k))
        for name, val in zip(_OCCUPATION_TERMS, point):
            if not math.isfinite(val):  # NaN where the decay 0 meets an inf
                raise NumericalError(f"occupation term {name} overflows a float "
                                     f"at n1 = {n1_k:g}, n2 = {n2_k:g}")
        terms.append((press, shear) + point)
    press, shear, c, d, e, f = np.array(terms).reshape(-1, 6).T
    return (0.25 * _quadrature_stack(press, press, shear, shear)
            + 0.5 * _quadrature_stack(c, d, e, f))


def thermal_evolved_covariance(p: DampedParams, t: float, n1: float, n2: float,
                               r1: float, r2: float) -> np.ndarray:
    """Same curve family with thermal occupations n1, n2 seeding the two
    branches.  At n1 = n2 = 0 this is vacuum_evolved_covariance exactly; at
    gamma = 0 with equal occupations and squeezings it is (1 + n) times the
    squeezed-vacuum covariance, so the log-negativity loses log2(1 + n)."""
    return _thermal_evolved_covariances(p, t, n1, n2, r1, r2)[0]


def two_mode_squeezed_state(r: float, cutoff: int) -> TwoModePureState:
    """Number-basis twin of tmsv_covariance for cross-checking the two
    pictures: amplitudes tanh(r)^n on the diagonal, normalized on the grid."""
    if not math.isfinite(r):
        raise ValidationError(f"r must be finite, got {r}")
    lam = math.tanh(r)
    return state_from_amplitudes({(n, n): lam ** n for n in range(cutoff + 1)}, cutoff)
