"""Exact evolution of two coupled modes with equal photon loss, plus the
closed-form entanglement and purity expressions for that system.

Propagation strategy: with equal loss rates the coupler and the loss
commute, so rho(t) = (E x E)(U rho U^dag), with U the lossless coupler
propagator (lossless_unitary, exact per photon sector) and E single-mode
amplitude damping, the same on both modes.  E is the pure-loss case
gamma_+ = 0 of the su(1,1) ordered form, whose number-basis kernel is then
the Kraus channel A_k|n> = sqrt(C(n, k)) gamma_-^{k/2} sqrt(gamma_3)^{n-k}
|n-k> (Chuang, Leung & Yamamoto, PRA 56, 1114, 1997), with the weights from
loss_channel_factors.  Pure loss never raises photon number, so for inputs
supported on the capacity region n_a + n_b <= cutoff the grid evolution
matches the untruncated dynamics to machine precision.

Cost model: per grid dimension d = cutoff + 1, the sector eigensystems and
an index table of the kernel's entries, one per (k, n, n') with k <= n, n'
(about d^3/3), are built once and cached.  Each call scatters the d sector
blocks of U into one grid matrix, fills the (d^2 x d^2) kernel from a
(d x d) amplitude table with one gather, and does four dense (d^2 x d^2)
products.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, TruncationError, ValidationError
from .fock import MeasureValue, TwoModeDensityMatrix, entropy_bits
from .lossless import (
    CouplerParams,
    _assemble_sectors,
    _binomial_family,
    _pt_spectrum,
    _require_capacity_support,
    _sector_unitary,
    lossless_unitary,
)

TRACE_DEFICIT_LIMIT = 1e-10
# Past this gamma t every entry but the vacuum population carries a factor
# e^{-gamma t} below the smallest normal double, and the ordered-form factors
# overflow soon after (near 709.8): the channel is at its vacuum limit.
VACUUM_LIMIT_GAMMA_T = -math.log(sys.float_info.min)


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
    for detun in (p.omega - p.J, p.omega + p.J):
        denom = math.sqrt(2.0 * p.gamma ** 2 + detun ** 2)
        nu = 0.0 if denom == 0.0 else p.gamma / denom
        branch.append((math.sqrt(1.0 + nu * nu), nu, math.asinh(nu)))
    (mu1, nu1, r1), (mu2, nu2, r2) = branch
    half1 = 0.5 * math.sqrt(p.gamma ** 2 + (p.omega - p.J) ** 2)
    half2 = 0.5 * math.sqrt(p.gamma ** 2 + (p.omega + p.J) ** 2)
    shift = -0.5j * p.gamma
    return BogoliubovParams(mu1, nu1, mu2, nu2, r1, r2,
                            -half1 + shift, half1 + shift,
                            -half2 + shift, half2 + shift)


def _su11_factorization(eta_plus: complex, eta_3: complex, eta_minus: complex):
    """Coefficients of the normally ordered form of exp(eta_+ K_+ + eta_3 K_3
    + eta_- K_-) for su(1,1) generators.

    Returns (gamma_plus, g3_root, gamma_minus, phi) with gamma_3 = g3_root**2;
    the root is what the number-basis kernel consumes, and computing it
    directly sidesteps any square-root branch choice.
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


def loss_channel_factors(gamma: float, t: float) -> tuple[complex, complex, complex]:
    """(gamma_plus, sqrt(gamma_3), gamma_minus) for one mode with pure photon
    loss at rate gamma: analytically (0, e^{-gamma t}, 1 - e^{-2 gamma t})."""
    g_plus, g3_root, g_minus, _ = _su11_factorization(
        0.0, -2.0 * gamma * t, 2.0 * gamma * t)
    return g_plus, g3_root, g_minus


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
def _kraus_table(dim: int) -> tuple[np.ndarray, ...]:
    # sqrt(C(n, k)) and the photons kept n - k (clipped at 0) as (k, n)
    # arrays, then every (k, n, n') with k <= n, n': k photons lost on each
    # side of |n><n'| land on |n-k><n'-k|, one kernel entry per triple
    idx = np.arange(dim)
    root_binom = np.sqrt([[math.comb(n, k) for n in range(dim)] for k in range(dim)])
    kept = np.maximum(idx[None, :] - idx[:, None], 0)
    k, n, n2 = np.nonzero((idx[:, None, None] <= idx[None, :, None])
                          & (idx[:, None, None] <= idx[None, None, :]))
    table = (root_binom, kept, k, n, n2, (n - k) * dim + n2 - k, n * dim + n2)
    for arr in table:
        arr.setflags(write=False)
    return table


def _loss_kernel(dim: int, g3_root: complex, g_minus: complex) -> np.ndarray:
    """Single-mode amplitude-damping channel as a (dim^2, dim^2) matrix over
    row-major vectorized operators.

    Kraus form (Chuang, Leung & Yamamoto, PRA 56, 1114, 1997):
    A_k|n> = sqrt(C(n, k)) gamma_-^{k/2} sqrt(gamma_3)^{n-k} |n-k>.  The entry
    from source |n><n'| to target |n-k><n'-k| is amp[k, n] conj(amp[k, n']).
    """
    root_binom, kept, k, n, n2, target, source = _kraus_table(dim)
    amp = root_binom * cmath.sqrt(g_minus) ** np.arange(dim)[:, None] * g3_root ** kept
    kern = np.zeros((dim * dim, dim * dim), dtype=complex)
    kern[target, source] = amp[k, n] * amp[k, n2].conj()
    return kern


def _apply_mode_kernel(sigma: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Apply one single-mode kernel to both slots of a grid operator
    sigma[(ma, mb), (ma', mb')]."""
    d2 = sigma.shape[0]
    d = int(round(math.sqrt(d2)))
    four = sigma.reshape(d, d, d, d)                    # [ma, mb, ma', mb']
    paired = four.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    paired = kern @ paired @ kern.T
    return paired.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)


def evolve_damped_exact(rho: TwoModeDensityMatrix, p: DampedParams,
                        t: float) -> TwoModeDensityMatrix:
    """Propagate rho for a time t >= 0 under the coupler Hamiltonian with
    equal photon loss on both modes.  No time stepping is involved; cost is
    set by the grid size only.  Beyond gamma t = VACUUM_LIMIT_GAMMA_T the
    result is the vacuum."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"t must be finite and >= 0, got {t}")
    d = rho.cutoff + 1
    diag = np.real(np.diagonal(rho.entries)).reshape(d, d)
    _require_capacity_support(diag, rho.cutoff, "density-matrix diagonal")
    if p.gamma * t > VACUUM_LIMIT_GAMMA_T:
        vacuum = np.zeros_like(rho.entries)
        vacuum[0, 0] = 1.0
        return TwoModeDensityMatrix(rho.cutoff, vacuum)
    u = lossless_unitary(rho.cutoff, p.coupler(), t)
    sigma = u @ rho.entries @ u.conj().T
    _, g3_root, g_minus = loss_channel_factors(p.gamma, t)
    rho_t = _apply_mode_kernel(sigma, _loss_kernel(d, g3_root, g_minus))
    trace = float(np.trace(rho_t).real)
    deficit = abs(trace - 1.0)
    if deficit > TRACE_DEFICIT_LIMIT:
        raise TruncationError(
            f"probability {deficit:.3e} left the grid; raise the cutoff above "
            f"{rho.cutoff}", tail_estimate=deficit)
    rho_t = rho_t / trace
    rho_t = 0.5 * (rho_t + rho_t.conj().T)
    rho_t.setflags(write=False)  # fresh, so validation need not copy it
    return TwoModeDensityMatrix(rho.cutoff, rho_t)


def _theta(p: DampedParams, t: float) -> complex:
    return complex(math.sqrt(2.0) * p.gamma, p.J) * t


def _damped_diagonal(total: int, p: DampedParams, t: float) -> np.ndarray:
    # The lossless family at the effective angle: sin^2 -> |sinh th|^2 / cosh 2x
    # and cos^2 -> |cosh th|^2 / cosh 2x with th = x + iy, both written through
    # tanh x so that no factor overflows at large gamma t.
    x, y = math.sqrt(2.0) * p.gamma * t, p.J * t
    th2 = math.tanh(x) ** 2
    s2 = (th2 + math.sin(y) ** 2 * (1.0 - th2)) / (1.0 + th2)
    c2 = (th2 + math.cos(y) ** 2 * (1.0 - th2)) / (1.0 + th2)
    return _binomial_family(total, s2, c2)


def damped_pt_spectrum(total: int, p: DampedParams, t: float) -> np.ndarray:
    """Closed-form partial-transpose spectrum (descending) for the damped
    coupler driven by the |0, N> input, renormalized to unit trace: the
    lossless spectrum at the effective angle atan(|sinh th| / |cosh th|),
    th = (sqrt(2) gamma + i J) t.  At gamma = 0 this coincides with the
    lossless spectrum as a multiset."""
    weights = _damped_diagonal(total, p, t)
    mags = np.sqrt(weights)
    return _pt_spectrum(weights, np.outer(mags, mags))


def damped_entropy(total: int, p: DampedParams, t: float) -> MeasureValue:
    """Entropy (bits) of the normalized diagonal family; reduces to the
    lossless entropy at gamma = 0, to 0 at t = 0, and to the entropy of
    Binomial(N, 1/2) as gamma t grows."""
    return MeasureValue("entropy", entropy_bits(_damped_diagonal(total, p, t)))


_PURITY_VARIANTS = ("as-printed", "rate-times-t")


def purity_closed(p: DampedParams, t: float, variant: str = "as-printed") -> MeasureValue:
    """Closed-form purity of the damped pair, exactly 1 at t = 0 or gamma = 0.

    The two variants differ in the mixing term of the denominator:
    "as-printed" uses gamma + i J t, "rate-times-t" uses (gamma + i J) t.
    The real part is clamped into [0, 1].
    """
    if variant not in _PURITY_VARIANTS:
        raise ValidationError(f"variant must be one of {_PURITY_VARIANTS}, got {variant!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"t must be finite and >= 0, got {t}")
    if t == 0.0 or p.gamma == 0.0:
        return MeasureValue("purity", 1.0)
    th = _theta(p, t)
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
    val = cmath.exp(expo).real
    return MeasureValue("purity", min(max(val, 0.0), 1.0))
