"""Truncated two-mode Fock space with entanglement and mixedness measures.

States live on the dense product grid |n_a, n_b> with 0 <= n_a, n_b <= cutoff,
ordered lexicographically in (n_a, n_b).  Constructors for named states enforce
n_a + n_b <= cutoff so that photon-conserving (and photon-losing) dynamics stay
exact on the grid.  All logarithms are base 2: entropies and logarithmic
negativities are reported in bits.

Density-matrix validation and the negativity solve eigenproblems sector by
sector.  The coupler conserves n_a + n_b and loss keeps coherence offsets, so
a Fock or NOON input stays block-diagonal in n_a + n_b; its partial transpose
is then block-diagonal in n_a - n_b.  For the two-mode squeezed vacuum the
roles swap.  Which labelling holds is read from the exact zeros of rho, and
its 2d - 1 blocks (d = cutoff + 1) are solved at a cost of about
(2d - 1) d^3 instead of d^6.  A matrix block-diagonal in neither labelling,
such as a squeezed state after the coupler, falls back to one dense
(d^2) x (d^2) solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9  # eigenvalues above this are treated as rounding noise
# block edge of the Hermiticity check, which compares block pairs (i, j) and
# (j, i) for j >= i: validating a large matrix then allocates no full-size
# temporaries (a cutoff-40 matrix is 45 MB) and reads rows contiguously
_HERM_CHECK_BLOCK = 256

_MEASURE_KINDS = ("entropy", "log_negativity", "negativity", "purity")


@dataclass(frozen=True)
class StateSpec:
    """Descriptor for a constructible input state.

    kind is one of "fock", "noon", "thermal", "tmsv"; params carries the
    occupation numbers (fock, thermal), the photon number (noon) or the
    squeezing strength (tmsv).
    """

    kind: str
    params: tuple[float, ...]

    def photons_needed(self) -> int:
        """Smallest cutoff that can host this state exactly."""
        if self.kind == "fock":
            return int(self.params[0] + self.params[1])
        if self.kind == "noon":
            return int(self.params[0])
        return 0


@dataclass(frozen=True)
class MeasureValue:
    """A named scalar measure so callers cannot mix up units/conventions."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in _MEASURE_KINDS:
            raise ValidationError(f"unknown measure kind {self.kind!r}")
        v = float(self.value)
        if self.kind in ("entropy", "log_negativity", "negativity"):
            if not v >= -1e-9:  # NaN fails here too
                raise ValidationError(f"{self.kind} must be >= 0, got {v}")
            v = max(v, 0.0)
        elif self.kind == "purity":
            if not (-1e-9 < v <= 1.0 + 1e-9):
                raise ValidationError(f"purity must lie in (0, 1], got {v}")
            v = min(max(v, 0.0), 1.0)
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def _total_photon_grid(cutoff: int) -> np.ndarray:
    d = cutoff + 1
    na = np.arange(d)
    return na[:, None] + na[None, :]


@dataclass(frozen=True)
class TwoModePureState:
    """Normalized two-mode pure state; amplitudes[n_a, n_b] on the grid."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValidationError("cutoff must be non-negative")
        d = self.cutoff + 1
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (d, d):
            raise ValidationError(f"amplitudes must have shape {(d, d)}, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # every gate here fails on NaN
            raise ValidationError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def flat(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Validated density matrix on the two-mode grid (Hermitian, unit trace, PSD).

    A read-only complex array that no writeable array shares is kept as it
    is; any other entries are copied, so the caller cannot change them."""

    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        d = self.cutoff + 1
        ent = self.entries
        if not (_sealed(ent) and ent.dtype == complex):
            ent = np.array(ent, dtype=complex)
        if ent.shape != (d * d, d * d):
            raise ValidationError(f"entries must have shape {(d*d, d*d)}, got {ent.shape}")
        r = _HERM_CHECK_BLOCK
        herm = np.max([np.abs(ent[i:i + r, j:j + r] - ent[j:j + r, i:i + r].conj().T).max()
                       for i in range(0, d * d, r) for j in range(i, d * d, r)])
        if not herm <= HERM_TOL:
            raise ValidationError(f"Hermiticity violated by {herm:.3e}")
        tr = ent.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValidationError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        evals = _spectrum(ent, d)
        if not evals.min() >= EIG_FLOOR:
            raise ValidationError(f"matrix has eigenvalue {evals.min():.3e} below {EIG_FLOOR}")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_pure(cls, state: TwoModePureState) -> "TwoModeDensityMatrix":
        psi = state.flat()
        try:
            outer = np.outer(psi, psi.conj())
        except MemoryError:
            raise NumericalError(f"the cutoff-{state.cutoff} density matrix ({psi.size}^2 "
                                 "complex entries) does not fit in memory") from None
        outer.setflags(write=False)  # handed over: validation keeps it uncopied
        return cls(state.cutoff, outer)


def _sealed(arr) -> bool:
    """Whether arr is an array nothing can write to any more: it and every
    array it views are read-only, down to one that owns its memory."""
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.base is None:
            return True
        arr = arr.base
    return False


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Hermitian eigenvalues with a real fast path and failure diagnostics."""
    try:
        if np.abs(mat.imag).max() < 1e-14:
            return np.linalg.eigvalsh(mat.real)
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(
            f"eigensolver failed on {mat.shape} matrix "
            f"(norm {np.linalg.norm(mat):.3e}, "
            f"herm residual {np.abs(mat - np.swapaxes(mat, -1, -2).conj()).max():.3e}): {exc}"
        ) from exc


@lru_cache(maxsize=None)
def _sectors(d: int, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2d - 1 sectors of n_a + sign * n_b on the grid (sign +1 or -1),
    one row each: the (n_a, n_b) of its members, padded to d slots with
    (0, 0), and the mask of real slots, which is a prefix of each row."""
    row = np.arange(2 * d - 1)[:, None]
    a = np.maximum(0, row - d + 1) + np.arange(d)
    b = row - a if sign > 0 else a - row + d - 1
    valid = (a < d) & (b >= 0) & (b < d)
    table = (np.where(valid, a, 0), np.where(valid, b, 0), valid)
    for arr in table:
        arr.setflags(write=False)
    return table


def _spectrum(ent: np.ndarray, d: int, transposed: bool = False) -> np.ndarray:
    """Eigenvalues of a grid matrix rho, or of its partial transpose, in no
    global order.  When rho is block-diagonal in n_a + n_b or n_a - n_b, the
    blocks of rho, or of its partial transpose in the other labelling, are
    gathered straight from rho and solved in one stacked call; any other
    matrix takes one dense solve."""
    four = ent.reshape(d, d, d, d)  # [n_a, n_b, m_a, m_b]
    nonzero = np.count_nonzero(ent)
    for sign in (1, -1):  # rho block-diagonal in n_a + n_b, then in n_a - n_b
        a, b, valid = _sectors(d, -sign if transposed else sign)
        row_b, col_b = b[:, :, None], b[:, None, :]
        if transposed:  # PT((a, b), (a', b')) = rho((a, b'), (a', b))
            row_b, col_b = col_b, row_b
        blocks = np.where(valid[:, :, None] & valid[:, None, :],
                          four[a[:, :, None], row_b, a[:, None, :], col_b], 0)
        if np.count_nonzero(blocks) == nonzero:
            # pad the short blocks' diagonals above every eigenvalue, so the
            # padding sorts last and each row's real slots hold its block's
            pad_row, pad_slot = np.nonzero(~valid)
            blocks[pad_row, pad_slot, pad_slot] = 1.0 + np.abs(blocks).sum()
            return _eigvalsh(blocks)[valid]
    return _eigvalsh(partial_transpose(ent) if transposed else ent)


def make_pure_state(spec: StateSpec, cutoff: int) -> TwoModePureState:
    """Build a named pure state on the grid.

    Supported kinds: fock (one basis vector) and noon ((|N,0> + |0,N>)/sqrt(2)).
    Raises CapacityError when the requested photon content exceeds the cutoff.
    """
    if not isinstance(spec, StateSpec):
        raise ValidationError("make_pure_state expects a StateSpec")
    d = cutoff + 1
    if spec.kind == "fock":
        na, nb = int(spec.params[0]), int(spec.params[1])
        if na < 0 or nb < 0:
            raise ValidationError("photon numbers must be non-negative")
        if na + nb > cutoff:
            raise CapacityError(f"fock({na},{nb}) needs cutoff >= {na + nb}, got {cutoff}")
        amps = np.zeros((d, d), dtype=complex)
        amps[na, nb] = 1.0
        return TwoModePureState(cutoff, amps)
    if spec.kind == "noon":
        n = int(spec.params[0])
        if n < 1:
            raise ValidationError("noon photon number must be >= 1")
        if n > cutoff:
            raise CapacityError(f"noon({n}) needs cutoff >= {n}, got {cutoff}")
        amps = np.zeros((d, d), dtype=complex)
        amps[n, 0] = amps[0, n] = 1.0 / math.sqrt(2.0)
        return TwoModePureState(cutoff, amps)
    raise ValidationError(f"cannot build a pure state from kind {spec.kind!r}")


def fock_state(n_a: int, n_b: int, cutoff: int) -> TwoModePureState:
    return make_pure_state(StateSpec("fock", (n_a, n_b)), cutoff)


def noon_state(n: int, cutoff: int) -> TwoModePureState:
    return make_pure_state(StateSpec("noon", (n,)), cutoff)


def state_from_amplitudes(amps: dict[tuple[int, int], complex] | np.ndarray,
                          cutoff: int) -> TwoModePureState:
    """Raw constructor (normalizes); unlike make_pure_state it allows support
    anywhere on the grid, e.g. for truncated squeezed states."""
    d = cutoff + 1
    grid = np.zeros((d, d), dtype=complex)
    if isinstance(amps, dict):
        for (na, nb), v in amps.items():
            grid[na, nb] = v
    else:
        grid[...] = amps
    norm = np.linalg.norm(grid)
    if norm == 0:
        raise ValidationError("cannot normalize the zero vector")
    return TwoModePureState(cutoff, grid / norm)


def _as_entries(rho) -> tuple[np.ndarray, int]:
    if isinstance(rho, TwoModeDensityMatrix):
        return rho.entries, rho.cutoff + 1
    mat = np.asarray(rho, dtype=complex)
    d = math.isqrt(mat.shape[0])
    if d * d != mat.shape[0] or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"matrix of shape {mat.shape} is not a two-mode grid operator")
    return mat, d


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second mode: <n_a, m_b|out|m_a, n_b> = <n_a, n_b|rho|m_a, m_b>.

    Accepts a TwoModeDensityMatrix or a plain grid matrix (so applying it twice
    returns the original matrix exactly).
    """
    ent, d = _as_entries(rho)
    four = ent.reshape(d, d, d, d)  # [n_a, n_b, m_a, m_b]
    return np.ascontiguousarray(four.transpose(0, 3, 2, 1)).reshape(d * d, d * d)


def negativity(rho) -> float:
    """Sum of |negative eigenvalues| of the partially transposed matrix."""
    ent, d = _as_entries(rho)
    evals = _spectrum(ent, d, transposed=True)
    return float(-evals[evals < 0.0].sum())


def log_negativity(rho) -> MeasureValue:
    """log2(1 + 2 * negativity); zero exactly for PPT states."""
    return MeasureValue("log_negativity", math.log2(1.0 + 2.0 * negativity(rho)))


def pure_log_negativity(state: TwoModePureState) -> MeasureValue:
    """Pure-state shortcut log2((sum of Schmidt coefficients)^2); used to
    cross-check the partial-transpose route."""
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    return MeasureValue("log_negativity", 2.0 * math.log2(float(s.sum())))


def reduced_state(rho, keep: str = "a") -> np.ndarray:
    """Partial trace down to one mode; returns a (cutoff+1)^2-free dxd matrix."""
    ent, d = _as_entries(rho)
    four = ent.reshape(d, d, d, d)
    if keep == "a":
        return np.einsum("aibi->ab", four)
    if keep == "b":
        return np.einsum("iaib->ab", four)
    raise ValidationError(f"keep must be 'a' or 'b', got {keep!r}")


def _clamped_probabilities(evals: np.ndarray) -> np.ndarray:
    if not evals.min() >= EIG_FLOOR:
        raise ValidationError(f"eigenvalue {evals.min():.3e} below tolerance floor {EIG_FLOOR}")
    return np.clip(evals, 0.0, 1.0)


def entropy_bits(probabilities: Iterable[float]) -> float:
    """Shannon entropy (base 2) of a set of non-negative weights; 0 log 0 = 0."""
    p = np.asarray(list(probabilities), dtype=float)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def von_neumann_entropy(sigma: np.ndarray) -> MeasureValue:
    """Entropy in bits of a single-mode density matrix."""
    evals = _clamped_probabilities(_eigvalsh(np.asarray(sigma, dtype=complex)))
    return MeasureValue("entropy", entropy_bits(evals))


def purity(rho) -> MeasureValue:
    """Tr(rho^2) = sum_ij rho_ij rho_ji as a real number in (0, 1]; O(d^4)
    for a d^2 x d^2 grid matrix, against O(d^6) for the product rho @ rho."""
    ent, _ = _as_entries(rho)
    val = float(np.einsum("ij,ji->", ent, ent).real)
    return MeasureValue("purity", val)
