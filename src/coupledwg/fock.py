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
roles swap.  _sector_eigvalsh solves only the occupied sectors, and sectors
of equal size share one stacked eigvalsh call: a matrix takes at most d calls
(d = cutoff + 1), of sizes 1 to d, at a cost of the sum of n^3 over its
occupied sectors instead of d^6.  An all-zero sector, such as one above the
capacity n_a + n_b <= cutoff, is not solved; its eigenvalues are 0.  One
dense state gathers its blocks from its 4-index view, once the labelling is
read from its exact zeros; a chunk of propagated states gathers them from
its compact layout (damped.py) and is solved in the same calls.  A matrix
block-diagonal in neither labelling, such as a squeezed state after the
coupler, falls back to one dense (d^2) x (d^2) solve.

The measures and their gates are written for stacks of states (log2(1 + 2N)
from partial-transpose eigenvalues, reduced-state entropy, the MeasureValue
range gate); the scalar public functions are the stack of one.
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

# measure kind -> the range its values are clamped into after the gate
_CLAMPS = {"entropy": (0.0, math.inf), "log_negativity": (0.0, math.inf),
           "purity": (0.0, 1.0)}


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
        if self.kind not in _CLAMPS:
            raise ValidationError(f"unknown measure kind {self.kind!r}")
        v = float(self.value)
        low, high = _CLAMPS[self.kind]
        if not low <= v <= high:  # the gate passes a value in range unchanged
            v = float(_gated(self.kind, np.array([v]))[0])
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def _gated(kind: str, values: np.ndarray) -> np.ndarray:
    """MeasureValue's gate for an array of one kind of measure: a value
    within 1e-9 outside the kind's range is rounding noise and is clamped
    into it; any other value, NaN included, raises ValidationError."""
    if kind == "purity":
        ok = (values > -1e-9) & (values <= 1.0 + 1e-9)
        message = "purity must lie in (0, 1], got {}"
    else:
        ok = values >= -1e-9
        message = kind + " must be >= 0, got {}"
    if not ok.all():
        raise ValidationError(message.format(float(values[~ok][0])))
    return np.clip(values, *_CLAMPS[kind])


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
        _checked_spectra(np.array([herm]), np.array([ent.trace()]),
                         lambda _: _spectrum(ent, d)[None])
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


def _checked_spectra(herm: np.ndarray, trace: np.ndarray, spectra) -> np.ndarray:
    """The density-matrix gates on a stack of states, with the outcome of
    checking them one state at a time.  herm and trace hold each state's
    Hermiticity residual and trace; spectra(k) gives the eigenvalues of the
    first k states, one row each.  The first state that fails a gate
    (Hermiticity, unit trace, then the eigenvalue floor; NaN fails each)
    raises ValidationError, and a state after it is never solved.  Returns
    the eigenvalues."""
    early = np.flatnonzero(~((herm <= HERM_TOL) & (np.abs(trace - 1.0) <= TRACE_TOL)))
    count = int(early[0]) if early.size else herm.size
    evals = spectra(count) if count else np.zeros((0, 1))
    low = evals.min(axis=1)
    late = np.flatnonzero(~(low >= EIG_FLOOR))
    if late.size:
        raise ValidationError(f"matrix has eigenvalue {low[late[0]]:.3e} below {EIG_FLOOR}")
    if early.size:
        if not herm[count] <= HERM_TOL:
            raise ValidationError(f"Hermiticity violated by {herm[count]:.3e}")
        raise ValidationError(f"trace deviates from 1 by {abs(trace[count] - 1.0):.3e}")
    return evals


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


def _sector_grid(d: int, sign: int, transposed: bool) -> tuple[np.ndarray, ...]:
    """Where the sector blocks of n_a + sign * n_b read a grid matrix rho:
    slot (i, j) of sector s holds rho's entry at (n_a, n_b, m_a, m_b), four
    (2d - 1, d, d) index arrays; transposed gives the blocks of the partial
    transpose, PT((a, b), (a', b')) = rho((a, b'), (a', b)).  Each block is
    the top-left corner of its slots (mask); sizes holds its edge."""
    a, b, valid = _sectors(d, sign)
    row_b, col_b = b[:, :, None], b[:, None, :]
    if transposed:
        row_b, col_b = col_b, row_b
    grid = np.broadcast_arrays(a[:, :, None], row_b, a[:, None, :], col_b)
    return (*grid, valid[:, :, None] & valid[:, None, :], valid.sum(axis=1))


def _by_size(blocks: np.ndarray, sizes: np.ndarray, occupied: np.ndarray) -> list:
    """The occupied blocks of a padded sector stack (..., 2d - 1, d, d) laid
    out as by _sector_grid, whether entries or where to gather them from:
    one stack (..., sectors, n, n) per block size n, in increasing n."""
    groups = []
    for n in range(1, blocks.shape[-1] + 1):
        pick = occupied & (sizes == n)
        if pick.any():
            groups.append(blocks[..., pick, :n, :n])
    return groups


def _sector_eigvalsh(groups: Iterable[np.ndarray], count: int) -> np.ndarray:
    """Eigenvalues of count Hermitian matrices from their sector blocks.
    groups gives one (count, sectors, n, n) stack per block size n, so the
    sectors of one size share one eigvalsh call and none is padded.  Row k
    lists matrix k's eigenvalues group by group.  Only occupied sectors are
    passed: a sector left out is all zero, and its eigenvalues, all 0, are
    not listed."""
    return np.concatenate([np.zeros((count, 0))]
                          + [_eigvalsh(g).reshape(count, -1) for g in groups], axis=1)


def _spectrum(ent: np.ndarray, d: int, transposed: bool = False) -> np.ndarray:
    """Eigenvalues of a grid matrix rho, or of its partial transpose, in no
    global order; those of an all-zero sector are left out.  When rho is
    block-diagonal in n_a + n_b or n_a - n_b, the occupied blocks of rho, or
    of its partial transpose in the other labelling, are gathered from its
    4-index view for _sector_eigvalsh; any other matrix takes one dense
    solve."""
    four = ent.reshape(d, d, d, d)  # [n_a, n_b, m_a, m_b]
    nonzero = np.count_nonzero(ent)
    for sign in (1, -1):  # rho block-diagonal in n_a + n_b, then in n_a - n_b
        *grid, mask, sizes = _sector_grid(d, -sign if transposed else sign, transposed)
        blocks = np.where(mask, four[tuple(grid)], 0)
        if np.count_nonzero(blocks) == nonzero:
            groups = _by_size(blocks[None], sizes, blocks.any(axis=(1, 2)))
            return _sector_eigvalsh(groups, 1)[0]
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


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right as einsum traces do: a
    zero term anywhere changes nothing, so a row sums alike alone, in any
    stack, and with its all-zero sectors left out or solved."""
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _negativities(evals: np.ndarray) -> np.ndarray:
    """Sum of |negative eigenvalues| per row of partial-transpose eigenvalues."""
    return -_ordered_sum(np.where(evals < 0.0, evals, 0.0))


def _log_negativities(evals: np.ndarray) -> np.ndarray:
    """log2(1 + 2 * negativity) per row of partial-transpose eigenvalues,
    through the log_negativity gate."""
    return _gated("log_negativity", np.log2(1.0 + 2.0 * _negativities(evals)))


def log_negativity(rho) -> MeasureValue:
    """log2(1 + 2 * negativity); zero exactly for PPT states."""
    ent, d = _as_entries(rho)
    value = _log_negativities(_spectrum(ent, d, transposed=True)[None])[0]
    return MeasureValue("log_negativity", float(value))


def _pure_log_negativities(amps: np.ndarray) -> np.ndarray:
    """log2((sum of Schmidt coefficients)^2) of each pure state of a stack of
    amplitude grids (count, d, d), through the log_negativity gate."""
    sums = np.linalg.svd(amps, compute_uv=False).sum(axis=-1)
    return _gated("log_negativity", np.array([2.0 * math.log2(s) for s in sums.tolist()]))


def pure_log_negativity(state: TwoModePureState) -> MeasureValue:
    """Pure-state shortcut log2((sum of Schmidt coefficients)^2); used to
    cross-check the partial-transpose route."""
    value = _pure_log_negativities(state.amplitudes[None])[0]
    return MeasureValue("log_negativity", float(value))


def reduced_state(rho, keep: str = "a") -> np.ndarray:
    """Partial trace down to one mode; returns a (cutoff+1)^2-free dxd matrix."""
    ent, d = _as_entries(rho)
    four = ent.reshape(d, d, d, d)
    if keep == "a":
        return np.einsum("aibi->ab", four)
    if keep == "b":
        return np.einsum("iaib->ab", four)
    raise ValidationError(f"keep must be 'a' or 'b', got {keep!r}")


def _entropy_bits(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) over the last axis of non-negative weights,
    0 log 0 = 0."""
    logs = np.log2(weights, out=np.zeros(weights.shape), where=weights > 0.0)
    return _ordered_sum(-weights * logs)


def entropy_bits(probabilities: Iterable[float]) -> float:
    """Shannon entropy (base 2) of a set of non-negative weights; 0 log 0 = 0."""
    return float(_entropy_bits(np.asarray(list(probabilities), dtype=float)))


def _entropies(sigmas: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack of single-mode density matrices
    (count, n, n).  Each must be Hermitian within HERM_TOL, of unit trace
    within TRACE_TOL and without an eigenvalue below EIG_FLOOR, or
    ValidationError is raised as _checked_spectra does; eigenvalues above
    the floor are clamped into [0, 1]."""
    herm = np.abs(sigmas - sigmas.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    evals = _checked_spectra(herm, np.trace(sigmas, axis1=-2, axis2=-1),
                             lambda count: _eigvalsh_each(sigmas[:count]))
    return _entropy_bits(np.clip(evals, 0.0, 1.0))


def _eigvalsh_each(mats: np.ndarray) -> np.ndarray:
    """_eigvalsh of a stack of matrices, with its real fast path taken or
    not for each matrix as it would be for that matrix alone."""
    real = np.abs(mats.imag).max(axis=(-2, -1), initial=0.0) < 1e-14
    evals = np.empty(mats.shape[:-1])
    for pick in (real, ~real):
        if pick.any():
            evals[pick] = _eigvalsh(mats[pick])
    return evals


def _reduced_entropies(amps: np.ndarray) -> np.ndarray:
    """Entropy in bits of mode a's reduced state amps @ amps^dagger, for each
    pure state of a stack of amplitude grids (count, d, d)."""
    return _entropies(amps @ amps.conj().swapaxes(-1, -2))


def von_neumann_entropy(sigma: np.ndarray) -> MeasureValue:
    """Entropy in bits of a single-mode density matrix; anything else (not
    square, not Hermitian, trace not 1, a negative eigenvalue) raises
    ValidationError."""
    mat = np.asarray(sigma, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValidationError(f"a single-mode density matrix is square, got shape {mat.shape}")
    return MeasureValue("entropy", float(_entropies(mat[None])[0]))


def purity(rho) -> MeasureValue:
    """Tr(rho^2) = sum_ij rho_ij rho_ji as a real number in (0, 1]; O(d^4)
    for a d^2 x d^2 grid matrix, against O(d^6) for the product rho @ rho."""
    ent, _ = _as_entries(rho)
    val = float(np.einsum("ij,ji->", ent, ent).real)
    return MeasureValue("purity", val)
