"""Truncated two-mode Fock space with entanglement and mixedness measures.

States live on the dense product grid |n_a, n_b> with 0 <= n_a, n_b <= cutoff,
ordered lexicographically in (n_a, n_b).  Constructors for named states enforce
n_a + n_b <= cutoff so that photon-conserving (and photon-losing) dynamics stay
exact on the grid.  All logarithms are base 2: entropies and logarithmic
negativities are reported in bits.

A TwoModeDensityMatrix holds only its occupied entries, values on a
_Layout: a dense argument's, found in one scan and then dropped, or
from_pure's k^2 products of k nonzero amplitudes, are row-major without
zeros, and a state drawn from damped.py holds its row of its call's layout,
zeros and all.  Its dense (d^2) x (d^2) form is built only when entries is
read.

The gates and the measures are written once, for a stack of matrices that
share one _Layout, the grid positions of their entries: a held state, and a
plain matrix read as its occupied entries, is the stack of one, the chunks
of a damped call and every state drawn from it share one layout, and a
plain stack (the RK4 oracle's samples in a comparison) is read on the union
of its occupied positions (_support).  The eigenproblems are solved sector
by sector (_spectra).  The coupler conserves n_a + n_b and loss keeps
coherence offsets, so a Fock or NOON input stays block-diagonal in n_a + n_b
and its partial transpose in n_a - n_b; for the two-mode squeezed vacuum the
roles swap.  A matrix then takes at most d eigvalsh calls (d = cutoff + 1),
of sizes 1 to d, at a cost of the sum of n^3 over its occupied sectors
instead of d^6.  A layout block-diagonal in neither labelling, such as a
squeezed state after the coupler, is solved densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9  # eigenvalues above this are treated as rounding noise

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


def _grid_side(cutoff: int) -> int:
    """cutoff + 1, the number of photon numbers per mode on the grid."""
    if cutoff < 0:
        raise ValidationError("cutoff must be non-negative")
    return cutoff + 1


@dataclass(frozen=True, eq=False)
class TwoModePureState:
    """Normalized two-mode pure state; amplitudes[n_a, n_b] on the grid.
    States compare and hash by identity."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        d = _grid_side(self.cutoff)
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


class _Occupied(NamedTuple):
    """A matrix's entries, or a stack's one row each, on their _Layout."""

    values: np.ndarray
    layout: _Layout


@dataclass(frozen=True, eq=False)
class TwoModeDensityMatrix:
    """Validated density matrix on the two-mode grid (Hermitian, unit trace, PSD).

    It holds its occupied entries alone (see the module docstring): a dense
    argument is scanned for them and not kept, so the caller's array can
    change without changing the state.  entries is built from them on first
    read, read-only, and kept.  States compare and hash by identity, and repr
    reads only the occupied entries."""

    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        d = _grid_side(self.cutoff)
        occupied = self.entries
        if not isinstance(occupied, _Occupied):
            ent = np.asarray(occupied, dtype=complex)
            if ent.shape != (d * d, d * d):
                raise ValidationError(f"entries must have shape {(d*d, d*d)}, got {ent.shape}")
            occupied = _support(ent, d)
        object.__delattr__(self, "entries")  # built by __getattr__ when read
        object.__setattr__(self, "_occupied", occupied)
        _checked(*_as_stack(self))

    def __getattr__(self, name):
        # entries is missing until its first read, which builds and keeps it
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ent = _grid_matrices(*self._occupied)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)
        return ent

    def __repr__(self) -> str:
        return (f"TwoModeDensityMatrix(cutoff={self.cutoff}, "
                f"occupied={self._occupied.values.size})")

    @classmethod
    def from_pure(cls, state: TwoModePureState) -> "TwoModeDensityMatrix":
        return cls(state.cutoff, _pure_support(state.flat(), state.cutoff + 1))


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
    """Hermitian eigenvalues of a matrix or a stack, with failure diagnostics.
    A matrix whose imaginary part is below 1e-14 takes the real solve, decided
    per matrix, so its eigenvalues do not depend on the stack it is in (each
    matrix of a stack is solved alone).  A stack that mixes the two is solved
    as complex, and its real matrices again as real."""
    try:
        real = np.abs(mat.imag).max(axis=(-2, -1), initial=0.0) < 1e-14
        count = np.count_nonzero(real)
        evals = np.linalg.eigvalsh(mat.real if count == real.size else mat)
        if 0 < count < real.size:
            evals[real] = np.linalg.eigvalsh(mat[real].real)
        return evals
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(
            f"eigensolver failed on {mat.shape} matrix "
            f"(norm {np.linalg.norm(mat):.3e}, "
            f"herm residual {np.abs(mat - np.swapaxes(mat, -1, -2).conj()).max():.3e}): {exc}"
        ) from exc


def _sector_tables(rows: np.ndarray, cols: np.ndarray, d: int, sign: int,
                   transposed: bool) -> list | None:
    """Where the occupied sector blocks of n_a + sign * n_b (sign +1 or -1)
    read a grid matrix given as its entries at grid rows and cols, or None
    when an entry couples two sectors: per block size n, in increasing n, a
    (sectors, n, n) table of entry indices, sectors in increasing order and
    members by n_a.  A sector is occupied when an entry touches it; a slot
    no entry fills holds rows.size, for a 0 padded after the entries.
    transposed gives the blocks of PT((a, b), (a', b')) = rho((a, b'), (a', b)).
    Sector s holds n_a + sign * n_b = s, less d - 1 for sign -1: its
    min(s + 1, 2d - 1 - s) members start at n_a = max(0, s - d + 1)."""
    na, nb = np.divmod(rows, d)
    ma, mb = np.divmod(cols, d)
    if transposed:
        nb, mb = mb, nb
    shift = d - 1 if sign < 0 else 0
    sector = na + sign * nb + shift
    if not np.array_equal(sector, ma + sign * mb + shift):
        return None
    occupied = np.zeros(2 * d - 1, dtype=bool)
    occupied[sector] = True
    # size n holds sectors n - 1 and 2d - 1 - n: the occupied ones by size, then sector
    order = np.column_stack((np.arange(d), np.arange(2 * d - 2, d - 2, -1))).ravel()[:-1]
    picked = order[occupied[order]]
    edge = np.minimum(np.arange(1, 2 * d), np.arange(2 * d - 1, 0, -1))
    sizes = edge[picked]
    start = np.zeros(2 * d - 1, dtype=int)
    start[picked] = np.cumsum(sizes * sizes) - sizes * sizes
    first = np.maximum(0, sector - d + 1)
    flat = np.full(int((sizes * sizes).sum()), rows.size)
    flat[start[sector] + (na - first) * edge[sector] + ma - first] = np.arange(rows.size)
    counts = np.bincount(sizes, minlength=d + 1)
    groups = np.split(flat, np.cumsum(counts * np.arange(d + 1) ** 2)[:-1])
    return [g.reshape(-1, n, n) for n, g in enumerate(groups) if g.size]


def _support(ent: np.ndarray, d: int) -> _Occupied:
    """The occupied entries of a dense grid matrix, or of a stack (..., d^2,
    d^2): each one's values where any matrix is nonzero, on that layout,
    row-major."""
    stack = ent.reshape(-1, d ** 4)
    flat = np.flatnonzero((stack != 0).any(axis=0))
    values = stack[:, flat].reshape(ent.shape[:-2] + flat.shape)
    return _Occupied(values, _Layout(d, *np.divmod(flat, d * d)))


def _pure_support(psi: np.ndarray, d: int) -> _Occupied:
    """_support of np.outer(psi, psi.conj()), from the products of the
    nonzero amplitudes alone; a product that underflows to 0 is left out."""
    occupied = np.flatnonzero(psi)
    products = np.outer(psi[occupied], psi[occupied].conj()).reshape(-1)
    keep = np.flatnonzero(products)
    rows, cols = np.divmod(keep, occupied.size)
    return _Occupied(products[keep], _Layout(d, occupied[rows], occupied[cols]))


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where a stack of grid matrices that share their occupied positions
    holds its entries, one row of values per matrix: each entry's grid row
    and column.  A held state is a stack of one; a damped call's chunks and
    drawn states share one (damped._SectorTerms).  The rest is found on
    first read, once per layout."""

    d: int
    rows: np.ndarray
    cols: np.ndarray

    @cached_property
    def partner(self) -> np.ndarray:
        """Index of the entry at each entry's transposed grid position, or
        rows.size (a 0 padded after the entries) where none is."""
        d2 = self.d * self.d
        flat, want = self.rows * d2 + self.cols, self.cols * d2 + self.rows
        order = np.argsort(flat, kind="stable")
        found = np.append(order, flat.size)[np.searchsorted(flat, want, sorter=order)]
        found[np.append(flat, -1)[found] != want] = flat.size
        return found

    @cached_property
    def diag(self) -> np.ndarray:
        return np.flatnonzero(self.rows == self.cols)

    def _tables(self, transposed: bool) -> list | None:
        # _sector_tables in n_a + n_b, else in n_a - n_b (the partial
        # transpose in the other labelling); None when neither holds
        found = (_sector_tables(self.rows, self.cols, self.d, -sign if transposed else sign,
                                transposed) for sign in (1, -1))
        return next((tables for tables in found if tables is not None), None)

    blocks = cached_property(lambda self: self._tables(False))
    transposed = cached_property(lambda self: self._tables(True))

    @cached_property
    def gathered(self) -> int:
        """Complex entries _measures builds per matrix: a padded copy, the
        blocks of it and of its partial transpose (or two dense matrices
        each), a reduced state and _entropies' residual of it."""
        return self.rows.size + 1 + 2 * self.d ** 2 + sum(
            2 * self.d ** 4 if t is None else sum(b.size for b in t)
            for t in (self.blocks, self.transposed))


def _as_stack(rho) -> tuple[np.ndarray, _Layout]:
    """rho's occupied entries, held or a plain matrix's _support, as a stack
    of one, and their layout."""
    values, layout = (rho._occupied if isinstance(rho, TwoModeDensityMatrix)
                      else _support(*_as_entries(rho)))
    return values[None], layout


def _grid_matrices(values: np.ndarray, layout: _Layout) -> np.ndarray:
    """Dense grid matrices holding values (..., entries) on layout."""
    d2 = layout.d ** 2
    try:
        out = np.zeros(values.shape[:-1] + (d2, d2), dtype=complex)
    except MemoryError:
        raise NumericalError(f"the cutoff-{layout.d - 1} density matrix ({d2}^2 "
                             "complex entries) does not fit in memory") from None
    out[..., layout.rows, layout.cols] = values
    return out


def _padded(values: np.ndarray) -> np.ndarray:
    """A stack (count, entries) with one 0 entry appended to each row."""
    return np.concatenate((values, np.zeros((values.shape[0], 1))), axis=1)


def _spectra(values: np.ndarray, layout: _Layout, transposed: bool = False) -> np.ndarray:
    """Eigenvalues of each matrix of a stack (count, entries) on layout, or
    of its partial transpose, one row each, in no global order.  With tables,
    the occupied sector blocks of one size share one eigvalsh call and none
    is padded; a sector no entry touches is all zero, and its eigenvalues,
    all 0, are not listed.  Without, each matrix is built on the grid (and
    transposed by partial_transpose) for one dense solve."""
    tables = layout.transposed if transposed else layout.blocks
    count = values.shape[0]
    if tables is not None:
        padded = _padded(values)
        return np.concatenate([np.zeros((count, 0))] + [
            _eigvalsh(np.take(padded, t, axis=1)).reshape(count, -1) for t in tables], axis=1)
    dense = _grid_matrices(values, layout)
    return _eigvalsh(np.array([partial_transpose(m) for m in dense]) if transposed else dense)


def _checked(values: np.ndarray, layout: _Layout) -> None:
    """The TwoModeDensityMatrix gates on each matrix of a stack (count,
    entries) on layout: Hermiticity against each entry's transposed partner,
    unit trace and the eigenvalue floor, with _checked_spectra's errors."""
    partner = _padded(values)[:, layout.partner]
    _checked_spectra(np.abs(values - partner.conj()).max(axis=1, initial=0.0),
                     _ordered_sum(values[:, layout.diag]),
                     lambda count: _spectra(values[:count], layout))


def make_pure_state(spec: StateSpec, cutoff: int) -> TwoModePureState:
    """Build a named pure state on the grid.

    Supported kinds: fock (one basis vector) and noon ((|N,0> + |0,N>)/sqrt(2)).
    Raises CapacityError when the requested photon content exceeds the cutoff.
    """
    if not isinstance(spec, StateSpec):
        raise ValidationError("make_pure_state expects a StateSpec")
    d = _grid_side(cutoff)
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
    d = _grid_side(cutoff)
    grid = np.zeros((d, d), dtype=complex)
    if isinstance(amps, dict):
        for (na, nb), v in amps.items():
            if not (0 <= na <= cutoff and 0 <= nb <= cutoff):
                raise ValidationError(f"amplitude key {(na, nb)} lies outside the "
                                      f"cutoff-{cutoff} grid")
            grid[na, nb] = v
    else:
        if np.shape(amps) != (d, d):  # numpy would broadcast a row or scalar over the grid
            raise ValidationError(f"amplitudes must have shape {(d, d)}, got {np.shape(amps)}")
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
    values, layout = _as_stack(rho)
    value = _log_negativities(_spectra(values, layout, True))[0]
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


def _reduced_states(values: np.ndarray, layout: _Layout, keep: str = "a") -> np.ndarray:
    """The reduced state of mode keep of each matrix of a stack (count,
    entries) on layout, (count, d, d): each entry summed over the traced
    photon number in layout order, which on a row-major layout (_support)
    and on a damped one is increasing."""
    d = layout.d
    (na, nb), (ma, mb) = np.divmod(layout.rows, d), np.divmod(layout.cols, d)
    if keep == "b":
        na, nb, ma, mb = nb, na, mb, ma
    traced = np.flatnonzero(nb == mb)
    count = values.shape[0]
    sigma = np.zeros(count * d * d, dtype=complex)
    np.add.at(sigma, np.arange(0, sigma.size, d * d)[:, None] + (na * d + ma)[traced],
              values[:, traced])
    return sigma.reshape(count, d, d)


def reduced_state(rho, keep: str = "a") -> np.ndarray:
    """Partial trace down to one mode; returns a (cutoff+1)^2-free dxd matrix,
    traced over rho's occupied entries (_reduced_states)."""
    if keep not in ("a", "b"):
        raise ValidationError(f"keep must be 'a' or 'b', got {keep!r}")
    return _reduced_states(*_as_stack(rho), keep)[0]


def _entropy_bits(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) over the last axis of non-negative weights,
    0 log 0 = 0, and +0.0 where the terms sum to -0.0."""
    logs = np.log2(weights, out=np.zeros(weights.shape), where=weights > 0.0)
    return _ordered_sum(-weights * logs) + 0.0


def entropy_bits(probabilities: Iterable[float]) -> float:
    """Shannon entropy (base 2) of a set of probabilities, each in [0, 1];
    0 log 0 = 0.  Any other weight, NaN included, raises ValidationError."""
    weights = np.asarray(list(probabilities), dtype=float)
    bad = [w for w in weights.ravel().tolist() if not 0.0 <= w <= 1.0]
    if bad:
        raise ValidationError(f"probabilities must lie in [0, 1], got {bad[0]}")
    return float(_entropy_bits(weights))


def _entropies(sigmas: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack of single-mode density matrices
    (count, n, n).  Each must be Hermitian within HERM_TOL, of unit trace
    within TRACE_TOL and without an eigenvalue below EIG_FLOOR, or
    ValidationError is raised as _checked_spectra does; eigenvalues above
    the floor are clamped into [0, 1]."""
    herm = np.abs(sigmas - sigmas.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    evals = _checked_spectra(herm, np.trace(sigmas, axis1=-2, axis2=-1),
                             lambda count: _eigvalsh(sigmas[:count]))
    return _entropy_bits(np.clip(evals, 0.0, 1.0))


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


def _purities(values: np.ndarray, layout: _Layout) -> np.ndarray:
    """Tr(rho^2) = sum_ij rho_ij rho_ji of each matrix of a stack (count,
    entries) on layout, summed in layout order, through the purity gate."""
    products = values * _padded(values)[:, layout.partner]
    return _gated("purity", _ordered_sum(products.real))


def purity(rho) -> MeasureValue:
    """Tr(rho^2) = sum_ij rho_ij rho_ji as a real number in (0, 1], over
    rho's occupied entries (_purities)."""
    return MeasureValue("purity", float(_purities(*_as_stack(rho))[0]))


def _measure_columns(values: np.ndarray, layout: _Layout) -> tuple:
    """E_N, the entropy S of mode a and the purity of each matrix of a stack
    (count, entries) on layout, through the measure gates alone."""
    return (_log_negativities(_spectra(values, layout, True)),
            _entropies(_reduced_states(values, layout)), _purities(values, layout))


def _measures(values: np.ndarray, layout: _Layout) -> tuple:
    """_measure_columns once every matrix has passed _checked's gates."""
    _checked(values, layout)
    return _measure_columns(values, layout)
