"""Core grid, partial transpose, and measure tests.

Reference values used here were worked out by hand on tiny grids (cutoff 1 or 2)
before the module was written: the Bell-pair partial-transpose spectrum
{1/2, 1/2, 1/2, -1/2}, the Werner-family negativity (p > 1/3 threshold), and the
Schmidt-coefficient shortcut for pure-state log-negativity.
"""

import math
import tracemalloc

import numpy as np
import pytest

from coupledwg.damped import DampedParams, evolve_damped_exact
from coupledwg.errors import CapacityError, NumericalError, ValidationError
from coupledwg import fock
from coupledwg.fock import (
    MeasureValue,
    StateSpec,
    TwoModeDensityMatrix,
    TwoModePureState,
    entropy_bits,
    fock_state,
    log_negativity,
    make_pure_state,
    noon_state,
    partial_transpose,
    pure_log_negativity,
    purity,
    reduced_state,
    state_from_amplitudes,
    von_neumann_entropy,
)
from coupledwg.gaussian import two_mode_squeezed_state
from coupledwg.lossless import CouplerParams, entropy_closed, lossless_unitary
from coupledwg.thermal import ThermalOccupation, thermal_entropy


def _negativity(rho):
    # sum of |negative eigenvalues| of the dense partial transpose
    evals = np.linalg.eigvalsh(partial_transpose(rho))
    return float(-evals[evals < 0.0].sum())


def bell_state():
    return noon_state(1, cutoff=1)


def random_pure(rng, cutoff):
    d = cutoff + 1
    grid = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return state_from_amplitudes(grid, cutoff)


def random_mixed(rng, cutoff, rank=3):
    d = cutoff + 1
    a = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))
    m = a @ a.conj().T
    return TwoModeDensityMatrix(cutoff, m / m.trace())


# ---------------------------------------------------------------- grid layout


def test_fock_state_places_single_amplitude():
    st = fock_state(1, 2, cutoff=4)
    assert st.amplitudes[1, 2] == 1.0
    assert np.count_nonzero(st.amplitudes) == 1
    assert st.flat().shape == (25,)


def test_capacity_rule_on_constructors():
    with pytest.raises(CapacityError):
        fock_state(2, 1, cutoff=2)
    with pytest.raises(CapacityError):
        noon_state(3, cutoff=2)
    # exactly at capacity is fine
    fock_state(2, 1, cutoff=3)
    noon_state(3, cutoff=3)


def test_state_spec_photons_needed():
    assert StateSpec("fock", (2, 3)).photons_needed() == 5
    assert StateSpec("noon", (4,)).photons_needed() == 4
    assert StateSpec("tmsv", (0.25,)).photons_needed() == 0


def test_make_pure_state_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        make_pure_state(StateSpec("thermal", (1.0, 1.0)), cutoff=3)


def test_raw_amplitudes_may_exceed_capacity():
    # squeezed-vacuum-like support on the whole diagonal is allowed here
    st = state_from_amplitudes({(0, 0): 1.0, (3, 3): 0.5}, cutoff=3)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


def test_raw_amplitudes_off_the_grid_are_refused():
    # numpy would put (-1, 0) on |2, 0> and raise a bare IndexError for (5, 5)
    for key in ((-1, 0), (0, -1), (5, 5), (3, 0), (0, 3)):
        with pytest.raises(ValidationError, match=rf"amplitude key \({key[0]}, {key[1]}\)"):
            state_from_amplitudes({(0, 0): 1.0, key: 1.0}, cutoff=2)
    st = state_from_amplitudes({(2, 0): 1.0, (0, 2): 1.0}, cutoff=2)
    assert st.amplitudes[2, 0] == st.amplitudes[0, 2]
    # an array off the grid's shape: numpy would copy a row into every row,
    # or a scalar over the whole grid
    for amps in (np.ones(3), np.array(1.0), np.ones((3, 4)), np.ones((2, 2)), np.ones((3, 3, 1))):
        with pytest.raises(ValidationError, match=r"amplitudes must have shape \(3, 3\)"):
            state_from_amplitudes(amps, cutoff=2)


# ---------------------------------------------------------------- validation


def test_pure_state_norm_enforced():
    grid = np.zeros((2, 2), dtype=complex)
    grid[0, 0] = 0.9
    with pytest.raises(ValidationError):
        TwoModePureState(1, grid)


def test_density_matrix_must_be_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    with pytest.raises(ValidationError):
        TwoModeDensityMatrix(1, m)
    # past the first slice of rows the check reads
    big = np.eye(17 * 17, dtype=complex) / 17 ** 2
    big[280, 270] = 1e-9
    with pytest.raises(ValidationError, match="Hermiticity"):
        TwoModeDensityMatrix(16, big)
    # in an off-diagonal block pair
    big[280, 270] = 0.0
    big[280, 10] = 1e-9
    with pytest.raises(ValidationError, match="Hermiticity"):
        TwoModeDensityMatrix(16, big)


def test_pure_state_rejects_nan():
    grid = np.zeros((2, 2), dtype=complex)
    grid[0, 0] = 1.0
    grid[1, 1] = np.nan
    with pytest.raises(ValidationError):
        TwoModePureState(1, grid)


def test_density_matrix_rejects_nan_on_the_diagonal():
    m = np.eye(4, dtype=complex) / 4
    m[3, 3] = np.nan
    with pytest.raises(ValidationError):
        TwoModeDensityMatrix(1, m)


def test_density_matrix_rejects_nan_in_an_off_diagonal_pair():
    # in a later block pair, behind a finite residual from the first
    big = np.eye(17 * 17, dtype=complex) / 17 ** 2
    big[280, 10] = big[10, 280] = np.nan
    with pytest.raises(ValidationError):
        TwoModeDensityMatrix(16, big)


def test_density_matrix_entries_cannot_change_behind_its_back():
    m = np.eye(4, dtype=complex) / 4
    rho = TwoModeDensityMatrix(1, m)
    m[0, 0] = 7.0
    assert rho.entries[0, 0] == 0.25
    # a read-only view of writeable memory is copied as well
    m[0, 0] = 0.25
    view = m[:]
    view.setflags(write=False)
    rho = TwoModeDensityMatrix(1, view)
    m[0, 0] = 7.0
    assert rho.entries[0, 0] == 0.25
    # a read-only array is not kept either: entries is rebuilt from the
    # occupied entries, with the same values
    sealed = np.eye(4, dtype=complex) / 4
    sealed.setflags(write=False)
    entries = TwoModeDensityMatrix(1, sealed).entries
    assert entries is not sealed and np.array_equal(entries, sealed)


def test_dense_argument_is_not_kept():
    # a dense argument is scanned for its occupied entries and dropped; it
    # was kept whole beside them, 14.1 MiB for NOON-2 at cutoff 30
    psi = noon_state(2, 30).flat()
    dense = np.outer(psi, psi.conj())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rho = TwoModeDensityMatrix(30, dense)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20
    assert "entries" not in vars(rho)
    assert np.array_equal(rho.entries, dense) and not rho.entries.flags.writeable


def test_constructors_name_what_they_refuse():
    refused = (
        (lambda: TwoModePureState(1, np.ones(3)),
         r"amplitudes must have shape \(2, 2\), got \(3,\)"),
        (lambda: TwoModeDensityMatrix(1, np.eye(3)),
         r"entries must have shape \(4, 4\), got \(3, 3\)"),
        (lambda: make_pure_state("fock:1,0", 2), "make_pure_state expects a StateSpec"),
        (lambda: make_pure_state(StateSpec("fock", (-1, 1)), 2),
         "photon numbers must be non-negative"),
        (lambda: noon_state(0, 2), "noon photon number must be >= 1"),
        (lambda: state_from_amplitudes(np.zeros((2, 2)), 1), "cannot normalize the zero vector"),
        (lambda: partial_transpose(np.ones((4, 2))),
         r"matrix of shape \(4, 2\) is not a two-mode grid operator"),
    )
    for build, message in refused:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()


def test_dense_form_that_does_not_fit_is_a_numerical_error():
    # one vacuum entry at cutoff 9999 validates; its dense form would take
    # 1.6e17 bytes, which numpy refuses before allocating any
    layout = fock._Layout(10 ** 4, np.zeros(1, dtype=int), np.zeros(1, dtype=int))
    rho = TwoModeDensityMatrix(9999, fock._Occupied(np.ones(1, dtype=complex), layout))
    with pytest.raises(NumericalError, match=r"^the cutoff-9999 density matrix "
                       r"\(100000000\^2 complex entries\) does not fit in memory$"):
        rho.entries


def test_from_pure_holds_one_matrix():
    state = two_mode_squeezed_state(0.8, 40)
    tracemalloc.start()
    try:
        rho = TwoModeDensityMatrix.from_pure(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rho.entries.nbytes


def test_density_matrix_refuses_a_negative_cutoff():
    # numpy met it as "zero-size array to reduction operation" or "negative
    # dimensions are not allowed", and lossless_unitary returned a (0, 0) array
    for build in (lambda: TwoModeDensityMatrix(-1, np.zeros((0, 0))),
                  lambda: state_from_amplitudes({(0, 0): 1.0}, -2),
                  lambda: state_from_amplitudes(np.zeros((0, 0)), -1),
                  lambda: two_mode_squeezed_state(0.5, -2),
                  lambda: lossless_unitary(-1, CouplerParams(0.0, 1.0), 0.5),
                  # these once raised CapacityError("fock(0,0) needs cutoff >= 0, got -1")
                  lambda: fock_state(0, 0, -1),
                  lambda: noon_state(1, -1),
                  lambda: make_pure_state(StateSpec("fock", (0, 0)), -1)):
        with pytest.raises(ValidationError, match="cutoff must be non-negative"):
            build()


def test_states_compare_by_identity_and_repr_reads_no_dense_matrix():
    # the generated __eq__ compared arrays (numpy's "ambiguous truth value"
    # ValueError), states did not hash, and repr built the dense entries
    rho = TwoModeDensityMatrix.from_pure(noon_state(40, 40))
    assert repr(rho) == "TwoModeDensityMatrix(cutoff=40, occupied=4)"
    assert "entries" not in vars(rho)
    twin = TwoModeDensityMatrix.from_pure(noon_state(40, 40))
    assert rho == rho and rho != twin and len({rho, twin, rho}) == 2
    state = noon_state(2, 2)
    assert state == state and state != noon_state(2, 2) and len({state}) == 1


def test_density_matrix_must_have_unit_trace():
    with pytest.raises(ValidationError):
        TwoModeDensityMatrix(1, np.eye(4, dtype=complex))


def test_density_matrix_must_be_positive():
    m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        TwoModeDensityMatrix(1, m)


def test_tiny_negative_eigenvalues_are_tolerated():
    eps = 4e-10
    m = np.diag([1.0 + eps, -eps, 0.0, 0.0]).astype(complex)
    rho = TwoModeDensityMatrix(1, m)
    assert float(purity(rho)) <= 1.0


def test_entropy_clamps_rounding_noise_but_rejects_real_negativity():
    sigma = np.diag([1.0 + 5e-10, -5e-10])
    s = von_neumann_entropy(sigma)
    assert float(s) < 1e-7
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_entropy_refuses_what_is_not_a_single_mode_density_matrix():
    for sigma, message in (([[0.5, 0.9], [0.0, 0.5]], "Hermiticity"),
                           (np.diag([2.0, 0.0]), "trace"),
                           (np.diag([0.6, 0.5]), "trace"),
                           (np.ones(3) / 3, "square"),
                           (np.zeros((0, 0)), "square"),
                           (np.eye(2)[None] / 2, "square")):
        with pytest.raises(ValidationError, match=message):
            von_neumann_entropy(np.asarray(sigma))


def test_measure_gate_on_arrays():
    values = np.array([0.3, -5e-10, 1.0 + 5e-10, 1.0])
    assert np.array_equal(fock._gated("purity", values),
                          [float(MeasureValue("purity", v)) for v in values])
    with pytest.raises(ValidationError, match="entropy must be >= 0, got -0.2"):
        fock._gated("entropy", np.array([0.1, -0.2, np.nan]))
    with pytest.raises(ValidationError, match="purity must lie in"):
        fock._gated("purity", np.array([0.5, np.nan]))


def test_measure_value_guards():
    assert float(MeasureValue("entropy", 0.5)) == 0.5
    with pytest.raises(ValidationError):
        MeasureValue("weirdness", 1.0)
    with pytest.raises(ValidationError):
        MeasureValue("purity", 1.5)
    with pytest.raises(ValidationError):
        MeasureValue("log_negativity", -0.2)
    # rounding noise is forgiven and clamped
    assert float(MeasureValue("log_negativity", -1e-12)) == 0.0


# ------------------------------------------------------- partial transposition


def test_bell_partial_transpose_spectrum():
    rho = TwoModeDensityMatrix.from_pure(bell_state())
    evals = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))
    assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(_negativity(rho) - 0.5) < 1e-12
    assert abs(float(log_negativity(rho)) - 1.0) < 1e-12


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(7)
    rho = random_mixed(rng, cutoff=3)
    once = partial_transpose(rho)
    twice = partial_transpose(once)
    assert np.array_equal(twice, rho.entries)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    rho = random_mixed(rng, cutoff=2)
    pt = partial_transpose(rho)
    assert abs(pt.trace() - 1.0) < 1e-12
    assert np.abs(pt - pt.conj().T).max() < 1e-12


def test_product_state_has_zero_negativity():
    rho = TwoModeDensityMatrix.from_pure(fock_state(1, 1, cutoff=2))
    assert _negativity(rho) == 0.0
    assert float(log_negativity(rho)) == 0.0


def test_werner_family_negativity_threshold():
    bell = TwoModeDensityMatrix.from_pure(bell_state()).entries
    for p, expected in [(0.5, 0.125), (0.25, 0.0)]:
        rho = TwoModeDensityMatrix(1, p * bell + (1 - p) * np.eye(4) / 4)
        assert abs(_negativity(rho) - expected) < 1e-12
    # E_N at p = 1/2: log2(1 + 1/4)
    rho = TwoModeDensityMatrix(1, 0.5 * bell + 0.5 * np.eye(4) / 4)
    assert abs(float(log_negativity(rho)) - math.log2(1.25)) < 1e-12


# ------------------------------------------------------------------- measures


def test_noon2_measures():
    st = noon_state(2, cutoff=2)
    rho = TwoModeDensityMatrix.from_pure(st)
    assert abs(float(log_negativity(rho)) - 1.0) < 1e-12
    assert abs(float(von_neumann_entropy(reduced_state(rho, "a"))) - 1.0) < 1e-12
    assert abs(float(purity(rho)) - 1.0) < 1e-12
    red = reduced_state(rho, "a")
    assert abs(np.trace(red @ red).real - 0.5) < 1e-12


def test_asymmetric_schmidt_values():
    # amplitudes sqrt(0.8)|0,0> + sqrt(0.2)|1,1>: E_N = log2(9/5), S = H2(0.8)
    st = state_from_amplitudes(
        {(0, 0): math.sqrt(0.8), (1, 1): math.sqrt(0.2)}, cutoff=1
    )
    rho = TwoModeDensityMatrix.from_pure(st)
    assert abs(float(log_negativity(rho)) - math.log2(1.8)) < 1e-12
    expected_entropy = 0.7219280948873623
    assert abs(float(von_neumann_entropy(reduced_state(rho, "a"))) - expected_entropy) < 1e-12


def test_reduced_state_of_bell_is_maximally_mixed():
    rho = TwoModeDensityMatrix.from_pure(bell_state())
    for keep in ("a", "b"):
        red = reduced_state(rho, keep)
        assert np.allclose(red, np.eye(2) / 2, atol=1e-14)
    with pytest.raises(ValidationError):
        reduced_state(rho, "c")


def test_entropy_bits_conventions():
    assert entropy_bits([1.0]) == 0.0
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([0.5, 0.5, 0.0]) == 1.0
    assert abs(entropy_bits([0.25] * 4) - 2.0) < 1e-15
    # weights that are no probabilities gave -2.0, -0.877, nan and -inf
    for weights in ([2.0], [-0.5, 1.5], [math.nan], [math.inf], [0.5, -1e-300]):
        with pytest.raises(ValidationError, match=r"probabilities must lie in \[0, 1\]"):
            entropy_bits(weights)


def test_pure_shortcut_matches_partial_transpose():
    rng = np.random.default_rng(2024)
    for cutoff in (1, 2, 4):
        for _ in range(20):
            st = random_pure(rng, cutoff)
            rho = TwoModeDensityMatrix.from_pure(st)
            a = float(pure_log_negativity(st))
            b = float(log_negativity(rho))
            assert abs(a - b) < 1e-10


def test_reduced_entropies_agree_for_pure_states():
    rng = np.random.default_rng(99)
    for _ in range(25):
        st = random_pure(rng, cutoff=3)
        rho = TwoModeDensityMatrix.from_pure(st)
        sa = float(von_neumann_entropy(reduced_state(rho, "a")))
        sb = float(von_neumann_entropy(reduced_state(rho, "b")))
        assert abs(sa - sb) < 1e-10
        assert abs(float(purity(rho)) - 1.0) < 1e-10


def test_mixed_state_purity_below_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_mixed(rng, cutoff=2, rank=4)
        p = float(purity(rho))
        assert 0.0 < p < 1.0 - 1e-6


def test_amplitudes_are_read_only():
    st = bell_state()
    with pytest.raises(ValueError):
        st.amplitudes[0, 0] = 1.0
    rho = TwoModeDensityMatrix.from_pure(st)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0


# ----------------------------------------------------- sector-wise eigensolves
# Fock and NOON states stay block-diagonal in n_a + n_b under the coupler and
# loss, the TMSV is block-diagonal in n_a - n_b, and the partial transpose
# swaps the two labellings.  The sector path must reproduce the dense solve.


@pytest.fixture
def solved_widths(monkeypatch):
    """Record the width (shape[-1]) of every numpy.linalg.eigvalsh call."""
    widths = []
    dense = np.linalg.eigvalsh

    def recorder(mat, *args, **kwargs):
        widths.append(mat.shape[-1])
        return dense(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorder)
    return widths


def _damped_outputs():
    for state in (noon_state(3, 3), noon_state(2, 4), fock_state(2, 1, 3), fock_state(1, 1, 2)):
        rho = TwoModeDensityMatrix.from_pure(state)
        for coupling in (0.5, 2.0):
            for gamma in (0.0, 0.05, 0.5):
                for t in (0.3, 1.7, 6.0):
                    yield evolve_damped_exact(rho, DampedParams(0.2, coupling, gamma), t)


def _tmsv(r, cutoff):
    return TwoModeDensityMatrix.from_pure(two_mode_squeezed_state(r, cutoff))


def _tmsv_after_coupler():
    amps = {(n, n): math.tanh(0.5) ** n for n in range(4)}
    rho = TwoModeDensityMatrix.from_pure(state_from_amplitudes(amps, 6))
    return evolve_damped_exact(rho, DampedParams(0.0, 1.0, 0.05), math.pi / 4)


def _with_off_sector_coherence():
    rho = TwoModeDensityMatrix.from_pure(noon_state(2, 3))
    ent = evolve_damped_exact(rho, DampedParams(0.0, 0.7, 0.05), 1.1).entries.copy()
    ent[1, 5] = ent[5, 1] = 1e-300  # couples |0,1> to |1,1>, across both labellings
    return TwoModeDensityMatrix(3, ent)


def _with_zeros(evals, size):
    # the eigenvalues 0 of the all-zero sectors a sector solve leaves out
    return np.sort(np.concatenate((evals, np.zeros(size - evals.size))))


def _spectrum(rho, transposed=False):
    # the eigenvalues of rho or of its partial transpose, as a stack of one
    return fock._spectra(*fock._as_stack(rho), transposed)[0]


def _assert_matches_dense(rho):
    d = rho.cutoff + 1
    ent = rho.entries
    own = _with_zeros(_spectrum(ent), d * d)
    assert np.abs(own - np.linalg.eigvalsh(ent)).max() <= 1e-12
    dense_pt = np.linalg.eigvalsh(partial_transpose(ent))
    pt = _with_zeros(_spectrum(ent, transposed=True), d * d)
    assert np.abs(pt - dense_pt).max() <= 1e-12
    assert abs(fock._negativities(pt[None])[0] - _negativity(rho)) <= 1e-12


def _stacked_spectra(ents, d, sign, transposed):
    # one solve for a stack of states, over the sectors any of them occupies,
    # whose layout takes the sector tables of the given labelling
    flat = np.flatnonzero(np.any([ent != 0 for ent in ents], axis=0))
    layout = fock._Layout(d, *np.divmod(flat, d * d))
    tables = fock._sector_tables(layout.rows, layout.cols, d, sign, transposed)
    taken = layout.transposed if transposed else layout.blocks
    assert [t.tobytes() for t in taken] == [t.tobytes() for t in tables]
    return fock._spectra(np.stack([ent.reshape(-1)[flat] for ent in ents]), layout, transposed)


@pytest.mark.parametrize("kind", ["sum", "difference", "fallback"])
def test_sector_spectrum_matches_dense_solve(kind, solved_widths):
    if kind == "sum":
        states = list(_damped_outputs())
    elif kind == "difference":
        states = [_tmsv(r, c) for c in (4, 7, 12, 20) for r in (0.3, 1.0)]
    else:
        states = [_tmsv_after_coupler(), _with_off_sector_coherence()]
    for rho in states:
        d = rho.cutoff + 1
        solved_widths.clear()
        _assert_matches_dense(rho)
        if kind == "fallback":
            assert set(solved_widths) == {d * d}
        else:  # only the dense references are d^2 wide
            assert max(w for w in solved_widths if w != d * d) <= d
    if kind == "fallback":
        return
    sign = 1 if kind == "sum" else -1
    for cutoff in {rho.cutoff for rho in states}:
        stack = [rho.entries for rho in states if rho.cutoff == cutoff]
        d = cutoff + 1
        for transposed in (False, True):
            rows = _stacked_spectra(stack, d, -sign if transposed else sign, transposed)
            assert rows.shape[0] == len(stack) > 1
            for ent, row in zip(stack, rows):
                dense = np.linalg.eigvalsh(partial_transpose(ent) if transposed else ent)
                assert np.abs(_with_zeros(row, d * d) - dense).max() <= 1e-12


def _four_index_tables(rows, cols, d, sign, transposed):
    # the brute-force referee of fock._sector_tables: every sector of the
    # grid padded to d slots and read from the (d, d, d, d) view of a matrix
    # that holds k + 1 at entry k's grid position
    marks = np.zeros((d * d, d * d), dtype=int)
    marks[rows, cols] = np.arange(1, rows.size + 1)
    sector = np.arange(2 * d - 1)[:, None]
    a = np.maximum(0, sector - d + 1) + np.arange(d)
    b = sector - a if sign > 0 else a - sector + d - 1
    valid = (a < d) & (b >= 0) & (b < d)
    a, b = np.where(valid, a, 0), np.where(valid, b, 0)
    row_b, col_b = b[:, :, None], b[:, None, :]
    if transposed:
        row_b, col_b = col_b, row_b
    grid = marks.reshape(d, d, d, d)[a[:, :, None], row_b, a[:, None, :], col_b]
    blocks = np.where(valid[:, :, None] & valid[:, None, :], grid, 0)
    if np.count_nonzero(blocks) != rows.size:
        return None
    sizes, occupied = valid.sum(axis=1), blocks.any(axis=(1, 2))
    groups = [blocks[occupied & (sizes == n), :n, :n] for n in range(1, d + 1)]
    return [np.where(g > 0, g - 1, rows.size) for g in groups if g.size]


def _random_supports(rng, d, sign, transposed):
    # supports block-diagonal in the labelling: some sectors, each filled at
    # random, in a shuffled entry order; then the same with one entry that
    # couples two sectors
    na, nb = np.divmod(np.arange(d * d), d)
    rows, cols = np.divmod(np.arange(d ** 4), d * d)
    row_b, col_b = (nb[cols], nb[rows]) if transposed else (nb[rows], nb[cols])
    row_sector, col_sector = na[rows] + sign * row_b, na[cols] + sign * col_b
    inside = row_sector == col_sector
    for density in (0.2, 0.6, 1.0):
        keep = rng.random(2 * d - 1) < 0.6
        picked = inside & keep[row_sector + (d - 1 if sign < 0 else 0)]
        picked &= rng.random(d ** 4) < density
        support = rng.permutation(np.flatnonzero(picked))
        yield support, True
        across = rng.choice(np.flatnonzero(~inside))
        yield rng.permutation(np.append(support, across)), False


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_sector_tables_match_four_index_gather(sign, transposed):
    rng = np.random.default_rng(5 + sign + 2 * transposed)
    corner = partial = False
    for d in range(2, 8):
        for support, blocked in _random_supports(rng, d, sign, transposed):
            rows, cols = np.divmod(support, d * d)
            got = fock._sector_tables(rows, cols, d, sign, transposed)
            want = _four_index_tables(rows, cols, d, sign, transposed)
            if not blocked:
                assert got is None and want is None
                continue
            assert [t.shape for t in got] == [t.shape for t in want]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            totals = rows // d + rows % d
            corner |= bool((totals >= d).any())
            partial |= any(bool((t == rows.size).any() & (t < rows.size).any()) for t in got)
    assert fock._sector_tables(np.zeros(0, int), np.zeros(0, int), 3, sign, transposed) == []
    assert corner and partial


def test_negative_eigenvalue_in_one_sector_is_rejected(solved_widths):
    # the one-photon sector {|0,1>, |1,0>} holds eigenvalues 1.1 and -0.1
    ent = np.zeros((9, 9))
    ent[1, 1] = ent[3, 3] = 0.5
    ent[1, 3] = ent[3, 1] = 0.6
    with pytest.raises(ValidationError, match="eigenvalue"):
        TwoModeDensityMatrix(2, ent)
    assert max(solved_widths) <= 3


def test_entropy_of_no_weights_is_zero():
    # no weights, no terms: the sum is +0.0
    value = entropy_bits([])
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_zero_entropies_are_positive_zero():
    # -w log2 w is -0.0 at w = 1; the library reports +0.0, as the CLI does
    values = (entropy_closed(2, 0.0), thermal_entropy(2, 0.0, ThermalOccupation(0, 0)),
              von_neumann_entropy(np.diag([1.0, 0.0])), entropy_bits([1.0, 0.0]))
    for value in values:
        assert math.copysign(1.0, float(value)) == 1.0


def test_purity_matches_trace_of_square():
    rng = np.random.default_rng(11)
    states = list(_damped_outputs()) + [random_mixed(rng, 3, rank=5) for _ in range(5)]
    for rho in states:
        ent = rho.entries
        assert abs(float(purity(rho)) - np.trace(ent @ ent).real) <= 1e-15


def test_purity_of_a_plain_matrix_is_the_held_states():
    # one Tr rho^2 for both: a plain matrix is read as the held state built
    # from it would hold it
    rng = np.random.default_rng(12)
    states = list(_damped_outputs()) + [random_mixed(rng, 3, rank=5) for _ in range(5)]
    for rho in states:
        ent = np.array(rho.entries)
        held = TwoModeDensityMatrix(rho.cutoff, ent)
        assert float(purity(ent)).hex() == float(purity(held)).hex()


def test_stacked_measures_match_one_matrix_calls():
    # plain matrices of one grid whose supports differ, all block-diagonal in
    # n_a + n_b: read as one stack on the union of their supports, each row
    # must give that matrix's own one-matrix measures, bit for bit
    cutoff = 4
    inputs = (fock_state(1, 0, cutoff), noon_state(2, cutoff), fock_state(2, 1, cutoff),
              fock_state(0, 4, cutoff), noon_state(4, cutoff))
    ents = [evolve_damped_exact(TwoModeDensityMatrix.from_pure(state),
                                DampedParams(0.3, 0.8, gamma), t).entries
            for state, gamma, t in zip(inputs, (0.0, 0.05, 0.2, 0.05, 0.0),
                                       (0.4, 1.3, 0.7, 2.9, 0.0))]
    supports = {np.flatnonzero(ent).tobytes() for ent in ents}
    assert len(supports) == len(ents)
    d = cutoff + 1
    values, layout = fock._support(np.array(ents), d)
    assert layout.blocks is not None and layout.transposed is not None
    columns = np.array(fock._measure_columns(values, layout))
    for ent, got in zip(ents, columns.T):
        want = (float(log_negativity(ent)), float(von_neumann_entropy(reduced_state(ent))),
                float(purity(ent)))
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


# ------------------------------------------------ pure states held as entries
# from_pure holds |psi><psi| as its occupied entries, built from the amplitude
# support, and builds the dense matrix only when entries is read or a dense
# solve needs it.  The dense route is the constructor fed np.outer.


def _pure_with_support(rng, cutoff, kind):
    # amplitudes on one n_a + n_b sector, one n_a - n_b sector, one grid point
    # (one sector of each labelling), or the whole grid (couples sectors in
    # both labellings); some amplitudes are 0, and in every other state one
    # is 1e-170, so that its square underflows and is not occupied
    d = cutoff + 1
    na, nb = np.divmod(np.arange(d * d), d)
    if kind == "sum":
        on = na + nb == rng.integers(0, 2 * d - 1)
    elif kind == "difference":
        on = na - nb == rng.integers(-cutoff, cutoff + 1)
    elif kind == "both":
        on = np.arange(d * d) == rng.integers(0, d * d)
    else:
        on = np.ones(d * d, dtype=bool)
    amps = (rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)) * on
    picked = np.flatnonzero(amps)
    amps[picked[rng.random(picked.size) < 0.3][:-1]] = 0.0
    if kind == "coupled":  # two amplitudes apart in both n_a + n_b and n_a - n_b
        amps[[0, d]] = 0.5, 0.5j
    if rng.random() < 0.5 and np.count_nonzero(amps) > 1:
        amps[np.flatnonzero(amps)[-1]] = 1e-170
    return state_from_amplitudes(amps.reshape(d, d), cutoff)


def _measured(make):
    # the state make() builds, its measures, and the shape of every eigvalsh
    # input on the way, validation included
    shapes = []
    dense = np.linalg.eigvalsh

    def recorder(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return dense(mat, *args, **kwargs)

    np.linalg.eigvalsh = recorder
    try:
        rho = make()
        measures = (float(log_negativity(rho)), reduced_state(rho, "a"),
                    reduced_state(rho, "b"), float(von_neumann_entropy(reduced_state(rho))),
                    float(purity(rho)))
    finally:
        np.linalg.eigvalsh = dense
    return rho, measures, shapes


@pytest.mark.parametrize("kind", ["sum", "difference", "both", "coupled"])
def test_from_pure_matches_the_dense_route(kind):
    # both routes hold the same occupied entries, and every measure reads
    # them: the largest differences seen over these states are 0
    rng = np.random.default_rng({"sum": 31, "difference": 32, "both": 33, "coupled": 34}[kind])
    for cutoff in range(1 if kind == "coupled" else 0, 9):
        d = cutoff + 1
        for _ in range(4):
            state = _pure_with_support(rng, cutoff, kind)
            psi = state.flat()
            held, got, shapes = _measured(lambda: TwoModeDensityMatrix.from_pure(state))
            dense, want, dense_shapes = _measured(
                lambda: TwoModeDensityMatrix(cutoff, np.outer(psi, psi.conj())))
            assert shapes == dense_shapes
            # a dense solve is d^2 wide; at cutoff 0 so is the entropy's
            assert (d > 1 and (1, d * d, d * d) in shapes) == (kind == "coupled")
            assert "entries" not in vars(held)  # a dense solve builds its own matrices
            (values, layout), (found, support) = held._occupied, fock._support(dense.entries, d)
            for mine, theirs in zip((layout.rows, layout.cols, values),
                                    (support.rows, support.cols, found)):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
            for transposed in (False, True):
                mine = _spectrum(held, transposed)
                assert mine.tobytes() == _spectrum(dense.entries, transposed).tobytes()
            assert got[0].hex() == want[0].hex()
            for mine, theirs in zip(got[1:], want[1:]):
                assert np.abs(np.asarray(mine) - theirs).max() <= 1e-15, (kind, cutoff)


def test_from_pure_builds_entries_once_on_first_read():
    tracemalloc.start()
    try:
        state = two_mode_squeezed_state(0.8, 40)
        rho = TwoModeDensityMatrix.from_pure(state)
        log_negativity(rho)
        von_neumann_entropy(reduced_state(rho))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the dense matrix alone is 45 MB
    with pytest.raises(AttributeError, match="has no attribute 'foo'"):
        getattr(rho, "foo")  # only entries is built on read
    ent = rho.entries
    psi = state.flat()
    assert ent.tobytes() == np.outer(psi, psi.conj()).tobytes()
    assert not ent.flags.writeable
    assert rho.entries is ent


def test_large_tmsv_never_takes_the_dense_solve(solved_widths):
    rho = _tmsv(0.8, 40)
    log_negativity(rho)
    assert solved_widths and max(solved_widths) <= 41
    solved_widths.clear()
    _tmsv_after_coupler()  # validates a matrix that mixes the sectors
    assert 7 * 7 in solved_widths
