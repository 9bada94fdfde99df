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
from coupledwg.errors import CapacityError, ValidationError
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
    # a read-only array nothing else can write is kept as handed over
    sealed = np.eye(4, dtype=complex) / 4
    sealed.setflags(write=False)
    assert TwoModeDensityMatrix(1, sealed).entries is sealed


def test_from_pure_holds_one_matrix():
    state = two_mode_squeezed_state(0.8, 40)
    tracemalloc.start()
    try:
        rho = TwoModeDensityMatrix.from_pure(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rho.entries.nbytes


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


def _assert_matches_dense(rho):
    d = rho.cutoff + 1
    ent = rho.entries
    own = _with_zeros(fock._spectrum(ent, d), d * d)
    assert np.abs(own - np.linalg.eigvalsh(ent)).max() <= 1e-12
    dense_pt = np.linalg.eigvalsh(partial_transpose(ent))
    pt = _with_zeros(fock._spectrum(ent, d, transposed=True), d * d)
    assert np.abs(pt - dense_pt).max() <= 1e-12
    assert abs(fock._negativities(pt[None])[0] - _negativity(rho)) <= 1e-12


def _stacked_spectra(ents, d, sign, transposed):
    # one solve for a stack of states, over the sectors any of them occupies
    *grid, mask, sizes = fock._sector_grid(d, sign, transposed)
    blocks = np.stack([np.where(mask, ent.reshape(d, d, d, d)[tuple(grid)], 0)
                       for ent in ents])
    groups = fock._by_size(blocks, sizes, blocks.any(axis=(0, 2, 3)))
    return fock._sector_eigvalsh(groups, len(ents))


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


def test_negative_eigenvalue_in_one_sector_is_rejected(solved_widths):
    # the one-photon sector {|0,1>, |1,0>} holds eigenvalues 1.1 and -0.1
    ent = np.zeros((9, 9))
    ent[1, 1] = ent[3, 3] = 0.5
    ent[1, 3] = ent[3, 1] = 0.6
    with pytest.raises(ValidationError, match="eigenvalue"):
        TwoModeDensityMatrix(2, ent)
    assert max(solved_widths) <= 3


def test_purity_matches_trace_of_square():
    rng = np.random.default_rng(11)
    states = list(_damped_outputs()) + [random_mixed(rng, 3, rank=5) for _ in range(5)]
    for rho in states:
        ent = rho.entries
        assert abs(float(purity(rho)) - np.trace(ent @ ent).real) <= 1e-15


def test_large_tmsv_never_takes_the_dense_solve(solved_widths):
    rho = _tmsv(0.8, 40)
    log_negativity(rho)
    assert solved_widths and max(solved_widths) <= 41
    solved_widths.clear()
    _tmsv_after_coupler()  # validates a matrix that mixes the sectors
    assert 7 * 7 in solved_widths
