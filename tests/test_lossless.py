"""Sector propagator vs hand-worked amplitudes and closed forms.

The N = 1 and N = 2 sector matrices are small enough to exponentiate by hand
(eigenvalues {0, +-2} for N = 2), which gives the frozen amplitude values
below.  Entropy peak constants were evaluated from the binomial distribution
directly: H({1,2,1}/4) = 1.5, H({1,3,3,1}/8) and H({1,4,6,4,1}/16) as written.
"""

import math

import numpy as np
import pytest

from coupledwg.errors import CapacityError, NumericalError, ValidationError
from coupledwg.fock import (
    TwoModeDensityMatrix,
    fock_state,
    log_negativity,
    noon_state,
    partial_transpose,
    reduced_state,
    state_from_amplitudes,
    von_neumann_entropy,
)
from coupledwg.lossless import (
    CouplerParams,
    entropy_closed,
    evolve_lossless,
    evolve_lossless_dm,
    log_negativity_closed,
    lossless_unitary,
    noon_log_negativity,
    pt_spectrum_closed,
    sector_coupling_matrix,
    su2_coefficients,
)

ENTROPY_PEAK_N2 = 1.5
ENTROPY_PEAK_N3 = 1.811278124459133
ENTROPY_PEAK_N4 = 2.0306390622295665


def test_coupler_params_validation():
    CouplerParams(0.0, 1.0)
    with pytest.raises(ValidationError):
        CouplerParams(0.0, 0.0)
    with pytest.raises(ValidationError):
        CouplerParams(0.0, -1.0)
    with pytest.raises(ValidationError):
        CouplerParams(math.inf, 1.0)


def test_sector_matrix_entries():
    m = sector_coupling_matrix(2)
    expected = np.array([[0, math.sqrt(2), 0],
                         [math.sqrt(2), 0, math.sqrt(2)],
                         [0, math.sqrt(2), 0]])
    assert np.allclose(m, expected, atol=1e-15)
    # eigenvalues of the N-photon sector run -N..N in steps of 2
    for total in (1, 2, 3, 5):
        lam = np.linalg.eigvalsh(sector_coupling_matrix(total))
        assert np.allclose(np.sort(lam), np.arange(-total, total + 1, 2), atol=1e-12)


def test_single_photon_amplitudes():
    p = CouplerParams(0.0, 1.0)
    for jt in (0.0, 0.3, math.pi / 4, 1.2):
        out = evolve_lossless(fock_state(0, 1, cutoff=1), p, jt)
        assert abs(out.amplitudes[0, 1] - math.cos(jt)) < 1e-14
        assert abs(out.amplitudes[1, 0] - (-1j) * math.sin(jt)) < 1e-14


def test_two_photon_amplitudes_from_hand_exponential():
    p = CouplerParams(0.0, 1.0)
    jt = 0.4
    s2, c2 = math.sin(2 * jt), math.cos(2 * jt)
    # |1,1> input
    out = evolve_lossless(fock_state(1, 1, cutoff=2), p, jt)
    assert abs(out.amplitudes[1, 1] - c2) < 1e-14
    assert abs(out.amplitudes[0, 2] - (-1j) * s2 / math.sqrt(2)) < 1e-14
    assert abs(out.amplitudes[2, 0] - (-1j) * s2 / math.sqrt(2)) < 1e-14
    # |2,0> input
    out = evolve_lossless(fock_state(2, 0, cutoff=2), p, jt)
    assert abs(out.amplitudes[2, 0] - math.cos(jt) ** 2) < 1e-14
    assert abs(out.amplitudes[1, 1] - (-1j) * s2 / math.sqrt(2)) < 1e-14
    assert abs(out.amplitudes[0, 2] - (-math.sin(jt) ** 2)) < 1e-14


def test_hong_ou_mandel_dip():
    # at Jt = pi/4 the |1,1> component vanishes and photons bunch
    out = evolve_lossless(fock_state(1, 1, cutoff=2), CouplerParams(0.0, 1.0),
                          math.pi / 4)
    assert abs(out.amplitudes[1, 1]) < 1e-15
    assert abs(abs(out.amplitudes[2, 0]) ** 2 - 0.5) < 1e-14


def test_coefficients_match_propagator():
    p = CouplerParams(0.0, 1.0)
    for total in (1, 2, 3, 4, 5):
        for jt in (0.2, math.pi / 4, 1.0):
            coeff = su2_coefficients(total, jt)
            out = evolve_lossless(fock_state(0, total, cutoff=total), p, jt)
            n = np.arange(total + 1)
            assert np.allclose(out.amplitudes[n, total - n], coeff, atol=1e-12)
            # the phase convention of exp(-iHt): c_1 / c_0 = -i sqrt(N) tan(Jt)
            want = -1j * math.sqrt(total) * math.tan(jt)
            assert abs(coeff[1] / coeff[0] - want) < 1e-12


def test_four_photon_coefficient_pattern():
    jt = 0.7
    s, c = math.sin(jt), math.cos(jt)
    coeff = su2_coefficients(4, jt)
    expected = [c ** 4,
                -2j * s * c ** 3,
                -math.sqrt(6) * s ** 2 * c ** 2,
                2j * s ** 3 * c,
                s ** 4]
    assert np.allclose(coeff, expected, atol=1e-14)


def test_mirror_input_swaps_coefficients():
    # |N,0> input produces the reversed coefficient list on the mirrored grid
    p = CouplerParams(0.0, 1.0)
    total, jt = 4, 0.55
    coeff = su2_coefficients(total, jt)
    out = evolve_lossless(fock_state(total, 0, cutoff=total), p, jt)
    for k in range(total + 1):
        assert abs(out.amplitudes[total - k, k] - coeff[k]) < 1e-12


def test_omega_contributes_sector_phase_only():
    base = CouplerParams(0.0, 0.8)
    shifted = CouplerParams(2.5, 0.8)
    t = 1.3
    st = noon_state(3, cutoff=3)
    a = evolve_lossless(st, base, t).amplitudes
    b = evolve_lossless(st, shifted, t).amplitudes
    assert np.allclose(b, a * np.exp(-1j * 2.5 * 3 * t), atol=1e-13)


def test_sectors_do_not_mix():
    grid = {(0, 1): 0.6, (2, 1): 0.8}
    st = state_from_amplitudes(grid, cutoff=3)
    out = evolve_lossless(st, CouplerParams(1.0, 0.5), 2.1).amplitudes
    totals = np.add.outer(np.arange(4), np.arange(4))
    assert np.all(out[(totals != 1) & (totals != 3)] == 0)
    n1 = np.linalg.norm([out[0, 1], out[1, 0]])
    assert abs(n1 - 0.6) < 1e-12


def test_corner_support_is_rejected():
    st = state_from_amplitudes({(2, 2): 1.0}, cutoff=2)
    with pytest.raises(CapacityError):
        evolve_lossless(st, CouplerParams(0.0, 1.0), 0.1)


def test_unitary_assembly_matches_state_path():
    p = CouplerParams(0.7, 1.1)
    t = 0.9
    u = lossless_unitary(3, p, t)
    assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)
    st = noon_state(2, cutoff=3)
    via_state = evolve_lossless(st, p, t).flat()
    assert np.allclose(u @ st.flat(), via_state, atol=1e-12)


def test_density_matrix_evolution_matches_pure():
    p = CouplerParams(0.0, 1.0)
    t = 0.35
    st = fock_state(1, 1, cutoff=2)
    rho = TwoModeDensityMatrix.from_pure(st)
    evolved_dm = evolve_lossless_dm(rho, p, t)
    evolved_pure = TwoModeDensityMatrix.from_pure(evolve_lossless(st, p, t))
    assert np.allclose(evolved_dm.entries, evolved_pure.entries, atol=1e-12)


def test_closed_spectrum_matches_numerics():
    p = CouplerParams(0.0, 1.0)
    for total in (1, 2, 3, 4):
        for jt in (0.3, math.pi / 4, 1.1):
            st = evolve_lossless(fock_state(0, total, cutoff=total), p, jt)
            rho = TwoModeDensityMatrix.from_pure(st)
            numeric = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))[::-1]
            closed = pt_spectrum_closed(total, jt)
            assert closed.size == (total + 1) ** 2
            assert np.all(np.diff(closed) <= 1e-15)  # descending
            assert np.allclose(numeric, closed, atol=1e-10)


def test_closed_spectrum_pair_magnitudes():
    # pair entries are sqrt(binom(N,n) binom(N,m)) s^(n+m) c^(2N-n-m)
    total, jt = 3, 0.6
    s, c = math.sin(jt), math.cos(jt)
    spec = pt_spectrum_closed(total, jt)
    n, m = 1, 2
    pair = (math.factorial(total)
            / math.sqrt(math.factorial(n) * math.factorial(m)
                        * math.factorial(total - n) * math.factorial(total - m))
            * s ** (n + m) * c ** (2 * total - n - m))
    assert np.min(np.abs(spec - pair)) < 1e-13
    assert np.min(np.abs(spec + pair)) < 1e-13


def test_entropy_closed_values():
    assert float(entropy_closed(2, math.pi / 4)) == pytest.approx(ENTROPY_PEAK_N2, abs=1e-12)
    assert float(entropy_closed(3, math.pi / 4)) == pytest.approx(ENTROPY_PEAK_N3, abs=1e-12)
    assert float(entropy_closed(4, math.pi / 4)) == pytest.approx(ENTROPY_PEAK_N4, abs=1e-12)
    assert float(entropy_closed(4, 0.0)) == 0.0
    assert float(entropy_closed(4, math.pi / 2)) < 1e-12


def test_entropy_closed_periodicity_and_symmetry():
    for total in (2, 3, 5):
        for jt in (0.1, 0.4, 1.0):
            s = float(entropy_closed(total, jt))
            assert abs(s - float(entropy_closed(total, jt + math.pi))) < 1e-10
            assert abs(s - float(entropy_closed(total, math.pi / 2 - jt))) < 1e-10


def test_entropy_closed_matches_reduced_state():
    p = CouplerParams(0.0, 1.0)
    for total in (2, 4):
        for jt in (0.2, 0.9):
            st = evolve_lossless(fock_state(0, total, cutoff=total), p, jt)
            rho = TwoModeDensityMatrix.from_pure(st)
            s_num = float(von_neumann_entropy(reduced_state(rho, "a")))
            assert abs(s_num - float(entropy_closed(total, jt))) < 1e-10


def test_log_negativity_closed_matches_numerics():
    p = CouplerParams(0.0, 1.0)
    for total in (2, 4):
        for jt in (0.3, math.pi / 4):
            st = evolve_lossless(fock_state(0, total, cutoff=total), p, jt)
            num = float(log_negativity(TwoModeDensityMatrix.from_pure(st)))
            assert abs(num - float(log_negativity_closed(total, jt))) < 1e-10


def test_noon_log_negativity_baseline():
    # N00N states start maximally entangled in their two-dimensional span
    for total in (2, 3, 4):
        assert float(noon_log_negativity(total, 0.0)) == pytest.approx(1.0, abs=1e-12)
    # cross-check one evolved point against the partial-transpose route
    jt = 0.37
    st = evolve_lossless(noon_state(3, cutoff=3), CouplerParams(0.0, 1.0), jt)
    direct = float(log_negativity(TwoModeDensityMatrix.from_pure(st)))
    assert abs(float(noon_log_negativity(3, jt)) - direct) < 1e-10


def test_evolution_is_deterministic():
    p = CouplerParams(0.4, 1.7)
    st = noon_state(4, cutoff=6)
    a = evolve_lossless(st, p, 0.83).amplitudes
    b = evolve_lossless(st, p, 0.83).amplitudes
    assert np.array_equal(a, b)


def test_overflowing_binomials_raise_typed_error():
    # binom(2000, 1000) is about 2e600, past the largest float
    assert math.isfinite(float(entropy_closed(1000, 0.3)))
    with pytest.raises(NumericalError, match="N = 2000"):
        entropy_closed(2000, 0.3)
    with pytest.raises(NumericalError):
        su2_coefficients(2000, 0.3)


def test_overflowing_coupler_phase_raises_typed_error():
    with pytest.raises(NumericalError, match="phases"):
        evolve_lossless(noon_state(1, 1), CouplerParams(0.0, 1e308), 3.0)
