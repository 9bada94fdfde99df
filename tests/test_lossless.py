"""Sector propagator vs hand-worked amplitudes and closed forms.

The N = 1 and N = 2 sector matrices are small enough to exponentiate by hand
(eigenvalues {0, +-2} for N = 2), which gives the frozen amplitude values
below.  Entropy peak constants were evaluated from the binomial distribution
directly: H({1,2,1}/4) = 1.5, H({1,3,3,1}/8) and H({1,4,6,4,1}/16) as written.
"""

import math
import tracemalloc

import numpy as np
import pytest

from coupledwg import lossless
from coupledwg.errors import CapacityError, CoupledwgError, NumericalError, ValidationError
from coupledwg.fock import (
    TwoModeDensityMatrix,
    _log_negativities,
    _pure_log_negativities,
    _reduced_entropies,
    fock_state,
    log_negativity,
    noon_state,
    partial_transpose,
    pure_log_negativity,
    reduced_state,
    state_from_amplitudes,
    von_neumann_entropy,
)
from coupledwg.lossless import (
    CouplerParams,
    _entropies_closed,
    _evolved,
    _evolved_measures,
    _noon_log_negativities,
    entropy_closed,
    evolve_lossless,
    evolve_lossless_dm,
    lossless_unitary,
    noon_log_negativity,
    pt_spectrum_closed,
    sector_coupling_matrix,
)

ENTROPY_PEAK_N2 = 1.5
ENTROPY_PEAK_N3 = 1.811278124459133
ENTROPY_PEAK_N4 = 2.0306390622295665


def _su2_coefficients(total, jt):
    # amplitudes of exp(-iHt)|0, N> at omega = 0, entry n on |n, N - n>:
    # (-i)^n sin(Jt)^n cos(Jt)^(N-n) sqrt(binom(N, n))
    n = np.arange(total + 1)
    binomials = np.array([math.comb(total, k) for k in range(total + 1)], dtype=float)
    return (-1j) ** n * math.sin(jt) ** n * math.cos(jt) ** (total - n) * np.sqrt(binomials)


def _log_negativity_closed(total, jt):
    # E_N of the evolved |0, N> state from its closed partial-transpose spectrum
    return float(_log_negativities(pt_spectrum_closed(total, jt)[None])[0])


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
            coeff = _su2_coefficients(total, jt)
            out = evolve_lossless(fock_state(0, total, cutoff=total), p, jt)
            n = np.arange(total + 1)
            assert np.allclose(out.amplitudes[n, total - n], coeff, atol=1e-12)
            # the phase convention of exp(-iHt): c_1 / c_0 = -i sqrt(N) tan(Jt)
            want = -1j * math.sqrt(total) * math.tan(jt)
            assert abs(coeff[1] / coeff[0] - want) < 1e-12


def test_four_photon_coefficient_pattern():
    jt = 0.7
    s, c = math.sin(jt), math.cos(jt)
    coeff = _su2_coefficients(4, jt)
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
    coeff = _su2_coefficients(total, jt)
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
            assert abs(num - _log_negativity_closed(total, jt)) < 1e-10


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


def test_overflowing_coupler_phase_raises_typed_error():
    with pytest.raises(NumericalError, match="phases"):
        evolve_lossless(noon_state(1, 1), CouplerParams(0.0, 1e308), 3.0)


# --- column forms: one call over a whole grid, bit for bit the point calls

_GRID = np.linspace(0.0, math.pi, 61)
_UNSORTED = np.array([2.9, 0.0, 1.3, 0.4, 3.1, 0.4, 2.2, 1e-9, 0.75])


def _first_error(calls):
    # the class and message of the first call that raises, in order
    for call in calls:
        try:
            call()
        except CoupledwgError as exc:
            return type(exc), str(exc)
    return None


def _column_error(call):
    with pytest.raises(CoupledwgError) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("spec", [("noon", n) for n in range(1, 9)]
                         + [("fock", 1, 1), ("fock", 3, 1), ("fock", 4, 0)])
@pytest.mark.parametrize("omega", [0.0, 0.7])
@pytest.mark.parametrize("extra", [0, 3])
def test_lossless_columns_equal_point_calls(spec, omega, extra):
    photons = sum(spec[1:])
    cutoff = photons + extra
    state = (noon_state(photons, cutoff) if spec[0] == "noon"
             else fock_state(spec[1], spec[2], cutoff))
    params = CouplerParams(omega, 1.3)
    for times in (_GRID, _UNSORTED):
        en, s = _evolved_measures(state, params, times, _pure_log_negativities,
                                  _reduced_entropies)
        evolved = [evolve_lossless(state, params, t) for t in times]
        assert np.array_equal(np.concatenate(list(_evolved(state, params, times))),
                              [e.amplitudes for e in evolved])
        assert np.array_equal(en, [float(pure_log_negativity(e)) for e in evolved])
        sigmas = [e.amplitudes @ e.amplitudes.conj().T for e in evolved]
        assert np.array_equal(s, [float(von_neumann_entropy(sigma)) for sigma in sigmas])


@pytest.mark.parametrize("total", range(1, 9))
def test_noon_and_entropy_columns_equal_point_calls(total):
    for jts in (_GRID, _UNSORTED):
        assert np.array_equal(_noon_log_negativities(total, jts),
                              [float(noon_log_negativity(total, jt)) for jt in jts])
        assert np.array_equal(_entropies_closed(total, jts),
                              [float(entropy_closed(total, jt)) for jt in jts])


def test_lossless_columns_refuse_corner_support():
    state = state_from_amplitudes({(2, 2): 1.0}, cutoff=2)
    params = CouplerParams(0.0, 1.0)
    assert _column_error(lambda: _evolved_measures(state, params, _GRID, _reduced_entropies)) \
        == _first_error([lambda: evolve_lossless(state, params, 0.0)])


@pytest.mark.parametrize("params, times", [
    # J t * 4 overflows from t of about 4.5e307 on, omega * 4 * t from 4.5e7
    (CouplerParams(0.0, 1.0), np.linspace(0.0, 1e308, 40)),
    (CouplerParams(0.0, 1.0), np.array([1.0, 2e307, 3.0, 1e308, 5e307])),
    (CouplerParams(1e300, 1.0), np.linspace(0.0, 1e9, 40)),
])
def test_phase_overflow_fires_at_the_first_bad_time(params, times):
    state = noon_state(4, 5)
    want = _first_error([lambda t=t: evolve_lossless(state, params, t) for t in times])
    assert want is not None and "phases" in want[1]
    assert _column_error(lambda: _evolved_measures(
        state, params, times, _pure_log_negativities)) == want


def test_norm_gate_fires_at_the_first_bad_time(monkeypatch):
    # eigenvalues with a small imaginary part make the evolution lose norm
    # in proportion to t: the gate trips part way into the grid
    eigensystem = lossless._sector_eigensystem
    monkeypatch.setattr(lossless, "_sector_eigensystem",
                        lambda total: (eigensystem(total)[0] - 1e-3j, eigensystem(total)[1]))
    state, params = noon_state(2, 2), CouplerParams(0.0, 1.0)
    times = np.linspace(0.0, 2e-9, 41)
    want = _first_error([lambda t=t: evolve_lossless(state, params, t) for t in times])
    assert want is not None and want[0] is ValidationError and "norm" in want[1]
    assert _column_error(lambda: _evolved_measures(
        state, params, times, _pure_log_negativities)) == want


def test_entropy_clamp_fires_at_the_first_bad_point(monkeypatch):
    # weights tripled past jt = 1 give negative entropy terms there
    weights = lossless._binomial_weights
    monkeypatch.setattr(lossless, "_binomial_weights", lambda total, jt: weights(total, jt) * (
        1.0 + 2.0 * (np.asarray(jt)[..., None] > 1.0)))
    want = _first_error([lambda jt=jt: entropy_closed(3, jt) for jt in _GRID])
    assert want is not None and want[1].startswith("entropy must be >= 0, got -")
    assert _column_error(lambda: _entropies_closed(3, _GRID)) == want


def test_lossless_grid_memory_does_not_grow_with_the_grid(monkeypatch):
    # drawing the first chunk of a 10^6-point grid at cutoff 20, and its
    # measures, builds one chunk of it: the whole (times, d, d) stack would
    # take 7 GB, and any array over the grid 8 MB
    state, params = noon_state(20, 20), CouplerParams(0.3, 1.0)
    evolve_lossless(state, params, 0.5)  # fill the caches first
    unitaries = lossless._sector_unitaries

    def one_chunk(total, p, times):
        assert times.size < 1000
        return unitaries(total, p, times)
    monkeypatch.setattr(lossless, "_sector_unitaries", one_chunk)
    times = np.linspace(0.0, 50.0, 10 ** 6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        amps = next(_evolved(state, params, times))
        en, s = _pure_log_negativities(amps), _reduced_entropies(amps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < amps.shape[0] < 1000
    assert (en[0], s[0]) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert peak < lossless._CHUNK_BYTES
