import math

import numpy as np
import pytest

from coupledwg import thermal
from coupledwg.errors import CoupledwgError, ValidationError
from coupledwg.lossless import pt_spectrum_closed
from coupledwg.thermal import (
    ThermalOccupation,
    _thermal_entropies,
    thermal_entropy,
    thermal_weight,
)

QUARTER = math.pi / 4

# Frozen reference values (independent evaluation of the weighted families).
ENTROPY_N2_NBAR1 = 0.4375                 # exact: weights {1/16, 1/32, 1/256}
ENTROPY_N2_NBAR1_NORMALIZED = 1.123856189774724   # log2(25) - 88/25
ENTROPY_N4_NBAR1 = 0.241567602534837


def _family(total, jt, nbar, variant="as-printed"):
    # the diagonal family at one (nbar, Jt) pair
    return thermal._diagonal_families(total, np.array([jt]), np.array([nbar]), variant)[0]


def test_weight_values_and_conventions():
    assert thermal_weight(0.0, 0) == 1.0
    assert thermal_weight(0.0, 3) == 0.0
    assert thermal_weight(1.0, 1) == pytest.approx(0.25, abs=1e-15)
    assert thermal_weight(2.0, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_weights_sum_to_one():
    for nbar in (0.0, 0.3, 1.0, 5.0):
        total = sum(thermal_weight(nbar, n) for n in range(200))
        assert abs(total - 1.0) < 1e-10


def test_weight_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        thermal_weight(-0.1, 0)
    with pytest.raises(ValidationError):
        thermal_weight(1.0, -1)
    for nbar in (math.nan, math.inf, np.float64(math.nan), np.float64(math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            thermal_weight(nbar, 1)


def test_weight_holds_where_its_powers_overflow():
    # nbar^n and (nbar + 1)^(n + 1) overflow a float, their ratio does not
    for nbar, n, want in ((1.0, 1023, 5.562684646268003e-309), (1e308, 1, 1e-308)):
        for value in (nbar, np.float64(nbar)):
            assert thermal_weight(value, n) == want


def test_occupation_validation():
    ThermalOccupation(0.0, 0.0)
    with pytest.raises(ValidationError):
        ThermalOccupation(-1.0, 0.0)
    with pytest.raises(ValidationError):
        ThermalOccupation(0.0, math.inf)


def test_diagonal_entry_fixture():
    # n = 1 entry at N=2, Jt=pi/4, nbar=1: (1/4)^2 * 2 * (1/2) * (1/2) = 1/32
    fam = _family(2, QUARTER, 1.0)
    assert fam[1] == pytest.approx(0.03125, abs=1e-15)


def test_entropy_fixtures():
    occ = ThermalOccupation(1.0, 1.0)
    assert float(thermal_entropy(2, QUARTER, occ)) == pytest.approx(
        ENTROPY_N2_NBAR1, abs=1e-12)
    assert float(thermal_entropy(2, QUARTER, occ, variant="normalized")) == pytest.approx(
        ENTROPY_N2_NBAR1_NORMALIZED, abs=1e-12)
    assert float(thermal_entropy(4, QUARTER, occ)) == pytest.approx(
        ENTROPY_N4_NBAR1, abs=1e-12)


def test_zero_occupation_leaves_single_weight():
    # At nbar=0 only the n=0 term survives: cos^{2N}(Jt) with weight 1.
    occ = ThermalOccupation(0.0, 0.0)
    fam = _family(3, 0.7, 0.0)
    assert fam[0] == pytest.approx(math.cos(0.7) ** 6, abs=1e-15)
    assert np.all(fam[1:] == 0.0)
    assert float(thermal_entropy(2, QUARTER, occ)) == pytest.approx(0.5, abs=1e-12)


def test_entropy_monotone_in_occupation():
    occ_values = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    entropies = [float(thermal_entropy(2, QUARTER, ThermalOccupation(nb, nb)))
                 for nb in occ_values]
    assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))
    assert float(thermal_entropy(2, QUARTER, ThermalOccupation(1000.0, 1000.0))) < 1e-4


def test_normalized_diagonal_sums_to_one():
    fam = _family(4, 0.6, 2.0, variant="normalized")
    assert abs(fam.sum() - 1.0) < 1e-12


def test_unit_weight_limit_matches_lossless_scaling():
    # With both occupations equal the diagonal family is the lossless one
    # multiplied by w(nbar, n)^2; check the ratio explicitly.
    jt = 0.8
    fam = _family(2, jt, 1.5)
    lossless = pt_spectrum_closed(2, jt)
    lossless_diag = np.sort(lossless[lossless >= 0.0])[::-1]
    for n in range(3):
        expect = thermal_weight(1.5, n) ** 2
        diag_n = math.comb(2, n) * math.sin(jt) ** (2 * n) * math.cos(jt) ** (2 * (2 - n))
        assert fam[n] == pytest.approx(expect * diag_n, abs=1e-15)
    assert lossless_diag.size >= 3  # sanity on the closed lossless family


def test_bad_variant_rejected():
    occ = ThermalOccupation(1.0, 1.0)
    with pytest.raises(ValidationError):
        thermal_entropy(2, QUARTER, occ, variant="renormalised")
    with pytest.raises(ValidationError):
        thermal_entropy(2, QUARTER, occ, variant="")
    # and a negative photon number, which numpy met as "cannot reshape"
    with pytest.raises(ValidationError, match="total photon number must be non-negative"):
        thermal_entropy(-1, QUARTER, occ)


# --- column form: every (nbar, Jt) pair of two grids in one call, bit for
# bit the point calls, and the error of the first pair that fails

_JTS = np.linspace(0.0, 1.5, 41)
_NBARS = np.linspace(0.0, 8.0, 33)


def _point_calls(total, jts, nbars, variant):
    # thermal_entropy at each pair, rows first
    return [lambda jt=jt, nbar=nbar: thermal_entropy(total, jt, ThermalOccupation(nbar, nbar),
                                                     variant)
            for nbar in nbars for jt in jts]


def _first_error(calls):
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


@pytest.mark.parametrize("variant", ["as-printed", "normalized"])
@pytest.mark.parametrize("total", [1, 2, 4, 12])
@pytest.mark.parametrize("jts, nbars", [(_JTS, [1.0]), (_JTS, [0.0]), ([0.3], _NBARS),
                                        ([math.pi / 4], _NBARS), (_JTS[::4], _NBARS[::4])],
                         ids=["jt", "jt-nbar0", "nbar", "nbar-pi4", "surface"])
def test_thermal_columns_equal_point_calls(variant, total, jts, nbars):
    want = [float(call()) for call in _point_calls(total, jts, nbars, variant)]
    got = _thermal_entropies(total, jts, nbars, variant)
    assert got.shape == (len(nbars), len(jts))
    assert np.array_equal(got.ravel(), want)


def test_huge_occupations_equal_point_calls():
    # nbar^1 / (nbar + 1)^2 overflows as a ratio of powers from nbar of about
    # 1.3e154 on, the weight does not; from 1e200 on its square underflows to
    # 0, so the normalized family has nothing to normalize
    nbars = [0.5, 1e100, 3.0, 1e200, 2.0, 1e300]
    want = [float(call()) for call in _point_calls(2, _JTS, nbars, "as-printed")]
    assert np.array_equal(_thermal_entropies(2, _JTS, nbars).ravel(), want)
    want = _first_error(_point_calls(2, _JTS, nbars, "normalized"))
    assert want == (ValidationError, "cannot normalize an all-zero spectrum")
    assert _column_error(lambda: _thermal_entropies(2, _JTS, nbars, "normalized")) == want


def test_all_zero_family_fires_as_the_point_call(monkeypatch):
    # binomial weights zeroed past jt = 1: the normalized family there sums to 0
    weights = thermal._binomial_weights
    monkeypatch.setattr(thermal, "_binomial_weights", lambda total, jt: weights(total, jt) * (
        np.asarray(jt)[..., None] <= 1.0))
    calls = _point_calls(2, _JTS, [1.0], "normalized")
    want = _first_error(calls)
    assert want == (ValidationError, "cannot normalize an all-zero spectrum")
    assert _column_error(lambda: _thermal_entropies(2, _JTS, [1.0], "normalized")) == want


@pytest.mark.parametrize("variant, push, message", [
    ("as-printed", 50.0, "entropy must be >= 0, got -"),
    ("normalized", math.nan, "entropy must be >= 0, got nan")])
def test_entropy_clamp_fires_at_the_first_bad_point(monkeypatch, variant, push, message):
    # one weight pushed past jt = 1: above 1 it gives a negative entropy term
    weights = thermal._binomial_weights

    def pushed(total, jt):
        out = weights(total, jt) * 1.0
        out[..., 0] += np.where(np.asarray(jt) > 1.0, push, 0.0)
        return out
    monkeypatch.setattr(thermal, "_binomial_weights", pushed)
    for jts, nbars in ((_JTS, [0.0]), ([1.2], _NBARS)):
        want = _first_error(_point_calls(2, jts, nbars, variant))
        assert want is not None and want[1].startswith(message)
        assert _column_error(lambda: _thermal_entropies(2, jts, nbars, variant)) == want
