import math

import numpy as np
import pytest

from coupledwg.errors import NumericalError, ValidationError
from coupledwg.lossless import pt_spectrum_closed
from coupledwg.thermal import (
    ThermalOccupation,
    thermal_diagonal_family,
    thermal_entropy,
    thermal_pt_spectrum,
    thermal_weight,
)

QUARTER = math.pi / 4

# Frozen reference values (independent evaluation of the weighted families).
ENTROPY_N2_NBAR1 = 0.4375                 # exact: weights {1/16, 1/32, 1/256}
ENTROPY_N2_NBAR1_NORMALIZED = 1.123856189774724   # log2(25) - 88/25
ENTROPY_N4_NBAR1 = 0.241567602534837
PAIR_01_NBAR1 = 0.0441941738241592        # w(1,0) w(1,1) * sqrt(2)/4 * ... at pi/4


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


def test_occupation_validation():
    ThermalOccupation(0.0, 0.0)
    with pytest.raises(ValidationError):
        ThermalOccupation(-1.0, 0.0)
    with pytest.raises(ValidationError):
        ThermalOccupation(0.0, math.inf)


def test_diagonal_entry_fixture():
    # n = 1 entry at N=2, Jt=pi/4, nbar=1: (1/4)^2 * 2 * (1/2) * (1/2) = 1/32
    fam = thermal_diagonal_family(2, QUARTER, ThermalOccupation(1.0, 1.0))
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
    fam = thermal_diagonal_family(3, 0.7, occ)
    assert fam[0] == pytest.approx(math.cos(0.7) ** 6, abs=1e-15)
    assert np.all(fam[1:] == 0.0)
    assert float(thermal_entropy(2, QUARTER, occ)) == pytest.approx(0.5, abs=1e-12)


def test_entropy_monotone_in_occupation():
    occ_values = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    entropies = [float(thermal_entropy(2, QUARTER, ThermalOccupation(nb, nb)))
                 for nb in occ_values]
    assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))
    assert float(thermal_entropy(2, QUARTER, ThermalOccupation(1000.0, 1000.0))) < 1e-4


def test_spectrum_size_and_order():
    occ = ThermalOccupation(0.7, 0.7)
    spec = thermal_pt_spectrum(3, 0.5, occ)
    assert spec.shape == (16,)
    assert np.all(np.diff(spec) <= 1e-15)


def test_spectrum_pair_fixture():
    occ = ThermalOccupation(1.0, 1.0)
    spec = thermal_pt_spectrum(2, QUARTER, occ)
    assert np.any(np.isclose(spec, PAIR_01_NBAR1, atol=1e-15))
    assert np.any(np.isclose(spec, -PAIR_01_NBAR1, atol=1e-15))


def test_equal_occupations_give_sign_pairs():
    occ = ThermalOccupation(0.4, 0.4)
    spec = thermal_pt_spectrum(3, 0.9, occ)
    negs = np.sort(spec[spec < 0.0])
    poss = np.sort(spec[spec > 0.0])[::-1]
    # every negative eigenvalue has a positive partner of the same magnitude
    for v in negs:
        assert np.any(np.isclose(poss, -v, atol=1e-14))


def test_unequal_occupations_follow_ordered_pair_loop():
    # per-pair loop reference: weight_a(n) weight_b(m) sqrt(w_n w_m), signed
    # + for n < m and - for n > m
    occ = ThermalOccupation(1.0, 3.0)
    total, jt = 3, 0.7
    w = [math.comb(total, n) * math.sin(jt) ** (2 * n) * math.cos(jt) ** (2 * (total - n))
         for n in range(total + 1)]
    ref = [thermal_weight(1.0, n) ** 2 * w[n] for n in range(total + 1)]
    for n in range(total + 1):
        for m in range(total + 1):
            if n != m:
                mag = thermal_weight(1.0, n) * thermal_weight(3.0, m) * math.sqrt(w[n] * w[m])
                ref.append(mag if n < m else -mag)
    ours = thermal_pt_spectrum(total, jt, occ)
    assert np.max(np.abs(ours - np.sort(ref)[::-1])) <= 1e-14


def test_normalized_diagonal_sums_to_one():
    occ = ThermalOccupation(2.0, 2.0)
    fam = thermal_diagonal_family(4, 0.6, occ, variant="normalized")
    assert abs(fam.sum() - 1.0) < 1e-12


def test_unit_weight_limit_matches_lossless_scaling():
    # With both occupations equal the diagonal family is the lossless one
    # multiplied by w(nbar, n)^2; check the ratio explicitly.
    occ = ThermalOccupation(1.5, 1.5)
    jt = 0.8
    fam = thermal_diagonal_family(2, jt, occ)
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
        thermal_pt_spectrum(2, QUARTER, occ, variant="")


def test_weight_overflow_raises_typed_error():
    for nbar in (1e308, np.float64(1e308)):  # numpy scalars overflow quietly
        with pytest.raises(NumericalError):
            thermal_weight(nbar, 1)
