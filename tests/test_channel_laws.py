"""The exact damped propagator held to laws that need no step size.

The compare command and acceptance criteria 4 and 5 referee the propagator
with RK4 at a fixed step, whose own truncation error is the largest term
there.  These checks have none:

- generator: a 5-point central difference of rho(t) equals the Lindblad
  right-hand side L(rho(t)) (lindblad.liouvillian_apply, which builds H, a
  and b on its own, from none of the propagator's Kraus weights or sector
  eigenbases), for the damped propagator and, at gamma = 0, for
  lossless.evolve_lossless_dm;
- semigroup: evolving for 1.1 and then 0.9 equals evolving for 2.0, so the
  propagator takes its own (held, mixed) output as input;
- mode swap: exchanging the modes a and b commutes with the evolution;
- omega drop-out: omega only adds a phase per photon-number difference, so it
  changes nothing for an input block-diagonal in n_a + n_b.

Each gate is a margin over the worst value measured on this grid (stated
beside it) and the worst is printed.
"""

import numpy as np
import pytest

from coupledwg.damped import DampedParams, evolve_damped_exact
from coupledwg.fock import (TwoModeDensityMatrix, fock_state, log_negativity, noon_state, purity,
                            reduced_state, state_from_amplitudes, von_neumann_entropy)
from coupledwg.lindblad import liouvillian_apply
from coupledwg.lossless import evolve_lossless_dm

# (|0,0> + |1,1>)/sqrt(2) couples the photon sectors 0 and 2: its layout has
# off-diagonal block pairs, and measures() solves its states densely
MIXED = {(0, 0): 1.0, (1, 1): 1.0}
INPUTS = {"fock:1,1": fock_state(1, 1, 2), "noon:3": noon_state(3, 3),
          "fock:2,3": fock_state(2, 3, 5), "noon:5": noon_state(5, 5),
          "mixed": state_from_amplitudes(MIXED, 2)}
PARAMS = (DampedParams(0.0, 0.5, 0.0), DampedParams(0.7, 1.3, 0.05),
          DampedParams(1.7, 0.4, 0.3), DampedParams(0.3, 1.0, 1.0))
H = 1e-3


def _central_difference(m2, m1, p1, p2):
    # the slope at t from the states at t - 2h, t - h, t + h and t + 2h
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * H)


def _rho(state):
    return TwoModeDensityMatrix.from_pure(state)


def _swapped(ent, d):
    # <n_a, n_b| rho |m_a, m_b> -> <n_b, n_a| rho |m_b, m_a>
    return ent.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def test_mixed_input_takes_the_dense_solve():
    rho = _rho(INPUTS["mixed"])
    times = np.array([0.0, 1.0])
    states = evolve_damped_exact(rho, PARAMS[1], times)
    layout = states._terms.layout
    assert layout.blocks is None and layout.transposed is None
    en, entropy, pure = np.concatenate(list(states.measures()), axis=1)
    held = list(evolve_damped_exact(rho, PARAMS[1], times))
    assert np.array_equal(en, [float(log_negativity(state)) for state in held])
    assert np.array_equal(entropy, [float(von_neumann_entropy(reduced_state(state)))
                                    for state in held])
    # a held state sums its entries row-major, a chunk in block-pair order
    assert np.allclose(pure, [float(purity(state)) for state in held], rtol=0.0, atol=1e-14)


def test_generator_matches_the_lindblad_right_hand_side():
    worst = 0.0
    for name, state in INPUTS.items():
        rho = _rho(state)
        for p in PARAMS:
            # t - 2h, t - h, t, t + h, t + 2h for each t, in one call
            times = (np.array([0.3, 1.7, 4.0])[:, None] + H * np.arange(-2.0, 3.0)).ravel()
            states = evolve_damped_exact(rho, p, times)
            for t in (0.3, 1.7, 4.0):
                m2, m1, now, p1, p2 = (next(states).entries for _ in range(5))
                slope = _central_difference(m2, m1, p1, p2)
                rhs = liouvillian_apply(now, rho.cutoff, p)
                error = np.abs(slope - rhs).max() / np.abs(rhs).max()
                worst = max(worst, error)
                assert error <= 5e-8, (name, p, t)  # measured worst 1.1e-9
    print(f"generator: worst error relative to max|L(rho)| {worst:.2e}")


def test_lossless_generator_matches_the_lindblad_right_hand_side():
    worst = 0.0
    for name, state in INPUTS.items():
        rho = _rho(state)
        for p in PARAMS[:3]:
            lossless = DampedParams(p.omega, p.J, 0.0)
            for t in (0.3, 4.0):
                m2, m1, now, p1, p2 = (evolve_lossless_dm(rho, lossless.coupler(), t + k * H).entries
                                       for k in (-2, -1, 0, 1, 2))
                rhs = liouvillian_apply(now, rho.cutoff, lossless)
                error = np.abs(_central_difference(m2, m1, p1, p2) - rhs).max() / np.abs(rhs).max()
                worst = max(worst, error)
                assert error <= 5e-8, (name, p, t)  # measured worst 1.1e-9
    print(f"lossless generator: worst error relative to max|L(rho)| {worst:.2e}")


def test_semigroup_law():
    worst = 0.0
    for name, state in INPUTS.items():
        rho = _rho(state)
        for p in PARAMS:
            halfway = evolve_damped_exact(rho, p, 1.1)
            twice = evolve_damped_exact(halfway, p, 0.9)
            once = evolve_damped_exact(rho, p, 2.0)
            error = np.abs(twice.entries - once.entries).max()
            worst = max(worst, error)
            assert error <= 1e-14, (name, p)  # measured worst 2.9e-16
    print(f"semigroup: worst entry difference {worst:.2e}")


def test_mode_swap_commutes_with_the_evolution():
    times = np.linspace(0.0, 8.0, 17)
    worst = 0.0
    for name, state in INPUTS.items():
        rho = _rho(state)
        mirror = _rho(state_from_amplitudes(state.amplitudes.T, state.cutoff))
        d = rho.cutoff + 1
        for p in PARAMS:
            pairs = zip(evolve_damped_exact(rho, p, times), evolve_damped_exact(mirror, p, times))
            for ours, theirs in pairs:
                error = np.abs(_swapped(ours.entries, d) - theirs.entries).max()
                worst = max(worst, error)
                assert error <= 1e-14, (name, p)  # measured worst 7.6e-16
    print(f"mode swap: worst entry difference {worst:.2e}")


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_omega_drops_out_within_photon_sectors(name):
    times = np.linspace(0.0, 8.0, 17)
    rho = _rho(INPUTS[name])
    worst = 0.0
    for coupling, gamma in ((0.5, 0.0), (1.3, 0.05), (1.0, 1.0)):
        still = evolve_damped_exact(rho, DampedParams(0.0, coupling, gamma), times)
        spun = evolve_damped_exact(rho, DampedParams(1.7, coupling, gamma), times)
        worst = max(worst, max(np.abs(a.entries - b.entries).max() for a, b in zip(still, spun)))
    if name == "mixed":  # a coherence between sectors 0 and 2 turns at 2 omega
        assert worst > 0.1
    else:
        assert worst <= 1e-14  # measured worst 2.2e-16
    print(f"omega drop-out, {name}: worst entry difference {worst:.2e}")
