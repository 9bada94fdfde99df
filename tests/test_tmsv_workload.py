"""The tmsv_crosscheck benchmark workload's own correctness gate, in tier-1: at
full size, every job of a seed's job list passes criterion 7's 1e-6
Fock-vs-Gaussian gate and the entropy check, and gives the same output
string as the dense route, which validates the density matrix built by
np.outer.  perfbench/workloads.py is loaded read-only, as it stands."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from coupledwg import fock, gaussian

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _dense_route(r, cutoff):
    psi = gaussian.two_mode_squeezed_state(r, cutoff).flat()
    rho = fock.TwoModeDensityMatrix(cutoff, np.outer(psi, psi.conj()))
    en_fock = float(fock.log_negativity(rho))
    entropy = float(fock.von_neumann_entropy(fock.reduced_state(rho)))
    en_gauss = float(gaussian.log_negativity_gaussian(gaussian.tmsv_covariance(r)))
    return f"{en_fock!r},{entropy!r},{en_gauss!r}"


@pytest.mark.parametrize("seed", [0, 1])
def test_tmsv_crosscheck_jobs_pass_their_gate_as_the_dense_route_does(workloads, seed):
    jobs = workloads.make_jobs("tmsv_crosscheck", seed, "full")
    assert [job.cutoff for job in jobs] == list(workloads.TMSV_CUTOFFS)
    for job in jobs:
        outcome = workloads.run_job("tmsv_crosscheck", job)
        workloads.judge("tmsv_crosscheck", job, outcome)
        assert not outcome.failed, (job.label, outcome.problem)
        assert outcome.output == _dense_route(job.r, job.cutoff), job.label
