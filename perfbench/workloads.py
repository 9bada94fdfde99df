"""Seeded job lists for the benchmark workloads, how to run one job, and the
correctness check applied to every job's output.

A job is one CLI invocation of coupledwg.cli.main, run in-process with its
stdout captured, or one call sequence on the public library (tmsv_crosscheck).
Draws are stratified so that every seed runs the same amount of work: the
seed picks parameters inside each stratum, never which strata run.  The
oracle_compare grid is fixed and the seed sets only its order, as for
figures_all, so that every seed attempts the same jobs and meets the same
oracle failures.  No draw is dropped or re-drawn after the fact.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"

# the oracle's documented failures, by exit code: a tripped trace or
# positivity gate (3) and a trace distance beyond --tol (4), told apart from
# any other error by the start of the CLI's message
ORACLE_FAILURES = {3: ("numerical failure: eigenvalue ", "numerical failure: trace drifted "),
                   4: ("tolerance exceeded: ",)}

DAMPED_STEPS = 100
COMPARE_TMAX = 10.0
COMPARE_STEPS = 20
COMPARE_TOL = 1e-4        # the compare command's default --tol
COMPARE_INPUTS = ("fock:1,0", "noon:1", "fock:2,0", "fock:1,1", "noon:2",
                  "fock:3,0", "fock:2,1", "noon:3", "fock:4,0", "fock:3,1",
                  "fock:2,2", "noon:4")
COMPARE_J_STRATA = 4
COMPARE_GAMMA_STRATA = 3
TMSV_CUTOFFS = (24, 26, 28, 30, 32, 34, 36, 40)
TMSV_GATE = 1e-6          # acceptance criterion 7's Fock-vs-Gaussian gate
TMSV_TRUNCATION = 1e-7    # largest analytic truncation gap a draw may carry
FIGURE_RTOL = 1e-9
FIGURE_ATOL = 1e-12
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple = ()          # CLI route
    r: float = 0.0            # library route: squeezing and grid cutoff
    cutoff: int = 0


@dataclass
class Outcome:
    seconds: float
    code: int | None          # exit code; None when an exception escaped
    output: str
    message: str
    rows: int = 0             # output rows completed
    failed: bool = False
    incorrect: bool = False
    problem: str = ""
    identical: bool = False   # byte-identical to a stored reference CSV


def _num(value: float) -> str:
    return "%.6g" % value


# --- job lists ---------------------------------------------------------------

def damped_jobs(rng: random.Random, size: str) -> list[Job]:
    photons = range(2, 4) if size == "smoke" else range(2, 11)
    jobs = []
    for n in photons:
        # the input kind is part of the stratum, not a draw: the median job
        # (6 photons) then has the same kind on every seed, and job_p50_s
        # does not move with it
        if n % 2 == 0:
            spec = f"noon:{n}"
        else:
            a = rng.randint(0, n)
            spec = f"fock:{a},{n - a}"
        coupling, gamma = _num(rng.uniform(0.25, 3.0)), _num(rng.uniform(0.0, 0.1))
        argv = ("damped", "--input", spec, "--J", coupling, "--gamma", gamma,
                "--steps", str(DAMPED_STEPS))
        jobs.append(Job(" ".join(argv), argv))
    return jobs


def compare_jobs(rng: random.Random, size: str) -> list[Job]:
    # a 4 x 3 factorial over the midpoints of the J quarters of [0.5, 1] and
    # the gamma thirds of [0.01, 0.05], one cell per input: the oracle's
    # positivity gate trips at the default dt mostly at high J, so every
    # quarter is sampled equally.  The grid is the same for every seed.
    inputs = ("fock:1,0", "fock:2,2") if size == "smoke" else COMPARE_INPUTS
    j_width = 0.5 / COMPARE_J_STRATA
    g_width = 0.04 / COMPARE_GAMMA_STRATA
    jobs = []
    for i, spec in enumerate(inputs):
        coupling = _num(0.5 + (i % COMPARE_J_STRATA + 0.5) * j_width)
        gamma = _num(0.01 + (i // COMPARE_J_STRATA % COMPARE_GAMMA_STRATA + 0.5) * g_width)
        argv = ("compare", "--input", spec, "--J", coupling, "--gamma", gamma,
                "--tmax", _num(COMPARE_TMAX), "--steps", str(COMPARE_STEPS))
        jobs.append(Job(" ".join(argv), argv))
    rng.shuffle(jobs)
    return jobs


def figure_jobs(rng: random.Random, size: str) -> list[Job]:
    from coupledwg.cli import FIGURES
    jobs = [Job(f"figure {fid}", ("figure", fid, "-o", "-")) for fid in sorted(FIGURES)]
    rng.shuffle(jobs)
    return jobs


def tmsv_truncation_gap(r: float, cutoff: int) -> float:
    """|E_N(truncated TMSV) - E_N(Gaussian TMSV)| from the Schmidt weights
    tanh(r)^n, n <= cutoff, in closed form."""
    lam = math.tanh(r)
    weights = [lam ** n for n in range(cutoff + 1)]
    truncated = 2.0 * math.log2(sum(weights) / math.sqrt(sum(w * w for w in weights)))
    return abs(truncated - 2.0 * r / math.log(2.0))


def tmsv_r_max(cutoff: int) -> float:
    """Largest r <= 1 whose truncation gap at this cutoff stays within
    TMSV_TRUNCATION, so the 1e-6 gate tests the code and not the grid."""
    lo, hi = 0.1, 1.0
    if tmsv_truncation_gap(hi, cutoff) <= TMSV_TRUNCATION:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tmsv_truncation_gap(mid, cutoff) <= TMSV_TRUNCATION else (lo, mid)
    return lo


def tmsv_jobs(rng: random.Random, size: str) -> list[Job]:
    cutoffs = (24,) if size == "smoke" else TMSV_CUTOFFS
    jobs = []
    for cutoff in cutoffs:
        r = float(_num(rng.uniform(0.1, tmsv_r_max(cutoff))))
        jobs.append(Job(f"tmsv r={r:g} cutoff={cutoff}", r=r, cutoff=cutoff))
    return jobs


# --- running one job ---------------------------------------------------------

def run_cli(job: Job) -> Outcome:
    from coupledwg import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception as exc:  # an escaped exception is a failed job
        return Outcome(time.perf_counter() - start, None, out.getvalue(),
                       f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - start, code, out.getvalue(),
                   err.getvalue().strip())


def run_tmsv(job: Job) -> Outcome:
    from coupledwg import fock, gaussian
    start = time.perf_counter()
    try:
        rho = fock.TwoModeDensityMatrix.from_pure(
            gaussian.two_mode_squeezed_state(job.r, job.cutoff))
        en_fock = float(fock.log_negativity(rho))
        entropy = float(fock.von_neumann_entropy(fock.reduced_state(rho)))
        en_gauss = float(gaussian.log_negativity_gaussian(gaussian.tmsv_covariance(job.r)))
    except Exception as exc:  # an escaped exception is a failed job
        return Outcome(time.perf_counter() - start, None, "", f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - start, 0,
                   f"{en_fock!r},{entropy!r},{en_gauss!r}", "")


# --- correctness checks ------------------------------------------------------
# Each check returns (rows completed, problem or "").

def _parse_csv(text: str):
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CHECK_TOL * max(1.0, abs(b))


def _flag(argv: tuple, flag: str) -> str:
    return argv[argv.index(flag) + 1]


@functools.lru_cache(maxsize=None)
def _damped_manifest() -> dict:
    path = REF_DIR / "damped" / "manifest.json"
    return json.loads(path.read_text()) if path.exists() else {}


def reference(job: Job) -> str | None:
    """Stored CSV for this exact invocation: every figure id, and the damped
    jobs of the default seed."""
    path = None
    if job.argv[:1] == ("figure",):
        path = REF_DIR / "figures" / f"{job.argv[1]}.csv"
    elif job.label in _damped_manifest():
        path = REF_DIR / "damped" / _damped_manifest()[job.label]
    return path.read_text() if path is not None and path.exists() else None


def compare_csv(text: str, ref: str) -> str:
    """Problem text when text and ref differ beyond FIGURE_ATOL + FIGURE_RTOL
    relative, else ""."""
    if text == ref:
        return ""
    header, rows = _parse_csv(text)
    ref_header, ref_rows = _parse_csv(ref)
    if header != ref_header or len(rows) != len(ref_rows):
        return "header or row count differs from the reference CSV"
    for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for a, b in zip(row, ref_row):
            if abs(a - b) > FIGURE_ATOL + FIGURE_RTOL * abs(b):
                return f"row {k}: {a!r} vs reference {b!r}"
    return ""


def check_damped(job: Job, text: str) -> tuple[int, str]:
    header, rows = _parse_csv(text)
    if header != ["Jt", "E_N", "S", "purity"] or len(rows) != DAMPED_STEPS + 1:
        return 0, f"expected {DAMPED_STEPS + 1} rows of Jt,E_N,S,purity"
    spec = _flag(job.argv, "--input")
    coupling = float(_flag(job.argv, "--J"))
    photons = sum(int(x) for x in spec.partition(":")[2].split(","))
    # the pure input: a NOON state carries one ebit, a Fock product none
    start = 1.0 if spec.startswith("noon:") else 0.0
    if not (_close(rows[0][1], start) and _close(rows[0][2], start)
            and _close(rows[0][3], 1.0)):
        return 0, f"t=0 row {rows[0]} differs from the input's exact (E_N, S, purity)"
    for k, (jt, en, s, pur) in enumerate(rows):
        if not _close(jt, coupling * 2.0 * math.pi * k / DAMPED_STEPS):
            return 0, f"row {k}: Jt {jt} off the time grid"
        if en < 0.0 or not 0.0 <= s <= math.log2(photons + 1) + CHECK_TOL \
                or not 0.0 < pur <= 1.0:
            return 0, f"row {k}: E_N {en}, S {s}, purity {pur} out of range"
    return len(rows), ""


def check_compare(job: Job, text: str) -> tuple[int, str]:
    header, rows = _parse_csv(text)
    if len(header) != 6 or len(rows) != COMPARE_STEPS + 1:
        return 0, f"expected {COMPARE_STEPS + 1} rows of 6 columns"
    coupling = float(_flag(job.argv, "--J"))
    for k, row in enumerate(rows):
        if not _close(row[0], coupling * COMPARE_TMAX * k / COMPARE_STEPS):
            return 0, f"row {k}: Jt {row[0]} off the time grid"
        if not 0.0 <= row[2] <= COMPARE_TOL:
            return 0, f"row {k}: trace distance {row[2]} outside [0, {COMPARE_TOL:g}]"
    if any(abs(v) > CHECK_TOL for v in rows[0][1:]):
        return 0, "t=0 row: closed form and oracle differ on the input state"
    return len(rows), ""


def check_figure(job: Job, text: str) -> tuple[int, str]:
    if reference(job) is None:
        return 0, "no reference CSV for this figure id"
    return text.count("\n") - 1, ""


def tmsv_entropy(r: float, cutoff: int) -> float:
    """Reduced-state entropy (bits) of the grid-normalized TMSV: the Schmidt
    probabilities are tanh(r)^(2n) / sum, n <= cutoff."""
    lam2 = math.tanh(r) ** 2
    weights = [lam2 ** n for n in range(cutoff + 1)]
    total = sum(weights)
    return -sum(w / total * math.log2(w / total) for w in weights if w > 0.0)


def check_tmsv(job: Job, text: str) -> tuple[int, str]:
    en_fock, entropy, en_gauss = (float(v) for v in text.split(","))
    if abs(en_fock - en_gauss) > TMSV_GATE:
        return 0, (f"|E_N(Fock) - E_N(Gaussian)| = {abs(en_fock - en_gauss):.3e} "
                   f"> {TMSV_GATE:g}")
    if not _close(entropy, tmsv_entropy(job.r, job.cutoff)):
        return 0, f"entropy {entropy!r} vs {tmsv_entropy(job.r, job.cutoff)!r}"
    return 1, ""


WORKLOADS = {
    "damped_curves": (damped_jobs, run_cli, check_damped),
    "oracle_compare": (compare_jobs, run_cli, check_compare),
    "figures_all": (figure_jobs, run_cli, check_figure),
    "tmsv_crosscheck": (tmsv_jobs, run_tmsv, check_tmsv),
}

# time allowed for one pass over each job list: run.py makes --seconds / this
# many timed passes.  It is the nominal pass time on the reference host (2
# cores, one BLAS thread), but half of it for figures_all, which so measures
# twice as long: its short, interpreter-bound passes follow the host's speed
# shifts most (1.8x, against 1.3x for damped_curves)
PASS_SECONDS = {"damped_curves": 4.0, "oracle_compare": 4.0, "figures_all": 0.4,
                "tmsv_crosscheck": 3.0}


def make_jobs(name: str, seed: int, size: str) -> list[Job]:
    return WORKLOADS[name][0](random.Random(seed), size)


def run_job(name: str, job: Job) -> Outcome:
    return WORKLOADS[name][1](job)


def judge(name: str, job: Job, outcome: Outcome) -> None:
    """Classify an outcome in place.  Every nonzero exit, escaped exception
    or output that fails its check fails the job and makes the run incorrect,
    except an oracle_compare job's documented oracle failure, which only
    fails the job."""
    if outcome.code != 0:
        outcome.failed = True
        outcome.incorrect = not (
            name == "oracle_compare"
            and outcome.message.startswith(ORACLE_FAILURES.get(outcome.code, ())))
        outcome.problem = f"exit {outcome.code}: {outcome.message}"
        return
    try:
        outcome.rows, outcome.problem = WORKLOADS[name][2](job, outcome.output)
        ref = reference(job)
        if ref is not None:
            outcome.identical = outcome.output == ref
            outcome.problem = outcome.problem or compare_csv(outcome.output, ref)
    except (ValueError, IndexError) as exc:
        outcome.problem = f"unparsable output: {exc}"
    outcome.failed = outcome.incorrect = bool(outcome.problem)
    if outcome.failed:
        outcome.rows = 0
