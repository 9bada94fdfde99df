"""coupledwg benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
run measures set-up in fresh interpreters, makes one untimed warm-up pass
over the seeded job list, then a fixed number of timed passes: --seconds
(default: run_seconds of BENCHMARK.json) divided by the workload's nominal
pass time, so that a seed always attempts the same jobs.  With --trace 0 it
prints the end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates
untraced and traced passes, half as many of each, and prints the per-layer
metrics.
The last stdout line is the JSON result; a fuller report (environment,
failing jobs, latency tail) goes to perfbench/out/.
"""

import os

# pinned before numpy loads, here and in every child interpreter
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import coupledwg, coupledwg.cli; "
               "print(time.perf_counter() - t0)")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv, run_seconds: int):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("damped_curves", "oracle_compare", "figures_all",
                                 "tmsv_crosscheck"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for perfbench/smoke.py")
    return parser.parse_args(argv)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(runs: int) -> list[float]:
    """Import time of coupledwg and coupledwg.cli in fresh interpreters, after
    one untimed import that leaves the bytecode cache warm."""
    def probe() -> float:
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        return float(done.stdout)
    probe()
    return [probe() for _ in range(runs)]


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": caches, "seed": seed}


class Runner:
    """Runs passes over one fixed job list and checks every outcome against
    its correctness check and against the job's first output in the run."""

    def __init__(self, workload: str, jobs: list):
        self.workload = workload
        self.jobs = jobs
        self.baseline = {}
        self.failures = {}
        self.mismatches = 0

    def run_pass(self, tracer=None) -> dict:
        from workloads import judge, run_job
        outcomes = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for index, job in enumerate(self.jobs):
                if tracer is None:
                    outcomes.append(run_job(self.workload, job))
                else:
                    outcomes.append(tracer.job_span(index, lambda: run_job(self.workload, job)))
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        for index, (job, outcome) in enumerate(zip(self.jobs, outcomes)):
            judge(self.workload, job, outcome)
            if outcome.failed:
                self.failures.setdefault(job.label, outcome.problem)
            result = (outcome.code, outcome.output)
            if self.baseline.setdefault(index, result) != result:
                self.mismatches += 1
                outcome.incorrect = True
                self.failures.setdefault(job.label, "output differs from its first run")
            outcome.output = ""  # checked; keeping it would grow RSS with the pass count
        return {"wall": wall, "outcomes": outcomes}


def tail(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"jobs": n, "p50_s": statistics.median(ordered)}
    for pct in TAIL_PERCENTILES:
        beyond = n - int(n * pct / 100.0)
        if beyond >= 10:
            out.update(percentile=pct, value_s=ordered[n - beyond], jobs_beyond=beyond)
            break
    return out


def latencies(passes: list[dict]) -> list[float]:
    """Latencies of the jobs that completed (all jobs if none did): a failed
    oracle run aborts early, and with about half the compare jobs failing a
    median over all jobs would sit between the two modes."""
    outcomes = [o for p in passes for o in p["outcomes"]]
    return [o.seconds for o in outcomes if not o.failed] or [o.seconds for o in outcomes]


def job_means(passes: list[dict]) -> list[float]:
    """Each job's mean latency over the passes, for the jobs that completed
    (all jobs if none did)."""
    per_job = list(zip(*(p["outcomes"] for p in passes)))
    done = [runs for runs in per_job if not runs[0].failed] or per_job
    return [statistics.mean(o.seconds for o in runs) for runs in done]


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    """Timings are means over the passes, medians over jobs.  On a shared
    2-core x86 host the speed of a pass shifted by up to 1.8x within tens of
    seconds (one figures_all run saw passes of 0.49 to 0.99 s); a median pass
    then jumps with the share of slow phases in the run, while the mean moves
    in proportion to it.  The pass walls and the latency median and tail are
    in the report."""
    timed = sum(p["wall"] for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": timed / len(passes),
        "points_per_s": sum(o.rows for p in passes for o in p["outcomes"]) / timed,
        "job_p50_s": statistics.median(job_means(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names: list[str], totals: dict, untraced: list[dict], traced: list[dict],
              warmup: dict) -> dict:
    measured = [o for p in untraced + traced for o in p["outcomes"]]
    traced_wall = statistics.mean(p["wall"] for p in traced)
    special = {
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.mean(p["wall"] for p in untraced),
        "jobs.fail_share": sum(o.failed for o in measured) / len(measured),
        "check.byte_identical_csvs": float(sum(o.identical for o in warmup["outcomes"])),
        "lindblad.useful_step_ratio": (
            totals["lindblad.integrate.useful_steps"] / totals["lindblad.integrate.attempted_steps"]
            if totals.get("lindblad.integrate.attempted_steps") else 0.0),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.endswith((".hit_ratio", ".max_n")):
            values[name] = totals.get(name, 0.0)
        else:
            values[name] = totals.get(name, 0.0) / len(traced)
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec["run_seconds"])
    if not (SRC / "coupledwg" / "__init__.py").is_file():
        print(f"perfbench: no coupledwg sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    setup = measure_setup(3 if args.size == "smoke" else 11)

    sys.path.insert(0, str(SRC))
    import coupledwg
    import coupledwg.cli  # noqa: F401
    if Path(coupledwg.__file__).resolve().parent != SRC / "coupledwg":
        print(f"perfbench: imported coupledwg from {coupledwg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import PASS_SECONDS, make_jobs

    env = environment(args.seed)
    runner = Runner(args.workload, make_jobs(args.workload, args.seed, args.size))
    warmup = runner.run_pass()
    untraced, traced = [], []
    tracer = Tracer() if args.trace else None
    # a pass count fixed by --seconds, not by the clock: the same seed then
    # attempts the same jobs however fast the host runs
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    if tracer is not None:
        passes = (passes + 1) // 2
    for _ in range(passes):
        untraced.append(runner.run_pass())
        if tracer is not None:
            traced.append(runner.run_pass(tracer))

    measured = [o for p in untraced + traced for o in p["outcomes"]]
    e2e = end_to_end(setup, untraced)
    if tracer is None:
        wanted, values = spec["end_to_end"], e2e
    else:
        wanted = spec["per_layer"]
        totals = tracer.layer_totals()
        values = per_layer([m["name"] for m in wanted], totals, untraced, traced, warmup)
    correct = not any(o.incorrect for p in [warmup] + untraced + traced for o in p["outcomes"])
    result = {"correct": correct, "attempted": len(measured),
              "failed": sum(o.failed for o in measured),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}

    latency = tail(latencies(untraced))
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "env": env,
              "jobs": {job.label: [p["outcomes"][index].seconds for p in untraced]
                       for index, job in enumerate(runner.jobs)},
              "passes": {"untraced_wall_s": [p["wall"] for p in untraced],
                         "traced_wall_s": [p["wall"] for p in traced]},
              "setup_runs_s": setup, "latency": latency, "end_to_end": e2e,
              "failures": runner.failures,
              "outputs_repeat": runner.mismatches == 0, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        report["layer_totals"] = totals
        report["share_of_traced_wall"] = {
            name: value / values["trace.wall_s"] for name, value in values.items()
            if name.endswith("_s") and not name.startswith("trace.")}
        tracer.write_spans(str(OUT / f"{stem}-spans.csv"))
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} jobs={len(runner.jobs)}")
    print("env " + json.dumps(env))
    print("latency " + json.dumps(latency))
    for label, problem in runner.failures.items():
        print(f"failed: {label}: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
