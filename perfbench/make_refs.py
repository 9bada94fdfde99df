"""Regenerate the reference CSVs the benchmark checks outputs against.

    python3 perfbench/make_refs.py

Writes perfbench/ref/figures/<id>.csv for every figure id, and the CSVs of
the damped_curves jobs of the default seed (0) with a manifest that maps each
invocation to its file.  Run it only when an output change is intended; the
diff of ref/ then shows every digit that moved.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REF_DIR, make_jobs, run_cli  # noqa: E402


def write(job, path: Path) -> None:
    outcome = run_cli(job)
    if outcome.code != 0:
        raise SystemExit(f"{job.label}: exit {outcome.code}: {outcome.message}")
    path.write_text(outcome.output, encoding="ascii")


def main() -> None:
    (REF_DIR / "figures").mkdir(parents=True, exist_ok=True)
    for job in make_jobs("figures_all", 0, "full"):
        write(job, REF_DIR / "figures" / f"{job.argv[1]}.csv")
    damped = REF_DIR / "damped"
    damped.mkdir(exist_ok=True)
    manifest = {}
    for index, job in enumerate(sorted(make_jobs("damped_curves", 0, "full"),
                                       key=lambda j: j.label)):
        name = f"seed0-{index}.csv"
        write(job, damped / name)
        manifest[job.label] = name
    (damped / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
