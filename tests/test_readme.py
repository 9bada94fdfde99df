import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs(tmp_path):
    # the single python block of the README, in a fresh interpreter that
    # turns every warning into an error
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    printed = [float(line) for line in run.stdout.split()]
    # the values its comments name: the HOM dip and the peak entropy
    assert printed[:2] == pytest.approx([1.0, 1.5], abs=1e-12)
