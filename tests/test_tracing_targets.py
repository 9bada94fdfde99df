"""The benchmark's tracer patches coupledwg by name; a rename must fail here,
not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.CACHES
    for module_name, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            (module_name, attr)
    for module_name, attr in tracing.CACHES:
        fn = getattr(importlib.import_module(module_name), attr)
        assert callable(getattr(fn, "cache_info", None)), (module_name, attr)
