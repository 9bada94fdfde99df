"""A seeded fuzz of the command line over its own flag table, and the argvs
it has caught, pinned by name.

Every argv runs in process through cli.main, with warnings raised as errors
(pyproject.toml).  Whatever the values, the run must end in a documented
exit code (0, 2, 3 or 4), a typed failure (3 or 4) must print exactly one
stderr line, and no other exception may escape.
"""

import math
import random

import pytest

from coupledwg import cli
from coupledwg.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main

SEED = 20
DRAWS = 400
# the values drawn for a numeric flag: zeros, the smallest and a tiny
# normal float, a plain value, values that overflow exp and cosh, the
# largest floats
EDGES = ("0", "-0", "5e-324", "1e-300", "0.5", "700", "1e6", "1e308", "-1e308")
# flags whose large values cost run time rather than reach new code: steps,
# sizes and the oracle's step count t_max / dt stay small or are refused
BOUNDED = {
    "steps": ("0", "-0", "2", "3", "0.5", "1e6", "-1e308"),
    "cutoff": ("0", "-0", "2", "4", "0.5", "1e308"),
    "N": ("0", "-0", "2", "5", "0.5", "1e308"),
    "dt": ("0", "-0", "5e-324", "1e-300", "0.05", "0.5", "1e308"),
}
COMPARE_TMAX = ("0", "-0", "5e-324", "1e-300", "0.25", "0.5")
STRINGS = {
    "input": ("fock:1,1", "noon:2", "fock:0,3", "thermal:1,1", "tmsv:0.5", "tmsv:1e308",
              "noon:0"),
    "variant": ("as-printed", "rate-times-t", "normalized", ""),
    "sweep": ("jt", "nbar", "x"),
}
# written elsewhere by the test, or only a debug dump
SKIPPED = ("output", "dump_states")


def _draw(rng, command):
    argv = [command]
    if command == "figure":
        argv.append(rng.choice(("1a", "3b", "5a", "6", "9z")))
    for flag in cli._COMMANDS[command].flags:
        if flag in SKIPPED or rng.random() < 0.5:
            continue
        if flag in STRINGS:
            value = rng.choice(STRINGS[flag])
        elif command == "compare" and flag == "tmax":
            value = rng.choice(COMPARE_TMAX)
        else:
            value = rng.choice(BOUNDED.get(flag, EDGES))
        argv += ["--" + flag.replace("_", "-"), value]
    if command == "compare" and "--dt" not in argv:
        # the default step shrinks with the rates: 1e6 steps would take minutes
        argv += ["--dt", rng.choice(BOUNDED["dt"])]
    if command == "compare" and "--tmax" not in argv:
        argv += ["--tmax", rng.choice(COMPARE_TMAX)]
    return argv


def _argvs():
    rng = random.Random(SEED)
    commands = sorted(cli._COMMANDS)
    return [_draw(rng, rng.choice(commands)) for _ in range(DRAWS)]


def _run(argv, tmp_path, capsys):
    try:
        code = main(argv + ["-o", str(tmp_path / "fuzz.csv")])
    except BaseException as exc:  # noqa: BLE001 - any escape is the finding
        pytest.fail(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
    return code, capsys.readouterr().err


def test_fuzzed_argvs_end_in_documented_exits(tmp_path, capsys):
    codes = set()
    for argv in _argvs():
        code, err = _run(argv, tmp_path, capsys)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_TOLERANCE), argv
        if code in (EXIT_NUMERICAL, EXIT_TOLERANCE):
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        codes.add(code)
    # the draw reaches successful runs, usage errors and numerical failures
    assert {EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL} <= codes


# argvs that once ended in a traceback or a misleading message, each with its
# exit code and the start of its stderr
@pytest.mark.parametrize("argv, code, err", [
    pytest.param("gaussian --r 1e308 --steps 3", EXIT_NUMERICAL,
                 "numerical failure: squeezing r = 1e+308 overflows a float", id="r-1e308"),
    pytest.param("gaussian --input tmsv:1e308 --steps 3", EXIT_NUMERICAL,
                 "numerical failure: squeezing r = 1e+308 overflows a float",
                 id="tmsv-1e308"),
    pytest.param("gaussian --r 200 --steps 3", EXIT_NUMERICAL,
                 "numerical failure: symplectic invariants overflow a float (Delta inf)",
                 id="r-200"),
    # every input is finite, but n1 cosh^2 r1 overflows
    pytest.param("gaussian --nbar 1e308 --r 1 --steps 3", EXIT_NUMERICAL,
                 "numerical failure: occupation term n1 cosh^2 r1 + n2 sinh^2 r1 overflows "
                 "a float at n1 = 1e+308, n2 = 1e+308", id="nbar-1e308-r-1"),
    # theta underflows at t > 0, and so does J t in the first column
    pytest.param("purity --J 1e-12 --tmax 5e-324", EXIT_NUMERICAL,
                 "numerical failure: first CSV column must be finite and strictly increasing",
                 id="purity-theta-underflow"),
    pytest.param("damped --J -1e308 --steps 3", EXIT_USAGE,
                 "usage error: J must be > 0, got -1e+308", id="J-minus-1e308"),
])
def test_pinned_argvs(argv, code, err, tmp_path, capsys):
    got_code, got_err = _run(argv.split(), tmp_path, capsys)
    assert (got_code, got_err.splitlines()) == (code, [err])


@pytest.mark.parametrize("value", ["-1e3", "-1.5E+2", "-.5e-3", "-2", "-0.25"])
def test_negative_values_parse_in_both_spellings(value, tmp_path):
    texts = []
    for argv in (["--omega", value], ["--omega=" + value]):
        out = tmp_path / "omega.csv"
        assert main(["lossless", "--steps", "3", *argv, "-o", str(out)]) == EXIT_OK
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    cfg = cli.config_from_args(cli.build_parser().parse_args(["lossless", "--omega", value]))
    assert cfg.omega == float(value) and math.isfinite(cfg.omega)
