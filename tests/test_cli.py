import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coupledwg import cli, lossless
from coupledwg.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    build_parser,
    config_from_args,
    main,
    parse_state_spec,
)
from coupledwg.damped import DampedParams, purity_closed
from coupledwg.errors import NumericalError


def read_csv(path):
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def test_parse_state_spec_kinds():
    assert parse_state_spec("fock:1,1").kind == "fock"
    assert parse_state_spec("fock:1,1").params == (1, 1)
    assert parse_state_spec("noon:4").params == (4,)
    assert parse_state_spec("thermal:0.5,1.5").params == (0.5, 1.5)
    assert parse_state_spec("tmsv:0.25").params == (0.25,)


@pytest.mark.parametrize("bad", [
    "noon:-1", "noon:0", "fock:1", "fock:-1,0", "thermal:-1,0",
    "tmsv:nan", "squeezed:1", "noon", "fock:a,b", "",
])
def test_parse_state_spec_rejects(bad):
    with pytest.raises(UsageError) as err:
        parse_state_spec(bad)
    # the error must name the grammar
    assert "fock:<na>,<nb>" in str(err.value)


def test_runconfig_invariants():
    with pytest.raises(UsageError):
        RunConfig(command="lossless", steps=1)
    with pytest.raises(UsageError):
        RunConfig(command="lossless", t_max=0.0)
    with pytest.raises(UsageError):
        RunConfig(command="lossless", input_spec="fock:2,2", cutoff=3)
    cfg = RunConfig(command="lossless", input_spec="fock:2,2", cutoff=4)
    assert cfg.cutoff == 4


def test_lossless_example_dips_at_one(tmp_path):
    out = tmp_path / "hom.csv"
    code = main(["lossless", "--input", "fock:1,1", "--J", "1",
                 "--tmax", "3.1416", "--steps", "100", "-o", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["Jt", "E_N", "S"]
    assert rows.shape == (101, 3)
    nearest = np.argmin(np.abs(rows[:, 0] - math.pi / 4))
    assert abs(rows[nearest, 1] - 1.0) < 1e-4
    assert np.all(np.diff(rows[:, 0]) > 0)


def test_figure_1d_columns_and_peak(tmp_path):
    out = tmp_path / "fig1d.csv"
    assert main(["figure", "1d", "-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["Jt", "S_N2", "S_N3", "S_N4", "S_N5"]
    assert abs(rows[:, 1].max() - 1.5) < 1e-9


def test_compare_example_within_tolerance(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["compare", "--input", "noon:2", "--gamma", "0.05",
                 "--J", "0.5", "-o", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[:3] == ["Jt", "max_abs_entry", "trace_distance"]
    assert rows.shape[0] == 21
    assert rows[:, 2].max() < 1e-4


def test_compare_tolerance_exceeded_exit(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["compare", "--input", "fock:1,1", "--gamma", "0.05",
                 "--J", "0.5", "--tmax", "2", "--steps", "4",
                 "--tol", "1e-18", "-o", str(out)])
    assert code == EXIT_TOLERANCE
    assert "tolerance" in capsys.readouterr().err
    # the report is still written before the verdict
    header, rows = read_csv(out)
    assert rows.shape[0] == 5


def test_compare_numerical_failure_exit(tmp_path, capsys):
    code = main(["compare", "--input", "noon:2", "--gamma", "5",
                 "--J", "0.5", "--dt", "0.5", "--tmax", "1", "--steps", "2",
                 "-o", str(tmp_path / "x.csv")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_compare_dump_states(tmp_path):
    dump = tmp_path / "states.csv"
    code = main(["compare", "--input", "fock:1,1", "--gamma", "0.01",
                 "--J", "0.5", "--tmax", "2", "--steps", "4",
                 "--dump-states", str(dump), "-o", str(tmp_path / "r.csv")])
    assert code == EXIT_OK
    header, rows = read_csv(dump)
    assert header == ["t", "row", "col", "real", "imag"]
    assert rows.shape[0] == 5 * 81  # five samples of a 9x9 grid


@pytest.mark.parametrize("argv", [
    ["lossless", "--input", "noon:-1"],
    ["lossless", "--steps", "1"],
    ["lossless", "--input", "fock:2,2", "--cutoff", "1"],
    ["figure", "9z"],
    ["thermal", "--variant", "rate-times-t"],
    ["purity", "--variant", "normalized"],
    ["noon", "--input", "fock:1,1"],
    ["gaussian", "--input", "noon:2"],
    ["compare", "--input", "fock:1,1", "--gamma", "0.05", "--J", "0.5", "--tmax", "2",
     "--steps", "4", "--tol", "nan"],
    ["thermal", "--sweep", "nbar", "--jt", "nan", "--steps", "4"],
    ["damped", "--J", "0"],
    ["purity", "--J", "0"],
    ["damped", "--gamma", "-1"],
    ["lossless", "--omega", "nan"],
    ["gaussian", "--r", "inf"],
    ["gaussian", "--nbar", "nan"],
    ["compare", "--dt", "nan"],
    ["thermal", "--sweep", "nbar", "--nbar-max", "inf"],
    ["thermal", "--input", "thermal:1,2", "--sweep", "nbar", "--steps", "4"],
    ["thermal", "--input", "thermal:1,2", "--steps", "4"],
    ["thermal", "--input", "thermal:inf,inf", "--steps", "2"],
])
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    assert main(argv + ["-o", str(tmp_path / "x.csv")]) == EXIT_USAGE
    capsys.readouterr()


# finite values whose arithmetic overflows a float: one typed line, exit 3
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["gaussian", "--r", "400", "--steps", "2"],
    ["gaussian", "--input", "tmsv:400", "--steps", "2"],
    ["thermal", "--N", "2000", "--steps", "2"],
    ["purity", "--J", "1e308", "--steps", "2"],
    ["lossless", "--input", "noon:1", "--J", "1e308", "--steps", "2"],
    ["gaussian", "--nbar", "1e308", "--steps", "2"],
    ["gaussian", "--r", "300", "--steps", "2"],
    ["lossless", "--tmax", "1e308", "--steps", "2"],
    ["damped", "--input", "noon:1", "--omega", "1e308", "--steps", "2"],
    ["compare", "--J", "1e308", "--steps", "2"],
    ["noon", "--J", "1e308", "--steps", "2"],
    ["thermal", "--sweep", "nbar", "--N", "2000", "--steps", "2"],
    ["damped", "--input", "noon:3", "--cutoff", "2000", "--steps", "2"],
    ["gaussian", "--J", "1e308", "--steps", "2"],
    ["compare", "--J", "1e6"],
    ["compare", "--J", "1e6", "--dt", "1e-3"],
])
def test_overflowing_values_exit_three(argv, tmp_path, capsys):
    assert main(argv + ["-o", str(tmp_path / "x.csv")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


# the occupation weights at these nbar hold in a float, though nbar^n and
# (nbar + 1)^(n + 1) do not; their squares underflow to 0, and so does S
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, want", [
    (["thermal", "--nbar", "1e308", "--steps", "2"],
     (["Jt", "S"], [[0.0, 0.0], [0.785398163397, 0.0], [1.57079632679, 0.0]])),
    (["thermal", "--sweep", "nbar", "--nbar-max", "1e308", "--steps", "2"],
     (["nbar", "S"], [[0.0, 0.5], [5e307, 0.0], [1e308, 0.0]])),
])
def test_huge_occupations_exit_ok(argv, want, tmp_path):
    out = tmp_path / "x.csv"
    assert main(argv + ["-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert (header, rows.tolist()) == want


def test_noon_refuses_large_n_before_the_noon_eigensolve(monkeypatch, tmp_path, capsys):
    # the S column's binomial table refuses N = 2000 before the E_N column
    # reaches a sector eigensolve, which would take seconds at that size
    calls = []

    def eigensystem(total):
        calls.append(total)
        raise NumericalError("sector eigensolve reached")
    monkeypatch.setattr(lossless, "_sector_eigensystem", eigensystem)
    code = main(["noon", "--N", "2000", "--steps", "2", "-o", str(tmp_path / "x.csv")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("argv", [["damped", "--steps", "100"], ["compare"]])
def test_propagator_called_once_per_run(argv, monkeypatch, tmp_path):
    # the whole time grid is one batched call, not one call per row
    calls = []
    propagate = cli.evolve_damped_exact
    monkeypatch.setattr(cli, "evolve_damped_exact",
                        lambda *args: calls.append(args) or propagate(*args))
    assert main(argv + ["-o", str(tmp_path / "x.csv")]) == EXIT_OK
    assert len(calls) == 1


def test_unknown_subcommand_exits_two(capsys):
    assert main(["bogus"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unwritable_output_exits_two(capsys):
    code = main(["figure", "1a", "-o", "/nonexistent-dir/x.csv"])
    assert code == EXIT_USAGE
    assert "cannot write" in capsys.readouterr().err


def test_stdout_when_no_output_flag(capsys):
    assert main(["purity", "--steps", "4", "--J", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "Jt,purity"
    assert len(lines) == 6
    assert lines[1].startswith("0,1")


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "wg.conf"
    conf.write_text("J = 2.0\nsteps = 4\n# comment\n\ntmax = 1.0\n")
    out1 = tmp_path / "a.csv"
    assert main(["lossless", "--config", str(conf), "-o", str(out1)]) == EXIT_OK
    _, rows = read_csv(out1)
    assert rows.shape[0] == 5
    assert abs(rows[-1, 0] - 2.0) < 1e-12  # Jt = J * tmax from the config
    out2 = tmp_path / "b.csv"
    assert main(["lossless", "--config", str(conf), "--J", "4",
                 "-o", str(out2)]) == EXIT_OK
    _, rows2 = read_csv(out2)
    assert abs(rows2[-1, 0] - 4.0) < 1e-12  # flag beats config


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("bogus = 1\n")
    assert main(["lossless", "--config", str(bad)]) == EXIT_USAGE
    noval = tmp_path / "noval.conf"
    noval.write_text("just a line\n")
    assert main(["lossless", "--config", str(noval)]) == EXIT_USAGE
    assert main(["lossless", "--config", str(tmp_path / "missing.conf")]) == EXIT_USAGE
    badval = tmp_path / "badval.conf"
    badval.write_text("steps = much\n")
    assert main(["lossless", "--config", str(badval)]) == EXIT_USAGE
    capsys.readouterr()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["figure", "1c", "-o", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_no_negative_zero_in_output(tmp_path):
    out = tmp_path / "fig1d.csv"
    assert main(["figure", "1d", "-o", str(out)]) == EXIT_OK
    assert "-0," not in out.read_text()


def test_figure_matches_direct_library_call(tmp_path):
    out = tmp_path / "fig5a.csv"
    assert main(["figure", "5a", "-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["Jt", "P_gamma0.01", "P_gamma0.05", "P_gamma0.1"]
    p = DampedParams(0.0, 3.0, 0.05)
    times = np.linspace(0.0, 20.0, 401)
    direct = np.array([float(purity_closed(p, float(t))) for t in times])
    # same code path, so agreement is limited only by the 12-digit printing
    assert np.max(np.abs(rows[:, 2] - direct)) < 1e-11


def test_thermal_sweep_headers(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thermal", "--sweep", "nbar", "--steps", "4",
                 "--nbar-max", "2", "-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["nbar", "S"]
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 2.0
    out2 = tmp_path / "t2.csv"
    assert main(["thermal", "--input", "thermal:1,1", "--steps", "4",
                 "--variant", "normalized", "-o", str(out2)]) == EXIT_OK
    header2, _ = read_csv(out2)
    assert header2 == ["Jt", "S"]


def test_gaussian_accepts_tmsv_input(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["gaussian", "--input", "tmsv:0.5", "--gamma", "0",
                 "--steps", "4", "-o", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    # lossless squeezed input: E_N stays at 2r/ln2
    assert np.allclose(rows[:, 1], 1.0 / math.log(2.0), atol=1e-9)


def test_damped_columns(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["damped", "--input", "fock:1,1", "--gamma", "0.05",
                 "--J", "0.5", "--tmax", "2", "--steps", "4",
                 "-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["Jt", "E_N", "S", "purity"]
    assert rows[0, 3] == 1.0
    assert np.all(np.diff(rows[:, 3]) < 0)  # loss keeps eroding purity here


def test_damped_large_gamma_t_gives_vacuum_rows(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["damped", "--input", "noon:2", "--J", "1", "--gamma", "200",
                 "--tmax", "5", "--steps", "4", "-o", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    # gamma t = 750 and 1000: E_N = S = 0, purity 1
    assert np.array_equal(rows[3:, 1:], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


def test_purity_large_gamma_t_exits_ok(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["purity", "--J", "1", "--gamma", "200", "--tmax", "5",
                 "--steps", "4", "-o", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert rows[-1, 1] == pytest.approx(0.0839, abs=1e-4)  # gamma t = 1000
    assert np.all((rows[:, 1] > 0.0) & (rows[:, 1] <= 1.0))


def test_all_figure_ids_run(tmp_path):
    for fig in ("1a", "2b", "2c", "3b", "4a", "4b", "5b", "6"):
        out = tmp_path / f"fig{fig}.csv"
        assert main(["figure", fig, "-o", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert len(header) == rows.shape[1]
        assert np.all(np.diff(rows[:, 0]) > 0)


# The CLI surface, written out by hand: the options each command accepts and
# the settings it resolves when given none.
_COMMAND_OPTIONS = {
    "lossless": ("--input", "--omega", "--J", "--tmax", "--steps", "--cutoff"),
    "noon": ("--input", "--N", "--J", "--tmax", "--steps"),
    "thermal": ("--input", "--N", "--nbar", "--J", "--tmax", "--steps",
                "--variant", "--sweep", "--jt", "--nbar-max"),
    "damped": ("--input", "--omega", "--J", "--gamma", "--tmax", "--steps", "--cutoff"),
    "gaussian": ("--input", "--omega", "--J", "--gamma", "--r", "--nbar", "--tmax",
                 "--steps"),
    "purity": ("--omega", "--J", "--gamma", "--tmax", "--steps", "--variant"),
    "compare": ("--input", "--omega", "--J", "--gamma", "--tmax", "--steps", "--cutoff",
                "--dt", "--tol", "--dump-states"),
    "figure": (),
}

_BASE_SETTINGS = dict(
    omega=0.0, coupling=1.0, gamma=0.0, nbar=1.0, squeeze=0.25, total=2, cutoff=None,
    t_max=math.pi, steps=100, input_spec="fock:1,1", output_path=None,
    variant="as-printed", dt=None, tol=1e-4, sweep="jt", jt_fixed=math.pi / 4,
    nbar_max=8.0, dump_states=None, figure_id=None)

_COMMAND_SETTINGS = {
    "lossless": {},
    "noon": {"input_spec": ""},
    "thermal": {"input_spec": "", "t_max": math.pi / 2},
    "damped": {"coupling": 0.5, "gamma": 0.05, "t_max": 2.0 * math.pi},
    "gaussian": {"input_spec": "", "coupling": 0.5, "gamma": 0.05, "t_max": 10.0,
                 "nbar": 0.0},
    "purity": {"coupling": 3.0, "gamma": 0.05, "t_max": 20.0},
    "compare": {"input_spec": "noon:2", "coupling": 0.5, "gamma": 0.05, "t_max": 10.0,
                "steps": 20},
    "figure": {"figure_id": "1a"},
}

_ALL_OPTIONS = sorted({opt for opts in _COMMAND_OPTIONS.values() for opt in opts})


def _head(command):
    return [command, "1a"] if command == "figure" else [command]


@pytest.mark.parametrize("command", sorted(_COMMAND_OPTIONS))
def test_cli_surface_per_command(command, capsys):
    parser = build_parser()
    expected = set(_COMMAND_OPTIONS[command]) | {"--config", "--output", "-o"}
    accepted = set()
    for option in _ALL_OPTIONS + ["--config", "--output", "-o"]:
        try:
            parser.parse_args(_head(command) + [option, "1"])
        except SystemExit:
            continue
        accepted.add(option)
    assert accepted == expected
    cfg = config_from_args(parser.parse_args(_head(command)))
    assert dataclasses.asdict(cfg) == dict(
        _BASE_SETTINGS, command=command, **_COMMAND_SETTINGS[command])
    assert main([command, "--help"]) == EXIT_OK
    capsys.readouterr()


_REF_FIGURES = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "figures"


@pytest.mark.parametrize("figure_id", sorted(p.stem for p in _REF_FIGURES.glob("*.csv")))
def test_figure_csv_byte_identical_to_reference(figure_id, tmp_path):
    out = tmp_path / f"{figure_id}.csv"
    assert main(["figure", figure_id, "-o", str(out)]) == EXIT_OK
    assert out.read_bytes() == (_REF_FIGURES / f"{figure_id}.csv").read_bytes()


# numpy's dispatch held to X86_V2: exp, log2 and the complex loops then take
# other code paths than under AVX-512, and the figures must not notice
_DISPATCH_LIMIT = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
_FIGURES_CHILD = """
import sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    try:
        import numpy
    except RuntimeError as exc:
        caught.append(warnings.WarningMessage(exc, RuntimeWarning, "", 0))
refused = [str(w.message) for w in caught if "NPY_DISABLE_CPU_FEATURES" in str(w.message)]
if refused:
    sys.exit("numpy refused the setting: " + refused[0])
from coupledwg.cli import main
for fid in sys.argv[1:]:
    assert main(["figure", fid, "-o", fid + ".csv"]) == 0
"""


def test_figures_byte_identical_under_a_second_simd_target(tmp_path):
    ids = sorted(p.stem for p in _REF_FIGURES.glob("*.csv"))
    path = [str(_REF_FIGURES.parents[2] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": _DISPATCH_LIMIT,
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", _FIGURES_CHILD, *ids], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    if "numpy refused the setting" in run.stderr:
        pytest.skip(" ".join(run.stderr.split()))
    assert run.returncode == 0, run.stderr
    assert len(ids) == 19
    for fid in ids:
        ref = (_REF_FIGURES / f"{fid}.csv").read_bytes()
        assert (tmp_path / f"{fid}.csv").read_bytes() == ref, fid


_REF_DAMPED = _REF_FIGURES.parent / "damped"
_DAMPED_MANIFEST = json.loads((_REF_DAMPED / "manifest.json").read_text())


@pytest.mark.parametrize("argv", sorted(_DAMPED_MANIFEST))
def test_damped_csv_matches_reference(argv, tmp_path):
    out = tmp_path / "damped.csv"
    assert main(argv.split(" ") + ["-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    ref_header, ref_rows = read_csv(_REF_DAMPED / _DAMPED_MANIFEST[argv])
    assert header == ref_header and rows.shape == ref_rows.shape
    # the benchmark's tolerance: 1e-12 absolute plus 1e-9 relative
    assert np.all(np.abs(rows - ref_rows) <= 1e-12 + 1e-9 * np.abs(ref_rows))
