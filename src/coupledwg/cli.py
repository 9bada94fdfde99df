"""Command-line front end: figure data as CSV, parameter sweeps, and
closed-form-vs-integrator comparisons.

Every data command writes one CSV whose first column is the dimensionless
time Jt (or nbar for occupation sweeps) and whose values carry 12 significant
digits, so identical invocations produce byte-identical files.  Exit codes:
0 success, 2 usage error, 3 numerical failure, 4 comparison out of tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .damped import (
    _PURITY_VARIANTS,
    DampedParams,
    damped_entropy,
    evolve_damped_exact,
    purity_closed,
)
from .errors import CoupledwgError, ToleranceExceeded
from .fock import (
    StateSpec,
    TwoModeDensityMatrix,
    log_negativity,
    make_pure_state,
    pure_log_negativity,
    purity,
    reduced_state,
    von_neumann_entropy,
)
from .gaussian import thermal_evolved_covariance, log_negativity_gaussian
from .lindblad import IntegratorConfig, compare, default_dt, integrate
from .lossless import CouplerParams, entropy_closed, evolve_lossless, noon_log_negativity
from .thermal import _VARIANTS as _THERMAL_VARIANTS, ThermalOccupation, thermal_entropy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_TOLERANCE = 4

_GRAMMAR = "fock:<na>,<nb> | noon:<N> | thermal:<nbar_a>,<nbar_b> | tmsv:<r>"


class UsageError(CoupledwgError):
    """Bad command line, config file, state spec, or output path."""


def parse_state_spec(text: str) -> StateSpec:
    """Parse a state descriptor; the grammar is fock:<na>,<nb> | noon:<N> |
    thermal:<nbar_a>,<nbar_b> | tmsv:<r>."""
    kind, sep, rest = text.partition(":")
    try:
        if not sep:
            raise ValueError
        if kind == "fock":
            na_s, nb_s = rest.split(",")
            na, nb = int(na_s), int(nb_s)
            if na < 0 or nb < 0:
                raise ValueError
            return StateSpec("fock", (na, nb))
        if kind == "noon":
            n = int(rest)
            if n < 1:
                raise ValueError
            return StateSpec("noon", (n,))
        if kind == "thermal":
            a_s, b_s = rest.split(",")
            a, b = float(a_s), float(b_s)
            if not (a >= 0.0 and b >= 0.0):
                raise ValueError
            return StateSpec("thermal", (a, b))
        if kind == "tmsv":
            r = float(rest)
            if not math.isfinite(r):
                raise ValueError
            return StateSpec("tmsv", (r,))
        raise ValueError
    except (ValueError, TypeError):
        raise UsageError(
            f"malformed state spec {text!r}; grammar: {_GRAMMAR}") from None


# flag (also its config-file key) -> (RunConfig field, converter, bound):
# a bound is (comparison, lowest allowed value), or None for any value.
# RunConfig checks the bounds in this order and refuses non-finite floats.
_FLAGS = {
    "steps": ("steps", int, (">=", 2)), "tmax": ("t_max", float, (">", 0)),
    "tol": ("tol", float, (">", 0)), "nbar": ("nbar", float, (">=", 0)),
    "nbar_max": ("nbar_max", float, (">", 0)), "N": ("total", int, (">=", 1)),
    "dt": ("dt", float, (">", 0)), "J": ("coupling", float, (">", 0)),
    "gamma": ("gamma", float, (">=", 0)), "omega": ("omega", float, None),
    "r": ("squeeze", float, None), "jt": ("jt_fixed", float, None),
    "cutoff": ("cutoff", int, None), "input": ("input_spec", str, None),
    "output": ("output_path", str, None), "variant": ("variant", str, None),
    "sweep": ("sweep", str, None), "dump_states": ("dump_states", str, None),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one invocation (flags > config file >
    per-command defaults)."""

    command: str
    omega: float = 0.0
    coupling: float = 1.0
    gamma: float = 0.0
    nbar: float = 1.0
    squeeze: float = 0.25
    total: int = 2
    cutoff: int | None = None
    t_max: float = math.pi
    steps: int = 100
    input_spec: str = "fock:1,1"
    output_path: str | None = None
    variant: str = "as-printed"
    dt: float | None = None
    tol: float = 1e-4
    sweep: str = "jt"
    jt_fixed: float = math.pi / 4
    nbar_max: float = 8.0
    dump_states: str | None = None
    figure_id: str | None = None

    def __post_init__(self):
        for flag, (field, _, bound) in _FLAGS.items():
            value, name = getattr(self, field), flag.replace("_", "-")
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
            if value is not None and bound is not None:
                op, low = bound
                if not (value > low if op == ">" else value >= low):
                    raise UsageError(f"{name} must be {op} {low}, got {value}")
        variants = _COMMANDS[self.command].variants
        if variants and self.variant not in variants:
            raise UsageError(f"{self.command} variant must be one of {variants}")
        if self.sweep not in ("jt", "nbar"):
            raise UsageError(f"sweep must be 'jt' or 'nbar', got {self.sweep!r}")
        if self.cutoff is not None:
            needed = parse_state_spec(self.input_spec).photons_needed()
            if self.cutoff < needed:
                raise UsageError(
                    f"cutoff {self.cutoff} below the {needed} photons of "
                    f"{self.input_spec!r}")


def _fmt(value: float) -> str:
    return "%.12g" % (float(value) + 0.0)  # +0.0 folds -0.0 into 0


def write_csv(path: str | None, header: list, columns: list) -> None:
    """Write columns (equal-length 1-D arrays) as CSV; '-' or None = stdout.
    The first column must be strictly increasing."""
    first = np.asarray(columns[0], dtype=float)
    if np.any(np.diff(first) <= 0.0):
        raise CoupledwgError("first CSV column must be strictly increasing")
    if len(header) != len(columns):
        raise CoupledwgError("header/column count mismatch")
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    _write_text(path, text)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from None


def _pure_reduced_entropy(state) -> float:
    sigma = state.amplitudes @ state.amplitudes.conj().T
    return float(von_neumann_entropy(sigma))


def _input_spec(cfg: RunConfig, fallback: StateSpec | None = None) -> StateSpec:
    """The --input state, checked against the command's input kinds; with no
    --input, the fallback state the command's own flags describe."""
    if fallback is not None and not cfg.input_spec:
        return fallback
    spec = parse_state_spec(cfg.input_spec)
    kinds = _COMMANDS[cfg.command].kinds
    if spec.kind not in kinds:
        takers = [name for name, c in _COMMANDS.items() if spec.kind in c.kinds]
        raise UsageError(
            f"{cfg.command} needs an input of kind {'/'.join(kinds)}, got "
            f"{cfg.input_spec!r} ({spec.kind} -> {'/'.join(takers)})")
    return spec


def _grid_state(cfg: RunConfig):
    spec = _input_spec(cfg)
    cutoff = spec.photons_needed() if cfg.cutoff is None else cfg.cutoff
    return make_pure_state(spec, cutoff)


def _run_lossless(cfg: RunConfig) -> None:
    state = _grid_state(cfg)
    params = CouplerParams(cfg.omega, cfg.coupling)
    times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    en, ent = [], []
    for t in times:
        evolved = evolve_lossless(state, params, float(t))
        en.append(float(pure_log_negativity(evolved)))
        ent.append(_pure_reduced_entropy(evolved))
    write_csv(cfg.output_path, ["Jt", "E_N", "S"],
              [cfg.coupling * times, np.array(en), np.array(ent)])


def _run_noon(cfg: RunConfig) -> None:
    (total,) = _input_spec(cfg, StateSpec("noon", (cfg.total,))).params
    jt = np.linspace(0.0, cfg.coupling * cfg.t_max, cfg.steps + 1)
    en = np.array([float(noon_log_negativity(total, float(x))) for x in jt])
    ent = np.array([float(entropy_closed(total, float(x))) for x in jt])
    write_csv(cfg.output_path, ["Jt", "E_N", "S"], [jt, en, ent])


def _run_thermal(cfg: RunConfig) -> None:
    if cfg.sweep == "nbar" and cfg.input_spec:
        raise UsageError("--sweep nbar sweeps equal occupations over its own "
                         f"grid and takes no --input, got {cfg.input_spec!r}")
    spec = _input_spec(cfg, StateSpec("thermal", (cfg.nbar, cfg.nbar)))
    if spec.params[0] != spec.params[1]:
        raise UsageError("the thermal entropy uses one occupation for both modes; "
                         f"give equal nbar_a and nbar_b, got {cfg.input_spec!r}")
    occ = ThermalOccupation(*spec.params)
    if cfg.sweep == "jt":
        jt = np.linspace(0.0, cfg.coupling * cfg.t_max, cfg.steps + 1)
        ent = np.array([float(thermal_entropy(cfg.total, float(x), occ, cfg.variant))
                        for x in jt])
        write_csv(cfg.output_path, ["Jt", "S"], [jt, ent])
    else:
        grid = np.linspace(0.0, cfg.nbar_max, cfg.steps + 1)
        ent = np.array([float(thermal_entropy(cfg.total, cfg.jt_fixed,
                                              ThermalOccupation(nb, nb), cfg.variant))
                        for nb in grid])
        write_csv(cfg.output_path, ["nbar", "S"], [grid, ent])


def _run_damped(cfg: RunConfig) -> None:
    state = _grid_state(cfg)
    rho = TwoModeDensityMatrix.from_pure(state)
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    en, ent, pur = [], [], []
    for t in times:
        out = evolve_damped_exact(rho, p, float(t))
        en.append(float(log_negativity(out)))
        ent.append(float(von_neumann_entropy(reduced_state(out))))
        pur.append(float(purity(out)))
    write_csv(cfg.output_path, ["Jt", "E_N", "S", "purity"],
              [cfg.coupling * times, np.array(en), np.array(ent), np.array(pur)])


def _run_gaussian(cfg: RunConfig) -> None:
    (r,) = _input_spec(cfg, StateSpec("tmsv", (cfg.squeeze,))).params
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    en = np.array([float(log_negativity_gaussian(
        thermal_evolved_covariance(p, float(t), cfg.nbar, cfg.nbar, r, r)))
        for t in times])
    write_csv(cfg.output_path, ["Jt", "E_N"], [cfg.coupling * times, en])


def _run_purity(cfg: RunConfig) -> None:
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    pur = np.array([float(purity_closed(p, float(t), cfg.variant)) for t in times])
    write_csv(cfg.output_path, ["Jt", "purity"], [cfg.coupling * times, pur])


def _run_compare(cfg: RunConfig) -> None:
    state = _grid_state(cfg)
    rho = TwoModeDensityMatrix.from_pure(state)
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    # half the library suggestion: the positivity gate on long runs needs the
    # extra fourth-order margin
    step = cfg.dt if cfg.dt is not None else 0.5 * default_dt(p)
    times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    trajectory = integrate(rho, p, IntegratorConfig(dt=step, t_max=cfg.t_max),
                           sample_times=times)
    closed = [evolve_damped_exact(rho, p, float(t)) for t in times]
    report = compare(closed, trajectory)
    if cfg.dump_states is not None:
        _dump_oracle_states(cfg.dump_states, trajectory)
    write_csv(cfg.output_path,
              ["Jt", "max_abs_entry", "trace_distance", "entropy_delta",
               "log_negativity_delta", "purity_delta"],
              [cfg.coupling * report.times, report.max_abs_entry,
               report.trace_distances, report.entropy_delta,
               report.log_negativity_delta, report.purity_delta])
    if report.worst_trace_distance > cfg.tol:
        raise ToleranceExceeded(
            f"worst trace distance {report.worst_trace_distance:.3e} exceeds "
            f"tolerance {cfg.tol:g}")


def _dump_oracle_states(path: str, trajectory) -> None:
    # debug aid: long-format dump of every sampled matrix entry
    lines = ["t,row,col,real,imag"]
    for t, state in zip(trajectory.times, trajectory.states):
        for i in range(state.shape[0]):
            for j in range(state.shape[1]):
                lines.append(",".join((_fmt(t), str(i), str(j),
                                       _fmt(state[i, j].real), _fmt(state[i, j].imag))))
    _write_text(path, "\n".join(lines) + "\n")


# --- figure reproduction -----------------------------------------------------

def _lossless_en_curve(spec: StateSpec, jt: np.ndarray) -> np.ndarray:
    state = make_pure_state(spec, spec.photons_needed())
    params = CouplerParams(0.0, 1.0)
    return np.array([float(pure_log_negativity(evolve_lossless(state, params, float(x))))
                     for x in jt])


def _fig_1a():
    jt = np.linspace(0.0, math.pi, 401)
    return (["Jt", "EN_11", "EN_20"],
            [jt,
             _lossless_en_curve(StateSpec("fock", (1, 1)), jt),
             _lossless_en_curve(StateSpec("fock", (2, 0)), jt)])


def _fig_1b():
    jt = np.linspace(0.0, math.pi, 401)
    cols = [_lossless_en_curve(StateSpec("fock", pair), jt)
            for pair in ((2, 2), (3, 1), (4, 0))]
    return ["Jt", "EN_22", "EN_31", "EN_40"], [jt] + cols


def _fig_1c():
    jt = np.linspace(0.0, math.pi, 401)
    cols = [np.array([float(noon_log_negativity(n, float(x))) for x in jt])
            for n in (2, 3, 4, 5)]
    return ["Jt", "EN_N2", "EN_N3", "EN_N4", "EN_N5"], [jt] + cols


def _fig_1d():
    jt = np.linspace(0.0, math.pi, 401)
    cols = [np.array([float(entropy_closed(n, float(x))) for x in jt])
            for n in (2, 3, 4, 5)]
    return ["Jt", "S_N2", "S_N3", "S_N4", "S_N5"], [jt] + cols


_FIG2_NBARS = (0.0, 0.5, 1.0, 2.0, 5.0)
_FIG2_JTS = (("pi8", math.pi / 8), ("pi4", math.pi / 4),
             ("3pi8", 3 * math.pi / 8), ("pi2", math.pi / 2))


def _fig_2_vs_jt(total: int):
    jt = np.linspace(0.0, math.pi / 2, 201)
    header = ["Jt"] + [f"S_nbar{v:g}" for v in _FIG2_NBARS]
    cols = [jt]
    for v in _FIG2_NBARS:
        occ = ThermalOccupation(v, v)
        cols.append(np.array([float(thermal_entropy(total, float(x), occ)) for x in jt]))
    return header, cols


def _fig_2_vs_nbar(total: int):
    grid = np.linspace(0.0, 8.0, 161)
    header = ["nbar"] + [f"S_{name}" for name, _ in _FIG2_JTS]
    cols = [grid]
    for _, jt in _FIG2_JTS:
        cols.append(np.array([float(thermal_entropy(total, jt, ThermalOccupation(v, v)))
                              for v in grid]))
    return header, cols


def _fig_2_grid(total: int):
    # wide layout for the surface plots: rows sweep nbar, columns sweep Jt
    grid = np.linspace(0.0, 8.0, 65)
    jts = np.linspace(0.0, math.pi / 2, 33)
    header = ["nbar"] + [f"S_jt{x:.6g}" for x in jts]
    cols = [grid]
    for jt in jts:
        cols.append(np.array([float(thermal_entropy(total, float(jt),
                                                    ThermalOccupation(v, v)))
                              for v in grid]))
    return header, cols


def _fig_3(gamma: float):
    coupling = 0.5
    jt = np.linspace(0.0, math.pi, 201)
    p = DampedParams(0.0, coupling, gamma)
    cols = [np.array([float(damped_entropy(n, p, float(x) / coupling)) for x in jt])
            for n in (2, 4)]
    return ["Jt", "S_N2", "S_N4"], [jt] + cols


def _fig_4a():
    coupling, r = 0.5, 0.25
    times = np.linspace(0.0, 10.0, 201)
    p = DampedParams(0.0, coupling, 0.0)
    en = np.array([float(log_negativity_gaussian(
        thermal_evolved_covariance(p, float(t), 0.0, 0.0, r, r))) for t in times])
    return ["Jt", "E_N"], [coupling * times, en]


def _fig_4b():
    coupling, r = 0.5, 0.25
    times = np.linspace(0.0, 10.0, 201)
    header, cols = ["Jt"], [coupling * times]
    for gamma in (0.02, 0.05, 0.1):
        p = DampedParams(0.0, coupling, gamma)
        header.append(f"EN_gamma{gamma:g}")
        cols.append(np.array([float(log_negativity_gaussian(
            thermal_evolved_covariance(p, float(t), 0.0, 0.0, r, r))) for t in times]))
    return header, cols


def _fig_5(coupling: float):
    times = np.linspace(0.0, 20.0, 401)
    header, cols = ["Jt"], [coupling * times]
    for gamma in (0.01, 0.05, 0.1):
        p = DampedParams(0.0, coupling, gamma)
        header.append(f"P_gamma{gamma:g}")
        cols.append(np.array([float(purity_closed(p, float(t))) for t in times]))
    return header, cols


def _fig_6():
    coupling, gamma, t = 0.5, 0.05, 1.0
    p = DampedParams(0.0, coupling, gamma)
    grid = np.linspace(0.0, 8.0, 161)
    header, cols = ["nbar"], [grid]
    for r in (0.25, 0.5, 1.0, 1.5):
        header.append(f"EN_r{r:g}")
        cols.append(np.array([float(log_negativity_gaussian(
            thermal_evolved_covariance(p, t, float(v), float(v), r, r)))
            for v in grid]))
    return header, cols


FIGURES = {
    "1a": _fig_1a, "1b": _fig_1b, "1c": _fig_1c, "1d": _fig_1d,
    "2a": lambda: _fig_2_vs_jt(2), "2b": lambda: _fig_2_vs_nbar(2),
    "2c": lambda: _fig_2_grid(2),
    "2d": lambda: _fig_2_vs_jt(4), "2e": lambda: _fig_2_vs_nbar(4),
    "2f": lambda: _fig_2_grid(4),
    "3a": lambda: _fig_3(0.0), "3b": lambda: _fig_3(0.01),
    "3c": lambda: _fig_3(0.03), "3d": lambda: _fig_3(0.05),
    "4a": _fig_4a, "4b": _fig_4b,
    "5a": lambda: _fig_5(3.0), "5b": lambda: _fig_5(0.25),
    "6": _fig_6,
}


def _run_figure(cfg: RunConfig) -> None:
    if cfg.figure_id not in FIGURES:
        raise UsageError(
            f"unknown figure id {cfg.figure_id!r}; known: {', '.join(sorted(FIGURES))}")
    header, cols = FIGURES[cfg.figure_id]()
    path = cfg.output_path or f"figure_{cfg.figure_id}.csv"
    write_csv(path, header, cols)


class _Command(NamedTuple):
    """One subcommand: its runner and the flags and values it accepts."""

    run: Callable[[RunConfig], None]
    flags: dict  # flag -> this command's default, or None for RunConfig's
    kinds: tuple = ()  # --input state kinds
    variants: tuple = ()  # --variant values


_GRID_KINDS = ("fock", "noon")
_COMMANDS = {
    "lossless": _Command(_run_lossless, dict(
        input=None, omega=None, J=None, tmax=None, steps=None, cutoff=None,
        output=None), _GRID_KINDS),
    "noon": _Command(_run_noon, dict(
        input="", N=None, J=None, tmax=None, steps=None, output=None), ("noon",)),
    "thermal": _Command(_run_thermal, dict(
        input="", N=None, nbar=None, J=None, tmax=math.pi / 2, steps=None,
        variant=None, sweep=None, jt=None, nbar_max=None, output=None),
        ("thermal",), _THERMAL_VARIANTS),
    "damped": _Command(_run_damped, dict(
        input=None, omega=None, J=0.5, gamma=0.05, tmax=2.0 * math.pi, steps=None,
        cutoff=None, output=None), _GRID_KINDS),
    "gaussian": _Command(_run_gaussian, dict(
        input="", omega=None, J=0.5, gamma=0.05, r=None, nbar=0.0, tmax=10.0,
        steps=None, output=None), ("tmsv",)),
    "purity": _Command(_run_purity, dict(
        omega=None, J=3.0, gamma=0.05, tmax=20.0, steps=None, variant=None,
        output=None), (), _PURITY_VARIANTS),
    "compare": _Command(_run_compare, dict(
        input="noon:2", omega=None, J=0.5, gamma=0.05, tmax=10.0, steps=20,
        cutoff=None, dt=None, tol=None, dump_states=None, output=None), _GRID_KINDS),
    "figure": _Command(_run_figure, dict(output=None)),
}


def run(cfg: RunConfig) -> int:
    _COMMANDS[cfg.command].run(cfg)
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledwg",
        description="Entanglement and decoherence curves for two coupled "
                    "lossy waveguide modes (CSV output).")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command)
        if command == "figure":
            p.add_argument("figure_id", help="one of " + ", ".join(sorted(FIGURES)))
        p.add_argument("--config", default=None,
                       help="key=value file; flags given here override it")
        for flag in spec.flags:
            option = "--" + flag.replace("_", "-")
            if flag == "output":
                p.add_argument(option, "-o", default=None)
            else:
                p.add_argument(option, default=None)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            body = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _FLAGS:
            raise UsageError(f"{path}:{lineno}: expected <key>=<value> with a "
                             f"known key, got {raw!r}")
        values[key] = value.strip()
    return values


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    flags = _COMMANDS[command].flags
    merged = {_FLAGS[flag][0]: value for flag, value in flags.items() if value is not None}
    given = []
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in flags:
                raise UsageError(f"config key {key!r} not valid for {command!r}")
            given.append((key, raw, f"config key {key!r}"))
    given += [(flag, getattr(args, flag), "--" + flag.replace("_", "-"))
              for flag in flags if getattr(args, flag) is not None]
    for flag, raw, source in given:
        field, convert, _ = _FLAGS[flag]
        try:
            merged[field] = convert(raw)
        except ValueError:
            raise UsageError(f"{source}: bad value {raw!r}") from None
    return RunConfig(command=command, figure_id=getattr(args, "figure_id", None), **merged)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return run(config_from_args(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToleranceExceeded as exc:
        print(f"tolerance exceeded: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except CoupledwgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
