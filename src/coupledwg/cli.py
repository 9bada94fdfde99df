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
from .errors import CoupledwgError, NumericalError, ToleranceExceeded
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
            if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
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
    The first column must be finite and strictly increasing."""
    first = np.asarray(columns[0], dtype=float)
    if not (np.isfinite(first).all() and np.all(np.diff(first) > 0.0)):
        raise NumericalError("first CSV column must be finite and strictly increasing")
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


def _tabulate(path: str | None, first: str, grid: np.ndarray, scale: float,
              names: list, row: Callable[[float], tuple]) -> None:
    """Write one CSV line per grid point x: scale * x, then the measures
    row(x) under the column names.  The first column is scaled after every
    row is evaluated, so a measure's own overflow is the error reported."""
    values = np.array([[float(v) for v in row(float(x))] for x in grid])
    with np.errstate(over="ignore"):
        scaled = scale * grid
    if not np.isfinite(scaled).all():
        raise NumericalError(f"column {first} = {scale:g} * {grid[-1]:g} overflows a float")
    write_csv(path, [first, *names], [scaled, *values.T])


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


def _times(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.steps + 1)


def _jt_grid(cfg: RunConfig) -> np.ndarray:
    span = cfg.coupling * cfg.t_max
    if not math.isfinite(span):
        raise NumericalError(f"J * tmax = {span} overflows a float")
    return np.linspace(0.0, span, cfg.steps + 1)


def _tmsv_en(p: DampedParams, t: float, nbar: float, r: float):
    # the Gaussian route: E_N of the TMSV r seeded with nbar in both modes
    return log_negativity_gaussian(thermal_evolved_covariance(p, t, nbar, nbar, r, r))


def _run_lossless(cfg: RunConfig) -> None:
    state = _grid_state(cfg)
    params = CouplerParams(cfg.omega, cfg.coupling)

    def row(t):
        evolved = evolve_lossless(state, params, t)
        return pure_log_negativity(evolved), _pure_reduced_entropy(evolved)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling, ["E_N", "S"], row)


def _run_noon(cfg: RunConfig) -> None:
    (total,) = _input_spec(cfg, StateSpec("noon", (cfg.total,))).params

    def row(jt):
        # S first: its binomial table refuses a large N before the N00N
        # eigensolve would spend seconds on it
        ent = entropy_closed(total, jt)
        return noon_log_negativity(total, jt), ent
    _tabulate(cfg.output_path, "Jt", _jt_grid(cfg), 1.0, ["E_N", "S"], row)


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
        _tabulate(cfg.output_path, "Jt", _jt_grid(cfg), 1.0, ["S"],
                  lambda jt: [thermal_entropy(cfg.total, jt, occ, cfg.variant)])
    else:
        _tabulate(cfg.output_path, "nbar", np.linspace(0.0, cfg.nbar_max, cfg.steps + 1),
                  1.0, ["S"], lambda nb: [thermal_entropy(
                      cfg.total, cfg.jt_fixed, ThermalOccupation(nb, nb), cfg.variant)])


def _run_damped(cfg: RunConfig) -> None:
    rho = TwoModeDensityMatrix.from_pure(_grid_state(cfg))
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    held = [rho]

    def row(t):
        # the previous state stays referenced while the next is evolved: with
        # every (d^2 x d^2) array freed between rows, glibc trims the heap top
        # and the next row faults it back in, about 30% slower at cutoff 10
        held[0] = out = evolve_damped_exact(rho, p, t)
        return log_negativity(out), von_neumann_entropy(reduced_state(out)), purity(out)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling, ["E_N", "S", "purity"], row)


def _run_gaussian(cfg: RunConfig) -> None:
    (r,) = _input_spec(cfg, StateSpec("tmsv", (cfg.squeeze,))).params
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling, ["E_N"],
              lambda t: [_tmsv_en(p, t, cfg.nbar, r)])


def _run_purity(cfg: RunConfig) -> None:
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling, ["purity"],
              lambda t: [purity_closed(p, t, cfg.variant)])


def _run_compare(cfg: RunConfig) -> None:
    state = _grid_state(cfg)
    rho = TwoModeDensityMatrix.from_pure(state)
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    # half the library suggestion: the positivity gate on long runs needs the
    # extra fourth-order margin
    step = cfg.dt if cfg.dt is not None else 0.5 * default_dt(p)
    times = _times(cfg)
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
# Each panel is a grid and its curves (column name -> value at a grid point).
# The curves call the library through this module's names at run time.

class _Figure(NamedTuple):
    first: str  # name of the first column
    grid: np.ndarray
    curves: dict
    scale: float = 1.0  # the first column prints scale * grid


def _lossless_en(na: int, nb: int):
    # E_N of |na, nb> through the coupler at omega = 0, J = 1, so t = Jt
    spec = StateSpec("fock", (na, nb))
    state, params = make_pure_state(spec, spec.photons_needed()), CouplerParams(0.0, 1.0)
    return lambda jt: pure_log_negativity(evolve_lossless(state, params, jt))


def _thermal_vs_jt(total: int, nbar: float):
    occ = ThermalOccupation(nbar, nbar)
    return lambda jt: thermal_entropy(total, jt, occ)


def _thermal_vs_nbar(total: int, jt: float):
    return lambda nbar: thermal_entropy(total, jt, ThermalOccupation(nbar, nbar))


def _damped_s(total: int, gamma: float):
    p = DampedParams(0.0, 0.5, gamma)
    return lambda jt: damped_entropy(total, p, jt / p.J)


def _tmsv_vs_t(gamma: float):
    # E_N of the r = 0.25 TMSV at J = 0.5 and nbar = 0 against t
    p = DampedParams(0.0, 0.5, gamma)
    return lambda t: _tmsv_en(p, t, 0.0, 0.25)


def _tmsv_vs_nbar(r: float):
    # E_N of the TMSV r at J = 0.5, gamma = 0.05 and t = 1 against nbar
    p = DampedParams(0.0, 0.5, 0.05)
    return lambda nbar: _tmsv_en(p, 1.0, nbar, r)


def _purity_vs_t(coupling: float, gamma: float):
    p = DampedParams(0.0, coupling, gamma)
    return lambda t: purity_closed(p, t)


_FIG1_JT = np.linspace(0.0, math.pi, 401)
_FIG2_JT = np.linspace(0.0, math.pi / 2, 201)
_FIG2_NBARS = (0.0, 0.5, 1.0, 2.0, 5.0)
_FIG2_JTS = (("pi8", math.pi / 8), ("pi4", math.pi / 4),
             ("3pi8", 3 * math.pi / 8), ("pi2", math.pi / 2))
# wide layout for the surface plots 2c and 2f: rows sweep nbar, columns sweep Jt
_SURFACE_NBAR = np.linspace(0.0, 8.0, 65)
_SURFACE_JTS = np.linspace(0.0, math.pi / 2, 33)
_NBAR_GRID = np.linspace(0.0, 8.0, 161)
_FIG4_TIMES = np.linspace(0.0, 10.0, 201)
_FIG5_TIMES = np.linspace(0.0, 20.0, 401)

FIGURES = {
    "1a": _Figure("Jt", _FIG1_JT, {"EN_11": _lossless_en(1, 1), "EN_20": _lossless_en(2, 0)}),
    "1b": _Figure("Jt", _FIG1_JT, {f"EN_{na}{nb}": _lossless_en(na, nb)
                                   for na, nb in ((2, 2), (3, 1), (4, 0))}),
    "1c": _Figure("Jt", _FIG1_JT, {f"EN_N{n}": lambda jt, n=n: noon_log_negativity(n, jt)
                                   for n in (2, 3, 4, 5)}),
    "1d": _Figure("Jt", _FIG1_JT, {f"S_N{n}": lambda jt, n=n: entropy_closed(n, jt)
                                   for n in (2, 3, 4, 5)}),
    "2a": _Figure("Jt", _FIG2_JT, {f"S_nbar{v:g}": _thermal_vs_jt(2, v) for v in _FIG2_NBARS}),
    "2b": _Figure("nbar", _NBAR_GRID, {f"S_{name}": _thermal_vs_nbar(2, jt)
                                       for name, jt in _FIG2_JTS}),
    "2c": _Figure("nbar", _SURFACE_NBAR, {f"S_jt{jt:.6g}": _thermal_vs_nbar(2, float(jt))
                                          for jt in _SURFACE_JTS}),
    "2d": _Figure("Jt", _FIG2_JT, {f"S_nbar{v:g}": _thermal_vs_jt(4, v) for v in _FIG2_NBARS}),
    "2e": _Figure("nbar", _NBAR_GRID, {f"S_{name}": _thermal_vs_nbar(4, jt)
                                       for name, jt in _FIG2_JTS}),
    "2f": _Figure("nbar", _SURFACE_NBAR, {f"S_jt{jt:.6g}": _thermal_vs_nbar(4, float(jt))
                                          for jt in _SURFACE_JTS}),
    **{fid: _Figure("Jt", np.linspace(0.0, math.pi, 201),
                    {f"S_N{n}": _damped_s(n, gamma) for n in (2, 4)})
       for fid, gamma in (("3a", 0.0), ("3b", 0.01), ("3c", 0.03), ("3d", 0.05))},
    "4a": _Figure("Jt", _FIG4_TIMES, {"E_N": _tmsv_vs_t(0.0)}, 0.5),
    "4b": _Figure("Jt", _FIG4_TIMES, {f"EN_gamma{g:g}": _tmsv_vs_t(g)
                                      for g in (0.02, 0.05, 0.1)}, 0.5),
    **{fid: _Figure("Jt", _FIG5_TIMES, {f"P_gamma{g:g}": _purity_vs_t(coupling, g)
                                        for g in (0.01, 0.05, 0.1)}, coupling)
       for fid, coupling in (("5a", 3.0), ("5b", 0.25))},
    "6": _Figure("nbar", _NBAR_GRID, {f"EN_r{r:g}": _tmsv_vs_nbar(r)
                                      for r in (0.25, 0.5, 1.0, 1.5)}),
}


def _run_figure(cfg: RunConfig) -> None:
    if cfg.figure_id not in FIGURES:
        raise UsageError(
            f"unknown figure id {cfg.figure_id!r}; known: {', '.join(sorted(FIGURES))}")
    first, grid, curves, scale = FIGURES[cfg.figure_id]
    _tabulate(cfg.output_path or f"figure_{cfg.figure_id}.csv", first, grid, scale,
              list(curves), lambda x: [curve(x) for curve in curves.values()])


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
