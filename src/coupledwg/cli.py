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
import re
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .damped import (
    _PURITY_VARIANTS,
    DampedParams,
    _damped_entropies,
    _purities_closed,
    evolve_damped_exact,
)
from .errors import CoupledwgError, NumericalError, ToleranceExceeded
from .fock import (
    StateSpec,
    TwoModeDensityMatrix,
    _pure_log_negativities,
    _reduced_entropies,
    fock_state,
    make_pure_state,
)
from .gaussian import (_log_negativities_gaussian, _thermal_evolved_covariances,
                       vacuum_evolved_covariance)
from .lindblad import IntegratorConfig, compare, default_dt, integrate
from .lossless import (
    CouplerParams,
    _entropies_closed,
    _evolved_measures,
    _noon_log_negativities,
)
from .thermal import _VARIANTS as _THERMAL_VARIANTS, _thermal_entropies

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
        if self.command not in _COMMANDS:
            raise UsageError(f"command must be one of {tuple(_COMMANDS)}, got {self.command!r}")
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


# rows of CSV text formatted and written at once, so that a long grid's text
# is never held whole
_CSV_BLOCK_ROWS = 4096


def write_csv(path: str | None, header: list, columns: list) -> None:
    """Write columns (equal-length 1-D arrays) as CSV; '-' or None = stdout.
    The first column must be finite and strictly increasing.  Values print
    as _csv_blocks prints them."""
    first = np.asarray(columns[0], dtype=float)
    if not (np.isfinite(first).all() and np.all(np.diff(first) > 0.0)):
        raise NumericalError("first CSV column must be finite and strictly increasing")
    if len(header) != len(columns):
        raise CoupledwgError("header/column count mismatch")
    blocks = _csv_blocks(header, np.column_stack(columns))
    if path is None or path == "-":
        sys.stdout.writelines(blocks)
        return
    _write_text(path, blocks)


def _csv_blocks(header: list, table: np.ndarray):
    """The CSV text of a table (rows x columns): the header line, then one
    string per block of _CSV_BLOCK_ROWS rows, each value as "%.12g" with
    -0.0 folded into 0."""
    yield ",".join(header) + "\n"
    row = ",".join(["%.12g"] * len(header)) + "\n"
    for begin in range(0, len(table), _CSV_BLOCK_ROWS):
        block = (table[begin:begin + _CSV_BLOCK_ROWS] + 0.0).tolist()  # +0.0 folds -0.0
        yield "".join([row % tuple(values) for values in block])


def _write_text(path: str, blocks) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.writelines(blocks)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from None


def _tabulate(path: str | None, first: str, grid: np.ndarray, scale: float,
              names: list, columns: Callable[[np.ndarray], list]) -> None:
    """Write one CSV line per grid point x: scale * x, then the measures
    under the column names, from columns(grid), one array per name over the
    whole grid.  The first column is scaled after every value is evaluated,
    so a measure's own overflow is the error reported."""
    values = columns(grid)
    with np.errstate(over="ignore"):
        scaled = scale * grid
    if not np.isfinite(scaled).all():
        raise NumericalError(f"column {first} = {scale:g} * {grid[-1]:g} overflows a float")
    write_csv(path, [first, *names], [scaled, *values])


def _each(columns: dict) -> tuple:
    """The names and the columns function for _tabulate of columns (name ->
    function of the grid) built one after another."""
    return list(columns), lambda grid: [column(grid) for column in columns.values()]


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


def _tmsv_en(p: DampedParams, t, nbar, r: float) -> np.ndarray:
    # the Gaussian route: E_N of the TMSV r seeded with nbar in both modes,
    # over a grid of t or of nbar
    return _log_negativities_gaussian(_thermal_evolved_covariances(p, t, nbar, nbar, r, r))


def _run_lossless(cfg: RunConfig) -> None:
    state = _grid_state(cfg)
    params = CouplerParams(cfg.omega, cfg.coupling)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling, ["E_N", "S"],
              lambda times: _evolved_measures(state, params, times, _pure_log_negativities,
                                              _reduced_entropies))


def _run_noon(cfg: RunConfig) -> None:
    (total,) = _input_spec(cfg, StateSpec("noon", (cfg.total,))).params

    def columns(jts):
        # S first: its binomial table refuses a large N before the N00N
        # eigensolve would spend seconds on it
        entropy = _entropies_closed(total, jts)
        return [_noon_log_negativities(total, jts), entropy]
    _tabulate(cfg.output_path, "Jt", _jt_grid(cfg), 1.0, ["E_N", "S"], columns)


def _run_thermal(cfg: RunConfig) -> None:
    if cfg.sweep == "nbar" and cfg.input_spec:
        raise UsageError("--sweep nbar sweeps equal occupations over its own "
                         f"grid and takes no --input, got {cfg.input_spec!r}")
    spec = _input_spec(cfg, StateSpec("thermal", (cfg.nbar, cfg.nbar)))
    if spec.params[0] != spec.params[1]:
        raise UsageError("the thermal entropy uses one occupation for both modes; "
                         f"give equal nbar_a and nbar_b, got {cfg.input_spec!r}")
    if cfg.sweep == "jt":
        _tabulate(cfg.output_path, "Jt", _jt_grid(cfg), 1.0, ["S"],
                  lambda jts: _thermal_entropies(cfg.total, jts, [spec.params[0]], cfg.variant))
    else:
        _tabulate(cfg.output_path, "nbar", np.linspace(0.0, cfg.nbar_max, cfg.steps + 1),
                  1.0, ["S"], lambda nbars: _thermal_entropies(
                      cfg.total, [cfg.jt_fixed], nbars, cfg.variant).T)


def _run_damped(cfg: RunConfig) -> None:
    rho = TwoModeDensityMatrix.from_pure(_grid_state(cfg))
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling, ["E_N", "S", "purity"],
              columns=lambda times: np.concatenate(
                  list(evolve_damped_exact(rho, p, times).measures()), axis=1))


def _run_gaussian(cfg: RunConfig) -> None:
    (r,) = _input_spec(cfg, StateSpec("tmsv", (cfg.squeeze,))).params
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling,
              *_each({"E_N": lambda times: _tmsv_en(p, times, cfg.nbar, r)}))


def _run_purity(cfg: RunConfig) -> None:
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    _tabulate(cfg.output_path, "Jt", _times(cfg), cfg.coupling,
              *_each({"purity": lambda times: _purities_closed(p, times, cfg.variant)}))


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
    report = compare(evolve_damped_exact(rho, p, times), trajectory)
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
    states = np.array(trajectory.states)
    count, n, _ = states.shape
    rows, cols = np.divmod(np.tile(np.arange(n * n), count), n)
    table = np.column_stack((np.repeat(trajectory.times, n * n), rows, cols,
                             states.real.ravel(), states.imag.ravel()))
    _write_text(path, _csv_blocks(["t", "row", "col", "real", "imag"], table))


# --- figure reproduction -----------------------------------------------------
# Each panel is a grid, its column names and one function from the grid to
# those columns.  The columns call the library through this module's names
# at run time.

class _Figure(NamedTuple):
    first: str  # name of the first column
    grid: np.ndarray
    names: list
    columns: Callable[[np.ndarray], list]  # grid -> one array per name
    scale: float = 1.0  # the first column prints scale * grid


def _fock_en(na: int, nb: int, jts: np.ndarray) -> np.ndarray:
    # E_N of |na, nb> through the coupler at omega = 0, J = 1, so t = Jt
    return _evolved_measures(fock_state(na, nb, na + nb), CouplerParams(0.0, 1.0), jts,
                             _pure_log_negativities)[0]


def _damped_s(total: int, gamma: float):
    p = DampedParams(0.0, 0.5, gamma)
    return lambda jts: _damped_entropies(total, p, jts / p.J)


def _tmsv_vs_t(gamma: float):
    # E_N of the r = 0.25 squeezed vacuum (nbar = 0) at J = 0.5 against t
    p = DampedParams(0.0, 0.5, gamma)
    return lambda times: _log_negativities_gaussian(
        vacuum_evolved_covariance(p, times, 0.25, 0.25))


def _tmsv_vs_nbar(r: float):
    # E_N of the TMSV r at J = 0.5, gamma = 0.05 and t = 1 against nbar
    p = DampedParams(0.0, 0.5, 0.05)
    return lambda nbars: _tmsv_en(p, 1.0, nbars, r)


def _purity_vs_t(coupling: float, gamma: float):
    return partial(_purities_closed, DampedParams(0.0, coupling, gamma))


def _thermal_jt_panel(total: int) -> tuple:
    # one column per nbar of _FIG2_NBARS
    return ([f"S_nbar{v:g}" for v in _FIG2_NBARS],
            lambda jts: _thermal_entropies(total, jts, _FIG2_NBARS))


def _thermal_nbar_panel(total: int, jts: dict) -> tuple:
    # one column per Jt, named by the keys of jts
    return ([f"S_{name}" for name in jts],
            lambda nbars: _thermal_entropies(total, list(jts.values()), nbars).T)


_FIG1_JT = np.linspace(0.0, math.pi, 401)
_FIG2_JT = np.linspace(0.0, math.pi / 2, 201)
_FIG2_NBARS = (0.0, 0.5, 1.0, 2.0, 5.0)
_FIG2_JTS = {"pi8": math.pi / 8, "pi4": math.pi / 4, "3pi8": 3 * math.pi / 8,
             "pi2": math.pi / 2}
# wide layout for the surface plots 2c and 2f: rows sweep nbar, columns sweep Jt
_SURFACE_NBAR = np.linspace(0.0, 8.0, 65)
_SURFACE_JTS = {f"jt{jt:.6g}": float(jt) for jt in np.linspace(0.0, math.pi / 2, 33)}
_NBAR_GRID = np.linspace(0.0, 8.0, 161)
_FIG4_TIMES = np.linspace(0.0, 10.0, 201)
_FIG5_TIMES = np.linspace(0.0, 20.0, 401)

FIGURES = {
    "1a": _Figure("Jt", _FIG1_JT, *_each({f"EN_{na}{nb}": partial(_fock_en, na, nb)
                                          for na, nb in ((1, 1), (2, 0))})),
    "1b": _Figure("Jt", _FIG1_JT, *_each({f"EN_{na}{nb}": partial(_fock_en, na, nb)
                                          for na, nb in ((2, 2), (3, 1), (4, 0))})),
    "1c": _Figure("Jt", _FIG1_JT, *_each({f"EN_N{n}": partial(_noon_log_negativities, n)
                                          for n in (2, 3, 4, 5)})),
    "1d": _Figure("Jt", _FIG1_JT, *_each({f"S_N{n}": partial(_entropies_closed, n)
                                          for n in (2, 3, 4, 5)})),
    "2a": _Figure("Jt", _FIG2_JT, *_thermal_jt_panel(2)),
    "2b": _Figure("nbar", _NBAR_GRID, *_thermal_nbar_panel(2, _FIG2_JTS)),
    "2c": _Figure("nbar", _SURFACE_NBAR, *_thermal_nbar_panel(2, _SURFACE_JTS)),
    "2d": _Figure("Jt", _FIG2_JT, *_thermal_jt_panel(4)),
    "2e": _Figure("nbar", _NBAR_GRID, *_thermal_nbar_panel(4, _FIG2_JTS)),
    "2f": _Figure("nbar", _SURFACE_NBAR, *_thermal_nbar_panel(4, _SURFACE_JTS)),
    **{fid: _Figure("Jt", np.linspace(0.0, math.pi, 201),
                    *_each({f"S_N{n}": _damped_s(n, gamma) for n in (2, 4)}))
       for fid, gamma in (("3a", 0.0), ("3b", 0.01), ("3c", 0.03), ("3d", 0.05))},
    "4a": _Figure("Jt", _FIG4_TIMES, *_each({"E_N": _tmsv_vs_t(0.0)}), 0.5),
    "4b": _Figure("Jt", _FIG4_TIMES, *_each({f"EN_gamma{g:g}": _tmsv_vs_t(g)
                                             for g in (0.02, 0.05, 0.1)}), 0.5),
    **{fid: _Figure("Jt", _FIG5_TIMES, *_each({f"P_gamma{g:g}": _purity_vs_t(coupling, g)
                                               for g in (0.01, 0.05, 0.1)}), coupling)
       for fid, coupling in (("5a", 3.0), ("5b", 0.25))},
    "6": _Figure("nbar", _NBAR_GRID, *_each({f"EN_r{r:g}": _tmsv_vs_nbar(r)
                                             for r in (0.25, 0.5, 1.0, 1.5)})),
}


def _run_figure(cfg: RunConfig) -> None:
    if cfg.figure_id not in FIGURES:
        raise UsageError(
            f"unknown figure id {cfg.figure_id!r}; known: {', '.join(sorted(FIGURES))}")
    first, grid, names, columns, scale = FIGURES[cfg.figure_id]
    _tabulate(cfg.output_path or f"figure_{cfg.figure_id}.csv", first, grid, scale, names,
              columns)


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

# argparse's pattern of a negative number, a value and not a flag, widened
# from -1 and -1.5 to exponent forms such as -1e3
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-(\d+\.?\d*|\.\d+)[eE][-+]?\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledwg",
        description="Entanglement and decoherence curves for two coupled "
                    "lossy waveguide modes (CSV output).")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command)
        p._negative_number_matcher = _NEGATIVE_NUMBER
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built by the first main call, not at import, and shared by the later ones
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
