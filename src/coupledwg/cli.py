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


_VARIANTS = tuple(dict.fromkeys(_THERMAL_VARIANTS + _PURITY_VARIANTS))


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
        if self.steps < 2:
            raise UsageError(f"steps must be >= 2, got {self.steps}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise UsageError(f"tmax must be > 0, got {self.t_max}")
        if self.variant not in _VARIANTS:
            raise UsageError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.sweep not in ("jt", "nbar"):
            raise UsageError(f"sweep must be 'jt' or 'nbar', got {self.sweep!r}")
        if self.tol <= 0.0:
            raise UsageError(f"tol must be > 0, got {self.tol}")
        if self.nbar < 0.0:
            raise UsageError(f"nbar must be >= 0, got {self.nbar}")
        if self.nbar_max <= 0.0:
            raise UsageError(f"nbar-max must be > 0, got {self.nbar_max}")
        if self.total < 1:
            raise UsageError(f"N must be >= 1, got {self.total}")
        if self.dt is not None and self.dt <= 0.0:
            raise UsageError(f"dt must be > 0, got {self.dt}")
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


def _resolved_cutoff(cfg: RunConfig, spec: StateSpec) -> int:
    if cfg.cutoff is not None:
        return cfg.cutoff
    return spec.photons_needed()


def _pure_reduced_entropy(state) -> float:
    sigma = state.amplitudes @ state.amplitudes.conj().T
    return float(von_neumann_entropy(sigma))


def _grid_state(cfg: RunConfig, allowed=("fock", "noon")):
    spec = parse_state_spec(cfg.input_spec)
    if spec.kind not in allowed:
        raise UsageError(
            f"{cfg.command} needs an input of kind {'/'.join(allowed)}, got "
            f"{spec.kind!r} (thermal -> `thermal` command, tmsv -> `gaussian`)")
    return spec, make_pure_state(spec, _resolved_cutoff(cfg, spec))


def _run_lossless(cfg: RunConfig) -> None:
    _, state = _grid_state(cfg)
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
    if cfg.input_spec:
        spec = parse_state_spec(cfg.input_spec)
        if spec.kind != "noon":
            raise UsageError(f"noon needs a noon:<N> input, got {cfg.input_spec!r}")
        total = int(spec.params[0])
    else:
        total = cfg.total
    jt = np.linspace(0.0, cfg.coupling * cfg.t_max, cfg.steps + 1)
    en = np.array([float(noon_log_negativity(total, float(x))) for x in jt])
    ent = np.array([float(entropy_closed(total, float(x))) for x in jt])
    write_csv(cfg.output_path, ["Jt", "E_N", "S"], [jt, en, ent])


def _run_thermal(cfg: RunConfig) -> None:
    if cfg.input_spec:
        spec = parse_state_spec(cfg.input_spec)
        if spec.kind != "thermal":
            raise UsageError(
                f"thermal needs a thermal:<nbar_a>,<nbar_b> input, got "
                f"{cfg.input_spec!r}")
    else:
        spec = StateSpec("thermal", (cfg.nbar, cfg.nbar))
    occ = ThermalOccupation(*spec.params)
    if cfg.variant not in _THERMAL_VARIANTS:
        raise UsageError(f"thermal variant must be one of {_THERMAL_VARIANTS}")
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
    _, state = _grid_state(cfg)
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
    if cfg.input_spec:
        spec = parse_state_spec(cfg.input_spec)
        if spec.kind != "tmsv":
            raise UsageError(f"gaussian needs a tmsv:<r> input, got {cfg.input_spec!r}")
        r = float(spec.params[0])
    else:
        r = cfg.squeeze
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    en = np.array([float(log_negativity_gaussian(
        thermal_evolved_covariance(p, float(t), cfg.nbar, cfg.nbar, r, r)))
        for t in times])
    write_csv(cfg.output_path, ["Jt", "E_N"], [cfg.coupling * times, en])


def _run_purity(cfg: RunConfig) -> None:
    if cfg.variant not in _PURITY_VARIANTS:
        raise UsageError(f"purity variant must be one of {_PURITY_VARIANTS}")
    p = DampedParams(cfg.omega, cfg.coupling, cfg.gamma)
    times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    pur = np.array([float(purity_closed(p, float(t), cfg.variant)) for t in times])
    write_csv(cfg.output_path, ["Jt", "purity"], [cfg.coupling * times, pur])


def _run_compare(cfg: RunConfig) -> None:
    _, state = _grid_state(cfg)
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


_RUNNERS = {
    "lossless": _run_lossless,
    "noon": _run_noon,
    "thermal": _run_thermal,
    "damped": _run_damped,
    "gaussian": _run_gaussian,
    "purity": _run_purity,
    "compare": _run_compare,
    "figure": _run_figure,
}


def run(cfg: RunConfig) -> int:
    _RUNNERS[cfg.command](cfg)
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------

_CONVERTERS = {
    "omega": float, "J": float, "gamma": float, "nbar": float, "r": float,
    "N": int, "cutoff": int, "tmax": float, "steps": int, "input": str,
    "output": str, "variant": str, "dt": float, "tol": float, "sweep": str,
    "jt": float, "nbar_max": float, "dump_states": str,
}

_FLAG_TO_FIELD = {
    "omega": "omega", "J": "coupling", "gamma": "gamma", "nbar": "nbar",
    "r": "squeeze", "N": "total", "cutoff": "cutoff", "tmax": "t_max",
    "steps": "steps", "input": "input_spec", "output": "output_path",
    "variant": "variant", "dt": "dt", "tol": "tol", "sweep": "sweep",
    "jt": "jt_fixed", "nbar_max": "nbar_max", "dump_states": "dump_states",
}

_COMMAND_FLAGS = {
    "lossless": ("input", "omega", "J", "tmax", "steps", "cutoff", "output"),
    "noon": ("input", "N", "J", "tmax", "steps", "output"),
    "thermal": ("input", "N", "nbar", "J", "tmax", "steps", "variant",
                "sweep", "jt", "nbar_max", "output"),
    "damped": ("input", "omega", "J", "gamma", "tmax", "steps", "cutoff", "output"),
    "gaussian": ("input", "omega", "J", "gamma", "r", "nbar", "tmax", "steps", "output"),
    "purity": ("omega", "J", "gamma", "tmax", "steps", "variant", "output"),
    "compare": ("input", "omega", "J", "gamma", "tmax", "steps", "cutoff",
                "dt", "tol", "dump_states", "output"),
    "figure": ("output",),
}

_COMMAND_DEFAULTS = {
    "lossless": {"input_spec": "fock:1,1", "coupling": 1.0, "t_max": math.pi},
    "noon": {"input_spec": "", "coupling": 1.0, "t_max": math.pi},
    "thermal": {"input_spec": "", "coupling": 1.0, "t_max": math.pi / 2},
    "damped": {"input_spec": "fock:1,1", "coupling": 0.5, "gamma": 0.05,
               "t_max": 2.0 * math.pi},
    "gaussian": {"input_spec": "", "coupling": 0.5, "gamma": 0.05,
                 "t_max": 10.0, "nbar": 0.0},
    "purity": {"coupling": 3.0, "gamma": 0.05, "t_max": 20.0},
    "compare": {"input_spec": "noon:2", "coupling": 0.5, "gamma": 0.05,
                "t_max": 10.0, "steps": 20},
    "figure": {},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledwg",
        description="Entanglement and decoherence curves for two coupled "
                    "lossy waveguide modes (CSV output).")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(command)
        if command == "figure":
            p.add_argument("figure_id", help="one of " + ", ".join(sorted(FIGURES)))
        p.add_argument("--config", default=None,
                       help="key=value file; flags given here override it")
        for flag in flags:
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
        if not sep or key not in _CONVERTERS:
            raise UsageError(f"{path}:{lineno}: expected <key>=<value> with a "
                             f"known key, got {raw!r}")
        values[key] = value.strip()
    return values


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    allowed = set(_COMMAND_FLAGS[command])
    merged = dict(_COMMAND_DEFAULTS[command])
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in allowed:
                raise UsageError(f"config key {key!r} not valid for {command!r}")
            try:
                merged[_FLAG_TO_FIELD[key]] = _CONVERTERS[key](raw)
            except ValueError:
                raise UsageError(f"config key {key!r}: bad value {raw!r}") from None
    for flag in allowed:
        raw = getattr(args, flag, None)
        if raw is None:
            continue
        try:
            merged[_FLAG_TO_FIELD[flag]] = _CONVERTERS[flag](raw)
        except ValueError:
            raise UsageError(f"--{flag.replace('_', '-')}: bad value {raw!r}") from None
    if command == "figure":
        merged["figure_id"] = args.figure_id
    return RunConfig(command=command, **merged)


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
