"""Command-line harness: parameter sweeps, trajectories, tables, window estimates.

Subcommands
-----------
steady-state    stationary distribution rows (m, pi) for one or more omega
equilibrium     sweep of Z, E, Var, S, F, C_V, T over an omega range
trajectory      exact per-step series n, S, E, T_est, S_gen
window          thermalization window (t_start, t_end, t_therm)
approx-entropy  closed-form entropy approximation series over time
table           error metrics of the approximation against the exact run
dqc             step-count estimates and energy bookkeeping for readout runs

Everything is deterministic: identical invocations produce byte-identical
files.  Floats are serialized with 17 significant digits; divergences are
written as inf/-inf (CSV) or the strings "inf"/"-inf" (JSON).  Exit codes:
0 success, 2 invalid parameters, 3 I/O failure.

A config file (--config, `key = value` lines, # comments) can supply any long
flag; explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import equilibrium as eq
from . import linear as lin
from . import thermalization as th
from .equilibrium import EnsemblePoint
from .linear import LinearWalkSpec

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- serialization

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_value(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    if math.isfinite(value):
        return value
    return _fmt(value)  # "inf" / "-inf" / "nan": strict JSON has no literals


def _render(fields: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(fields) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        return buf.getvalue()
    records = [{f: _json_value(v) for f, v in zip(fields, row)} for row in rows]
    return json.dumps(records, indent=2) + "\n"


def _emit(args, fields: list[str], rows: list[list]) -> None:
    text = _render(fields, rows, args.format)
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {args.out}: {exc}") from exc


# ---------------------------------------------------------------- parameter handling

def _parse_omegas(text: str) -> list[float]:
    """Scalar `0.3` or inclusive range `start:stop:step`."""
    try:
        if ":" not in text:
            return [float(text)]
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"cannot parse omega {text!r}") from None
    if step <= 0 or stop < start:
        raise CliError(EXIT_VALIDATION, f"bad omega range {text!r}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * step:
            break
        values.append(v)
        k += 1
    return values


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise CliError(EXIT_VALIDATION, f"missing required parameter --{name}")


def _spec(args, omega: float) -> LinearWalkSpec:
    return LinearWalkSpec(args.n_nodes, omega, args.epsilon)


_CONFIG_CASTS = {
    "n-nodes": int,
    "omega": str,
    "epsilon": float,
    "steps": int,
    "format": str,
    "out": str,
    "jobs": int,
    "dump-distributions": str,
    "boltzmann": str,
}


def _load_config(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(EXIT_VALIDATION, f"{path}:{lineno}: expected `key = value`")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_CASTS:
            raise CliError(EXIT_VALIDATION, f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key.replace("-", "_")] = _CONFIG_CASTS[key](val)
        except ValueError:
            raise CliError(EXIT_VALIDATION, f"{path}:{lineno}: bad value for {key}") from None
    return values


def _merge_config(args) -> None:
    # config supplies values only where the command line left the default None
    if args.config is None:
        return
    for dest, value in _load_config(args.config).items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


# ---------------------------------------------------------------- subcommands

def cmd_steady_state(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    multi = len(omegas) > 1
    fields = ["omega", "m", "pi"] if multi else ["m", "pi"]
    rows = []
    for omega in omegas:
        pi = lin.steady_state(_spec(args, omega))
        for m, p in enumerate(pi):
            rows.append([omega, m, p] if multi else [m, p])
    _emit(args, fields, rows)
    return EXIT_OK


def _equilibrium_row(n_nodes: int, epsilon: float, omega: float) -> list:
    point = EnsemblePoint.from_omega(n_nodes, omega, epsilon)
    tp = eq.thermo_point(point)
    return [omega, point.beta, tp.T, tp.Z, tp.mean_E, tp.var_E, tp.S, tp.F, tp.C_V]


def cmd_equilibrium(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    for omega in omegas:
        if not 0.0 < omega < 1.0:
            raise CliError(EXIT_VALIDATION, f"omega {omega} outside (0, 1)")
    rows = [_equilibrium_row(args.n_nodes, args.epsilon, omega) for omega in omegas]
    _emit(args, ["omega", "beta", "T", "Z", "E", "varE", "S", "F", "Cv"], rows)
    return EXIT_OK


def cmd_trajectory(args) -> int:
    _require(args, "n-nodes", "omega", "steps")
    omegas = _parse_omegas(args.omega)
    if len(omegas) != 1:
        raise CliError(EXIT_VALIDATION, "trajectory takes a single omega")
    spec = _spec(args, omegas[0])
    if args.steps < 0:
        raise CliError(EXIT_VALIDATION, f"steps must be nonnegative, got {args.steps}")
    traj = th.simulate_trajectory(
        spec, args.steps, keep_distributions=args.dump_distributions is not None)
    rows = [
        [n, traj.entropy[n], traj.energy[n],
         traj.temperature_estimate[n], traj.entropy_generated[n]]
        for n in range(args.steps + 1)
    ]
    _emit(args, ["n", "S", "E", "T_est", "S_gen"], rows)
    if args.dump_distributions is not None:
        dump_rows = [
            [n, m, traj.distributions[n, m]]
            for n in range(args.steps + 1)
            for m in range(spec.n_nodes)
        ]
        text = _render(["n", "m", "p"], dump_rows, args.format)
        try:
            with open(args.dump_distributions, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {args.dump_distributions}: {exc}") from exc
    return EXIT_OK


def cmd_window(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    rows = []
    for omega in omegas:
        w = th.thermalization_window(args.n_nodes, omega)
        rows.append([args.n_nodes, omega, w.t_start, w.t_end, w.t_therm])
    _emit(args, ["n_nodes", "omega", "t_start", "t_end", "t_therm"], rows)
    return EXIT_OK


def cmd_approx_entropy(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    if len(omegas) != 1:
        raise CliError(EXIT_VALIDATION, "approx-entropy takes a single omega")
    spec = _spec(args, omegas[0])
    boltzmann = args.boltzmann or "tail-sum"
    params = th.approx_entropy_params(spec.n_nodes, spec.omega)
    window = th.thermalization_window(spec.n_nodes, spec.omega)
    horizon = args.steps if args.steps is not None else math.ceil(1.2 * window.t_end)
    rows = []
    for t in range(1, horizon + 1):
        parts = th.approx_entropy_components(spec, t, params=params, boltzmann=boltzmann)
        rows.append([t, parts.total, parts.gaussian, parts.boltzmann, parts.weight])
    _emit(args, ["t", "S_a", "S_G", "S_B", "w"], rows)
    return EXIT_OK


def cmd_table(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    if len(omegas) != 1:
        raise CliError(EXIT_VALIDATION, "table takes a single omega")
    spec = _spec(args, omegas[0])
    boltzmann = args.boltzmann or "tail-sum"
    window = th.thermalization_window(spec.n_nodes, spec.omega)
    steps = args.steps if args.steps is not None else math.floor(window.t_end)
    traj = th.simulate_trajectory(spec, steps)
    report = th.error_metrics(spec, traj, boltzmann=boltzmann)
    print(f"error metrics for N={spec.n_nodes}, omega={_fmt(spec.omega)} "
          f"over steps [{math.ceil(window.t_start)}, {math.floor(window.t_end)}]:")
    for label, value in [
        ("delta_max", report.delta_max),
        ("delta_rel_max", report.delta_rel_max),
        ("mean_rel", report.mean_rel),
        ("delta_logN_max", report.delta_logn_max),
        ("mean_logN", report.mean_logn),
    ]:
        print(f"  {label:<15} {value:.6f}")
    if args.out is not None:
        fields = ["n_nodes", "omega", "t_start", "t_end", "delta_max",
                  "delta_rel_max", "mean_rel", "delta_logn_max", "mean_logn"]
        _emit(args, fields, [[report.n_nodes, report.omega, report.t_start,
                              report.t_end, report.delta_max, report.delta_rel_max,
                              report.mean_rel, report.delta_logn_max, report.mean_logn]])
    return EXIT_OK


def cmd_dqc(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    if len(omegas) != 1:
        raise CliError(EXIT_VALIDATION, "dqc takes a single omega")
    omega = omegas[0]
    est = th.dqc_step_estimates(args.n_nodes, omega)
    point = EnsemblePoint.from_omega(args.n_nodes, omega, args.epsilon)
    e_eq = eq.mean_energy(point)          # energy absorbed reaching the steady state
    de_domega = eq.energy_cost_domega(point)
    print(f"n_start = {est.n_start:.2f}")
    print(f"n_steps = {est.n_steps:.2f}")
    print(f"n_end   = {est.n_end:.2f}")
    print(f"energy to steady state  = {e_eq:.6f}")
    print(f"d<E>/domega at omega    = {de_domega:.6f}")
    if args.out is not None:
        fields = ["n_nodes", "omega", "n_start", "n_steps", "n_end", "E_eq", "dE_domega"]
        _emit(args, fields, [[args.n_nodes, omega, est.n_start, est.n_steps,
                              est.n_end, e_eq, de_domega]])
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqwalk",
        description="Linear open-quantum-walk simulations and thermodynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=False, dump=False, boltzmann=False):
        p.add_argument("--n-nodes", type=int, default=None, help="lattice size N")
        p.add_argument("--omega", type=str, default=None,
                       help="hop weight: scalar or start:stop:step range")
        p.add_argument("--epsilon", type=float, default=None, help="level spacing (default 1)")
        if steps:
            p.add_argument("--steps", type=int, default=None, help="number of steps")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default csv)")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--jobs", type=int, default=None,
                       help="ignored; accepted so existing scripts and configs keep working")
        if dump:
            p.add_argument("--dump-distributions", type=str, default=None,
                           help="also write per-step distributions (n,m,p) to this path")
        if boltzmann:
            p.add_argument("--boltzmann", choices=("tail-sum", "weighted-equilibrium"),
                           default=None,
                           help="Boltzmann-piece convention of the entropy approximation "
                                "(default tail-sum)")
        p.add_argument("--config", type=str, default=None,
                       help="key = value file supplying defaults for the flags above")

    p = sub.add_parser("steady-state", help="stationary distribution")
    common(p)
    p.set_defaults(handler=cmd_steady_state)

    p = sub.add_parser("equilibrium", help="equilibrium observable sweep")
    common(p)
    p.set_defaults(handler=cmd_equilibrium)

    p = sub.add_parser("trajectory", help="exact per-step series")
    common(p, steps=True, dump=True)
    p.set_defaults(handler=cmd_trajectory)

    p = sub.add_parser("window", help="thermalization window bounds")
    common(p)
    p.set_defaults(handler=cmd_window)

    p = sub.add_parser("approx-entropy", help="closed-form entropy approximation series")
    common(p, steps=True, boltzmann=True)
    p.set_defaults(handler=cmd_approx_entropy)

    p = sub.add_parser("table", help="approximation error metrics over the window")
    common(p, steps=True, boltzmann=True)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("dqc", help="step estimates and energy bookkeeping")
    common(p)
    p.set_defaults(handler=cmd_dqc)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        _merge_config(args)
        if args.epsilon is None:
            args.epsilon = 1.0
        if args.format is None:
            args.format = "csv"
        if args.epsilon <= 0:
            raise CliError(EXIT_VALIDATION, f"epsilon must be positive, got {args.epsilon}")
        return args.handler(args)
    except CliError as exc:
        print(f"oqwalk: error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"oqwalk: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
