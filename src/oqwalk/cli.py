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

Output is streamed: results are computed first (so a failing computation
writes nothing), then written in blocks of rows, each row formatted by one
printf-style template.  --dump-distributions replays the chain one step at a
time after the series is written, so its memory is O(N), not O(steps * N).

A config file (--config, `key = value` lines, # comments) can supply any long
flag; explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain

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


# Longest omega range a command accepts.
_MAX_OMEGAS = 1_000_000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- serialization

# Rows formatted per `%` call, which bounds the text held in memory at once.
_BLOCK_ROWS = 4096


def _row_template(fields: list[str], columns: list[np.ndarray], csv: bool) -> str:
    ints = [c.dtype.kind in "iu" for c in columns]
    if csv:
        return ",".join("%d" if i else "%.17g" for i in ints) + "\n"
    members = ",\n".join(f"    {json.dumps(f)}: {'%d' if i else '%s'}"
                         for f, i in zip(fields, ints))
    return "  {\n" + members + "\n  }"


def _values(column: np.ndarray, csv: bool) -> list:
    # Python scalars: repr(np.float64) is not the float's repr under numpy 2
    values = column.tolist()
    if not csv and column.dtype.kind == "f" and not np.isfinite(column).all():
        # strict JSON has no inf/nan literals: write the strings "inf"/"-inf"/"nan"
        values = [v if math.isfinite(v) else f'"{v:.17g}"' for v in values]
    return values


def _write_table(fh, fields: list[str], chunks, fmt: str) -> None:
    """Write a table to the text stream `fh`, one chunk of rows at a time.

    Each chunk is a tuple of equal-length columns, one per field.  Rows are
    formatted by one printf-style template: integer columns with %d, float
    columns with %.17g in CSV (the same text as format(v, ".17g"), inf, nan
    and -0 included) and as repr(float) in JSON.  The output equals
    ",".join(format(v, ".17g")) per CSV row and json.dumps(records, indent=2)
    plus a newline for JSON, with non-finite floats as "inf"/"-inf"/"nan".
    """
    csv = fmt == "csv"
    if csv:
        fh.write(",".join(fields) + "\n")
    lead, sep = ("", "") if csv else ("[\n", ",\n")
    for chunk in chunks:
        columns = [np.asarray(c) for c in chunk]
        row = _row_template(fields, columns, csv)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [_values(c[start:start + _BLOCK_ROWS], csv) for c in columns]
            values = tuple(chain.from_iterable(zip(*block)))
            fh.write(lead + sep.join([row] * len(block[0])) % values)
            lead = sep
    if not csv:
        fh.write("\n]\n" if lead == sep else "[]\n")


def _emit(path: str | None, fields: list[str], chunks, fmt: str) -> None:
    """Stream a table to `path`, or to stdout when there is none."""
    if path is None:
        _write_table(sys.stdout, fields, chunks, fmt)
        return
    try:
        with open(path, "w", newline="") as fh:
            _write_table(fh, fields, chunks, fmt)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------- parameter handling

def _parse_omegas(text: str) -> list[float]:
    """Scalar `0.3` or inclusive range `start:stop:step`.

    The range holds start + k*step for k = 0, 1, ... while the value stays
    within stop + 1e-9*step.  Its length is computed before any value is
    built, and ranges longer than _MAX_OMEGAS are refused.
    """
    try:
        if ":" not in text:
            return [float(text)]
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"cannot parse omega {text!r}") from None
    # nan compares false and inf + k*step never exceeds inf: either would
    # leave the range without an end
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise CliError(EXIT_VALIDATION, f"bad omega range {text!r}")
    limit = stop + 1e-9 * step
    estimate = (limit - start) / step + 1.0
    if not estimate <= _MAX_OMEGAS + 2:
        raise CliError(EXIT_VALIDATION, f"omega range {text!r} has about {estimate:.3g} "
                                        f"values, more than {_MAX_OMEGAS}")
    # start + k*step is nondecreasing in k, so the values within the limit are
    # a prefix; move the estimate to its exact end.
    count = int(estimate)
    while count > 1 and start + (count - 1) * step > limit:
        count -= 1
    while start + count * step <= limit:
        count += 1
    if count > _MAX_OMEGAS:
        raise CliError(EXIT_VALIDATION, f"omega range {text!r} has {count} values, "
                                        f"more than {_MAX_OMEGAS}")
    return (start + np.arange(count) * step).tolist()


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
    pis = [lin.steady_state(_spec(args, omega)) for omega in omegas]
    m = np.arange(args.n_nodes)
    if len(omegas) > 1:
        chunks = [(np.full(len(pi), omega), m, pi) for omega, pi in zip(omegas, pis)]
        _emit(args.out, ["omega", "m", "pi"], chunks, args.format)
    else:
        _emit(args.out, ["m", "pi"], [(m, pis[0])], args.format)
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    for omega in omegas:
        if not 0.0 < omega < 1.0:
            raise CliError(EXIT_VALIDATION, f"omega {omega} outside (0, 1)")
    points = [EnsemblePoint.from_omega(args.n_nodes, omega, args.epsilon) for omega in omegas]
    tps = [eq.thermo_point(point) for point in points]
    columns = (omegas, [point.beta for point in points], [tp.T for tp in tps],
               [tp.Z for tp in tps], [tp.mean_E for tp in tps], [tp.var_E for tp in tps],
               [tp.S for tp in tps], [tp.F for tp in tps], [tp.C_V for tp in tps])
    _emit(args.out, ["omega", "beta", "T", "Z", "E", "varE", "S", "F", "Cv"], [columns],
          args.format)
    return EXIT_OK


def cmd_trajectory(args) -> int:
    _require(args, "n-nodes", "omega", "steps")
    omegas = _parse_omegas(args.omega)
    if len(omegas) != 1:
        raise CliError(EXIT_VALIDATION, "trajectory takes a single omega")
    spec = _spec(args, omegas[0])
    if args.steps < 0:
        raise CliError(EXIT_VALIDATION, f"steps must be nonnegative, got {args.steps}")
    traj = th.simulate_trajectory(spec, args.steps)
    series = (np.arange(args.steps + 1), traj.entropy, traj.energy,
              traj.temperature_estimate, traj.entropy_generated)
    _emit(args.out, ["n", "S", "E", "T_est", "S_gen"], [series], args.format)
    if args.dump_distributions is not None:
        # Replay the deterministic chain step by step (bit-identical to the
        # series run) so the dump holds one distribution at a time: O(N) memory.
        m = np.arange(spec.n_nodes)
        chunks = ((np.full(spec.n_nodes, n), m, p)
                  for n, p in enumerate(th.iter_distributions(spec, args.steps)))
        _emit(args.dump_distributions, ["n", "m", "p"], chunks, args.format)
    return EXIT_OK


def cmd_window(args) -> int:
    _require(args, "n-nodes", "omega")
    omegas = _parse_omegas(args.omega)
    windows = [th.thermalization_window(args.n_nodes, omega) for omega in omegas]
    columns = ([args.n_nodes] * len(omegas), omegas, [w.t_start for w in windows],
               [w.t_end for w in windows], [w.t_therm for w in windows])
    _emit(args.out, ["n_nodes", "omega", "t_start", "t_end", "t_therm"], [columns],
          args.format)
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
    ts = range(1, horizon + 1)
    parts = [th.approx_entropy_components(spec, t, params=params, boltzmann=boltzmann)
             for t in ts]
    columns = (ts, [c.total for c in parts], [c.gaussian for c in parts],
               [c.boltzmann for c in parts], [c.weight for c in parts])
    _emit(args.out, ["t", "S_a", "S_G", "S_B", "w"], [columns], args.format)
    return EXIT_OK


def _one_row(values: list) -> list[tuple]:
    """A single-row table as the one chunk `_emit` takes."""
    return [tuple([v] for v in values)]


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
    print(f"error metrics for N={spec.n_nodes}, omega={spec.omega:.17g} "
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
        _emit(args.out, fields, _one_row([
            report.n_nodes, report.omega, report.t_start, report.t_end, report.delta_max,
            report.delta_rel_max, report.mean_rel, report.delta_logn_max, report.mean_logn,
        ]), args.format)
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
        _emit(args.out, fields, _one_row([args.n_nodes, omega, est.n_start, est.n_steps,
                                          est.n_end, e_eq, de_domega]), args.format)
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
