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

Each subcommand takes exactly the flags that change its result: the level
spacing --epsilon enters only the energies, so `equilibrium`, `trajectory`
and `dqc` take it, and `table` takes its steps from its window alone.

Everything is deterministic: identical invocations on one numpy and BLAS
build produce byte-identical files.  `trajectory`'s E, T_est and S_gen come
from numpy's matmul over blocks of _BLOCK_BYTES // (8 N) steps, so their last
bits can move with another numpy or BLAS build.  CSV floats are serialized
with 17 significant digits, JSON floats as Python's repr (the shortest text
that reads back to the same double); divergences are written as inf/-inf
(CSV) or the strings "inf"/"-inf" (JSON).  Exit codes: 0 success, 2 invalid
parameters (a flag the subcommand does not take included), 3 I/O failure (a
stdout that cannot be written included, by a table, a print or --help).

Output is streamed: results are computed first (so a failing computation
writes nothing), then written in blocks of at most 4096 rows, one write each.
CSV and JSON share the blocks: a column chunk is cut into blocks of rows,
never merged with the next.  The two long (label, m, value) tables, a
steady-state omega range and the distribution dump, take one grid path: the
writer asks for as many whole labels (omegas or steps) as fill a block, or
for one label, written in pieces of 4096 nodes, when N is larger.  Numbers
are formatted a block at a time by a numpy kernel (oqwalk._numtext) that
gives the bytes of format(v, ".17g") (CSV), repr(v) (JSON) and str(v),
leaving the roundings it cannot decide (about 1%), inf, nan, integers beyond
2**53 and arrays of fewer than 256 values to CPython.  The constant pieces
(CSV commas, JSON separators, braces and member names) form one template row,
broadcast to every row of the block's uint8 row matrix; each column's text is
copied once into its slot, and the block's NUL bytes are dropped at once.
--dump-distributions replays the chain after the series is written, through
the series' band generator at its exact floor: O(N) memory, not O(steps * N).
An omega range is checked whole before any work, its first omega outside
(0, 1) refused; steady-state then computes pi a block at a time.
approx-entropy computes its series one block of t at a time as it writes, so
its memory does not grow with --steps.  `table` takes the window's integer
steps [ceil(t_start), floor(t_end)] from the library's one rounding of it, as
its header's range and its chain's length; it refuses a split with no tail
before it runs its chain.

Both exact series go through oqwalk._trajectory._reduce_chain, which sums
p log max(p, 5e-324) of each block's band over full rows (-0.0 where p = 0
moves a sum only in the sign of a zero, which S = 0.0 - sum clears), so each
value is the full row's bit for bit.  `trajectory` takes S and E on every
step (no mass) and derives T_est and S_gen as simulate_trajectory does.
`table` reads S on the window's steps alone: its chain runs to the window's
last step and reduces no row before it.

A run loads only what its subcommand calls, and its parser adds the flags of
that subcommand alone (all seven are still registered, so usage lines and
errors read the same).  This module loads the exact chain's series
(oqwalk._trajectory), which `trajectory` and `table` run; `window`,
`approx-entropy`, `table` and `dqc` import oqwalk.thermalization when they
start, so `steady-state`, `equilibrium` and `trajectory` never load it, and
no subcommand loads the Kraus engine (oqwalk.channel).

A config file (--config, `key = value` lines, # comments) can supply any long
flag, each value read with that flag's type; explicit command-line flags win.
A key that names no flag is refused with its file and line, a key for a flag
the subcommand lacks is ignored, and a `format` or `boltzmann` value is checked
against its flag's choices like a command-line value, before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import _trajectory as tr
from . import equilibrium as eq
from . import linear as lin
from ._numtext import text, text_matrix
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

# Rows written per block, which bounds the text held in memory at once.
_BLOCK_ROWS = 4096


def _rows(n: int, pieces: list[np.ndarray], cells: list) -> np.ndarray:
    """n rows from the texts `cells` (each with a width and put(slot), as
    _numtext.Text), with the byte arrays pieces[i] before cell i and
    pieces[-1] after the last, in one uint8 row matrix.  One template row, the
    pieces with NULs in the cells' slots, is broadcast to every row; then
    each cell is put in its slot."""
    template, slots, at = [], [], 0
    for piece, cell in zip(pieces, cells):
        template += [piece, np.zeros(cell.width, dtype=np.uint8)]
        slots.append(at + len(piece))
        at = slots[-1] + cell.width
    template.append(pieces[-1])
    template = np.concatenate(template)
    rows = np.empty((n, len(template)), dtype=np.uint8)
    rows[:] = template
    for at, cell in zip(slots, cells):
        cell.put(rows[:, at:at + cell.width])
    return rows


def _text(rows: np.ndarray) -> str:
    """A row matrix's text: its bytes with the NULs dropped, at once."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _column_blocks(chunk: tuple) -> Iterator[list[np.ndarray]]:
    """A chunk of equal-length columns cut into blocks of at most _BLOCK_ROWS rows."""
    columns = [np.asarray(c) for c in chunk]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield [c[start:start + _BLOCK_ROWS] for c in columns]


class _Grid(NamedTuple):
    """A table chunk of rows (label, m, value): each node m of each row of the
    (len(labels), n_nodes) matrix that blocks(rows) yields rows labels at a time."""

    labels: Sequence
    n_nodes: int
    blocks: Callable[[int], Iterator[np.ndarray]]


class _Spread(NamedTuple):
    """A text matrix spread over a grid block's (labels, nodes) rows: `text`
    is (labels, 1, width) for the labels, (1, nodes, width) for the nodes."""

    text: np.ndarray
    shape: tuple[int, int, int]

    @property
    def width(self) -> int:
        return self.shape[2]

    def put(self, slot: np.ndarray) -> None:
        np.copyto(slot.reshape(self.shape), self.text)


def _grid_cells(style: str, grid: _Grid) -> Iterator[tuple[int, list]]:
    """The texts (label, m, value) of a _Grid in writer blocks of rows: whole
    labels when N <= _BLOCK_ROWS, else pieces of _BLOCK_ROWS nodes.  The node
    labels are formatted once per table, and each block's labels once."""
    n = grid.n_nodes
    nodes = [(lo, text_matrix(np.arange(lo, min(lo + _BLOCK_ROWS, n)), style))
             for lo in range(0, n, _BLOCK_ROWS)]
    start = 0
    for block in grid.blocks(max(1, _BLOCK_ROWS // n)):
        labels = text_matrix(np.asarray(grid.labels[start:start + len(block)]), style)
        start += len(block)
        for lo, node_text in nodes:
            shape = (len(block), len(node_text))
            yield shape[0] * shape[1], [
                _Spread(labels[:, None], (*shape, labels.shape[1])),
                _Spread(node_text[None], (*shape, node_text.shape[1])),
                text(block[:, lo:lo + shape[1]].ravel(), style)]


def _write_table(fh, fields: list[str], chunks, fmt: str) -> None:
    """Write a table to the text stream `fh`, one block of rows at a time.

    Each chunk is a tuple of equal-length columns, one per field, or a _Grid.
    The output equals ",".join(format(v, ".17g")) per CSV row (str(v) for
    integers) and json.dumps(records, indent=2) plus a newline for JSON, with
    non-finite floats as "inf"/"-inf"/"nan".

    One loop serves both formats: column chunks are cut into blocks of at
    most _BLOCK_ROWS rows, and _grid_cells asks a _Grid for as many whole
    labels as fill a block.  Each column of a block is formatted by the
    _numtext kernel, '%.17g' for CSV and repr for JSON, and _rows puts a
    format's constant pieces between the columns: ','s and a newline for CSV,
    a record's separator, braces and member names for JSON.  Each JSON record
    starts with the ",\n" that separates it from the one before; the first
    record's ',' becomes the opening '['.
    """
    if fmt == "csv":
        fh.write(",".join(fields) + "\n")
        pieces = ["", *[","] * (len(fields) - 1), "\n"]
        style, lead = "%.17g", b""
    else:
        names = [json.dumps(f) for f in fields]
        pieces = [f",\n  {{\n    {names[0]}: ", *[f",\n    {name}: " for name in names[1:]],
                  "\n  }"]
        style, lead = "json", b"["
    pieces = [np.frombuffer(p.encode("ascii"), dtype=np.uint8) for p in pieces]
    for chunk in chunks:
        if isinstance(chunk, _Grid):
            blocks = _grid_cells(style, chunk)
        else:
            blocks = ((len(block[0]), [text(c, style) for c in block])
                      for block in _column_blocks(chunk))
        for n, cells in blocks:
            rows = _rows(n, pieces, cells)
            rows[0, :len(lead)] = np.frombuffer(lead, dtype=np.uint8)
            lead = b""
            fh.write(_text(rows))
    if fmt == "json":
        fh.write("[]\n" if lead else "\n]\n")


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
    within stop + 1e-9*step.  Its length is estimated before any value is
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
    # a prefix, and the estimate is within one value of its end
    values = start + np.arange(int(estimate) + 2) * step
    count = int(np.searchsorted(values, limit, side="right"))
    if count > _MAX_OMEGAS:
        raise CliError(EXIT_VALIDATION, f"omega range {text!r} has {count} values, "
                                        f"more than {_MAX_OMEGAS}")
    return values[:count].tolist()


def _check_omegas(omegas: list[float]) -> None:
    """Refuse the first omega outside (0, 1), by eq._check_omega, in one pass."""
    w = np.asarray(omegas)
    inside = (w > 0.0) & (w < 1.0)
    if not inside.all():
        eq._check_omega(omegas[int(np.argmin(inside))])


def _single_omega(args) -> float:
    omegas = _parse_omegas(args.omega)
    if len(omegas) != 1:
        raise CliError(EXIT_VALIDATION, f"{args.command} takes a single omega")
    return omegas[0]


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
        if key not in _FLAGS or key == "config":
            raise CliError(EXIT_VALIDATION, f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key.replace("-", "_")] = _FLAGS[key]["type"](val)
        except ValueError:
            raise CliError(EXIT_VALIDATION, f"{path}:{lineno}: bad value for {key}") from None
    return values


# ---------------------------------------------------------------- subcommands
# Each handler yields its tables as (path, fields, chunks), path None meaning
# stdout; main writes each table before it asks for the next.

def cmd_steady_state(args):
    n, omegas = args.n_nodes, _parse_omegas(args.omega)
    # N and every omega are checked once, in order, before anything is written
    eq._check_n_nodes(n)
    _check_omegas(omegas)
    if len(omegas) == 1:        # a single omega's table has no omega column
        yield args.out, ["m", "pi"], [(np.arange(n), lin._steady_states(n, omegas)[0])]
    else:
        def blocks(rows: int) -> Iterator[np.ndarray]:
            for start in range(0, len(omegas), rows):
                yield lin._steady_states(n, omegas[start:start + rows])

        yield args.out, ["omega", "m", "pi"], [_Grid(omegas, n, blocks)]


def cmd_equilibrium(args):
    omegas = _parse_omegas(args.omega)
    _check_omegas(omegas)
    # a beta out of the double range is refused by thermo_points, not warned of here
    with np.errstate(over="ignore"):
        betas = -eq._log_odds(omegas) / args.epsilon
    tp = eq.thermo_points(args.n_nodes, betas, args.epsilon)
    columns = (omegas, betas, tp.T, tp.Z, tp.mean_E, tp.var_E, tp.S, tp.F, tp.C_V)
    yield args.out, ["omega", "beta", "T", "Z", "E", "varE", "S", "F", "Cv"], [columns]


def cmd_trajectory(args):
    spec = LinearWalkSpec(args.n_nodes, _single_omega(args), args.epsilon)
    t_eq = eq.equilibrium_temperature(spec.omega, spec.epsilon)
    # simulate_trajectory's series without its mass and residuals
    s = tr._reduce_chain(spec, args.steps)
    series = (np.arange(args.steps + 1), s.entropy, s.energy,
              tr._temperature_estimate(s.energy, s.entropy, tr._T_EST_HALF_WIDTH),
              tr._generated_entropy(s.entropy, s.energy, t_eq))
    yield args.out, ["n", "S", "E", "T_est", "S_gen"], [series]
    if args.dump_distributions is not None:
        # Replay the exact chain one writer block of steps at a time: O(N) memory.
        def blocks(rows: int) -> Iterator[np.ndarray]:
            return (block for _, block in tr._exact_blocks(spec, args.steps, None, rows))

        yield args.dump_distributions, ["n", "m", "p"], [
            _Grid(range(args.steps + 1), spec.n_nodes, blocks)]


def cmd_window(args):
    from . import thermalization as th

    omegas = _parse_omegas(args.omega)
    windows = [th.thermalization_window(args.n_nodes, omega) for omega in omegas]
    columns = ([args.n_nodes] * len(omegas), omegas, [w.t_start for w in windows],
               [w.t_end for w in windows], [w.t_therm for w in windows])
    yield args.out, ["n_nodes", "omega", "t_start", "t_end", "t_therm"], [columns]


def cmd_approx_entropy(args):
    from . import thermalization as th

    spec = LinearWalkSpec(args.n_nodes, _single_omega(args))
    if args.steps is not None:
        lin._check_steps(args.steps)
    params = th.approx_entropy_params(spec.n_nodes, spec.omega)
    window = th.thermalization_window(spec.n_nodes, spec.omega)
    horizon = args.steps if args.steps is not None else math.ceil(1.2 * window.t_end)

    def rows(start: int) -> tuple:
        ts = np.arange(start, min(start + _BLOCK_ROWS, horizon + 1))
        c = th.approx_entropy_components(spec, ts, params=params, boltzmann=args.boltzmann)
        return ts, c.total, c.gaussian, c.boltzmann, c.weight

    # The kernel is elementwise in t, so blocks of t give the one-call bytes in
    # O(block) memory.
    yield args.out, ["t", "S_a", "S_G", "S_B", "w"], map(rows, range(1, horizon + 1, _BLOCK_ROWS))


def _one_row(values: list) -> list[tuple]:
    """A single-row table as its one chunk."""
    return [tuple([v] for v in values)]


def cmd_table(args):
    from . import thermalization as th

    spec = LinearWalkSpec(args.n_nodes, _single_omega(args))
    window = th.thermalization_window(spec.n_nodes, spec.omega)
    # the split is refused before the chain runs
    params = th.approx_entropy_params(spec.n_nodes, spec.omega)
    ts = th._window_steps(window)
    # the metrics read S on the window's steps only: the chain runs to its
    # last one, and S is reduced on those steps alone
    entropy = tr._reduce_chain(spec, ts[-1], span=ts).entropy
    report = th._window_metrics(spec, window, ts, entropy, params=params,
                                boltzmann=args.boltzmann)
    print(f"error metrics for N={spec.n_nodes}, omega={spec.omega:.17g} "
          f"over steps [{ts[0]}, {ts[-1]}]:")
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
        yield args.out, fields, _one_row([getattr(report, f) for f in fields])


def cmd_dqc(args):
    from . import thermalization as th

    omega = _single_omega(args)
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
        yield args.out, fields, _one_row([args.n_nodes, omega, est.n_start, est.n_steps,
                                          est.n_end, e_eq, de_domega])


# ---------------------------------------------------------------- parser

# Each long flag's argparse settings, in --help order; config values are read
# with the same `type`.  A subcommand takes every flag that is no subcommand's
# extra, plus its own extras.
_FLAGS: dict[str, dict] = {
    "n-nodes": dict(type=int, help="lattice size N"),
    "omega": dict(type=str, help="hop weight: scalar or start:stop:step range"),
    "epsilon": dict(type=float, default=1.0, help="level spacing (default 1)"),
    "steps": dict(type=int, help="number of steps"),
    "format": dict(type=str, choices=("csv", "json"), default="csv",
                   help="output format (default csv)"),
    "out": dict(type=str, help="output path (default stdout)"),
    "dump-distributions": dict(type=str,
                               help="also write per-step distributions (n,m,p) to this path"),
    "boltzmann": dict(type=str, choices=("tail-sum", "weighted-equilibrium"), default="tail-sum",
                      help="Boltzmann-piece convention of the entropy approximation "
                           "(default tail-sum)"),
    "config": dict(type=str, help="key = value file supplying defaults for the flags above"),
}


# A subcommand: its handler, help line, extra flags and required flags.
_Command = namedtuple("_Command", "handler help extras required",
                      defaults=((), ("n-nodes", "omega")))
_COMMANDS = {
    "steady-state": _Command(cmd_steady_state, "stationary distribution"),
    "equilibrium": _Command(cmd_equilibrium, "equilibrium observable sweep", ("epsilon",)),
    "trajectory": _Command(cmd_trajectory, "exact per-step series",
                           ("epsilon", "steps", "dump-distributions"),
                           ("n-nodes", "omega", "steps")),
    "window": _Command(cmd_window, "thermalization window bounds"),
    "approx-entropy": _Command(cmd_approx_entropy, "closed-form entropy approximation series",
                               ("steps", "boltzmann")),
    "table": _Command(cmd_table, "approximation error metrics over the window", ("boltzmann",)),
    "dqc": _Command(cmd_dqc, "step estimates and energy bookkeeping", ("epsilon",)),
}


class _Parser(argparse.ArgumentParser):
    """argparse's print_help drops an OSError from its write; this one raises
    it, and flushes, so that --help into an unwritable stdout fails like any
    other write."""

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the flags of the one argv runs.

    All seven subcommands are registered, so that usage lines and the choice
    error read the same for every argv.  A subcommand's flags are added only
    when argv names it, or when argv (None included) names none: argparse
    runs the subcommand its first positional argument names, and no top-level
    option takes a value, so that is the first item of argv that is a
    subcommand's name; where that argument names none, argparse refuses it
    before any flag is read.
    """
    parser = _Parser(
        prog="oqwalk",
        description="Linear open-quantum-walk simulations and thermodynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    extras = {flag for command in _COMMANDS.values() for flag in command.extras}
    named = next((a for a in argv or () if a in _COMMANDS), None)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if named in (None, name):
            for flag, settings in _FLAGS.items():
                if flag in command.extras or flag not in extras:
                    p.add_argument(f"--{flag}", **settings)
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
        command = _COMMANDS[args.command]
        if args.config is not None:
            # Typed defaults: argparse converts only string defaults, by `type`
            # and never by `choices`.  Parsing argv again makes explicit flags win.
            values = _load_config(args.config).items()
            args.parser.set_defaults(**{k: v for k, v in values if hasattr(args, k)})
            args = parser.parse_args(argv)
        if "epsilon" in command.extras:
            eq._check_epsilon(args.epsilon)
        for flag, settings in _FLAGS.items():
            value = getattr(args, flag.replace("-", "_"), None)
            if "choices" in settings and value not in (None, *settings["choices"]):
                choices = " or ".join(settings["choices"])
                raise CliError(EXIT_VALIDATION, f"{flag} must be {choices}, got {value!r}")
        for flag in command.required:
            if getattr(args, flag.replace("-", "_")) is None:
                raise CliError(EXIT_VALIDATION, f"missing required parameter --{flag}")
        for path, fields, chunks in command.handler(args):
            _emit(path, fields, chunks, args.format)
        sys.stdout.flush()
        return EXIT_OK
    except (CliError, ValueError) as exc:
        print(f"oqwalk: error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_VALIDATION
    except OSError as exc:  # stdout, by a table, a print or --help: a failed --out is a CliError
        print(f"oqwalk: error: cannot write stdout: {exc}", file=sys.stderr)
        with contextlib.suppress(AttributeError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())  # so the exit flush cannot fail
        return EXIT_IO
    except MemoryError as exc:  # a run too large for this host is refused like a bad parameter
        print(f"oqwalk: error: not enough memory for this run: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
