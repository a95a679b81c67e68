"""Span tracing at the layer boundaries, and the per-layer numbers derived from it.

The worker replaces the module attributes that callers look up with wrappers
that record one span per call: (id, parent id, name, start, end, size, nbytes).
`size`/`nbytes` describe the call's first argument when it is an array, so
counts are taken where the work happens.  Spans stay in memory and are written
once the timed call has returned, all spans of one run under that run's id.
Nothing under src/ is modified: the wrappers are installed at run time only.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs looked up by callers at call time.
TRACED = [
    ("thermalization", "simulate_trajectory"),
    ("thermalization", "markov_step"),
    ("thermalization", "shannon_entropy"),
    ("equilibrium", "thermo_point"),
    ("channel", "step"),
    ("channel", "validate_channel"),
    ("channel", "position_marginal"),
]

LAYERS = ("cli", "thermalization", "linear", "equilibrium", "channel", "bench")
ROOT = 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(ROOT + 1)
        self._local = threading.local()

    def install(self) -> None:
        for module, attr in TRACED:
            mod = importlib.import_module(f"oqwalk.{module}")
            setattr(mod, attr, self._wrap(getattr(mod, attr)))

    def _stack(self) -> list[int]:
        # Threads started inside the timed call (the --jobs pool) begin at the root.
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [ROOT]
        return stack

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            parent, sid = stack[-1], next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                first = args[0] if args else None
                spans.append((sid, parent, name, start, end,
                              getattr(first, "size", 0), getattr(first, "nbytes", 0)))

        return traced

    @contextmanager
    def root(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((ROOT, None, name, start, perf_counter(), 0, 0))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start if cur_end is not None else 0.0)


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Exclusive wall time per layer; the values sum to the root span's duration.

    A layer's self time is the time its spans are open while none of their
    children is.  When spans of several threads are open at once, each instant
    is shared evenly among them, so concurrent pool calls are not counted twice.
    """
    events = []
    for sid, parent, name, start, end, *_ in spans:
        events.append((start, 1, sid, parent, name))
        events.append((end, 0, sid, parent, name))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    active: dict[int, str] = {}     # open spans with no open child -> layer
    layer_of: dict[int, str] = {}
    out = dict.fromkeys(LAYERS, 0.0)
    last = events[0][0] if events else 0.0
    for t, opening, sid, parent, name in events:
        if active:
            share = (t - last) / len(active)
            for layer in active.values():
                out[layer] += share
        last = t
        if opening:
            layer_of[sid] = name.split(".", 1)[0]
            is_open.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                active.pop(parent, None)
            active[sid] = layer_of[sid]
        else:
            is_open.discard(sid)
            active.pop(sid, None)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    active[parent] = layer_of[parent]
    return out


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer times, call counts and computed byte counts of one traced run."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def covered(name):   # wall time during which at least one call was open
        return _union([(s[3], s[4]) for s in by_name[name]])

    def calls(name):
        return float(len(by_name[name]))

    def total(name, col):
        return float(sum(s[col] for s in by_name[name]))

    root = next(s for s in spans if s[1] is None)
    selfs = self_times(spans)
    m = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
    m.update({
        "thermalization.simulate_trajectory_s": covered("thermalization.simulate_trajectory"),
        "thermalization.shannon_entropy_s": covered("thermalization.shannon_entropy"),
        "thermalization.shannon_entropy_calls": calls("thermalization.shannon_entropy"),
        # computed, not measured: the reduction reads each float64 of p once
        "thermalization.entropy_bytes_computed": total("thermalization.shannon_entropy", 6),
        "linear.markov_step_s": covered("linear.markov_step"),
        "linear.markov_step_calls": calls("linear.markov_step"),
        "linear.site_updates": total("linear.markov_step", 5),
        # computed, not measured: the stencil reads p once and writes q once
        "linear.bytes_moved_computed": 2.0 * total("linear.markov_step", 6),
        "equilibrium.thermo_point_s": covered("equilibrium.thermo_point"),
        "equilibrium.thermo_point_calls": calls("equilibrium.thermo_point"),
        "channel.step_s": covered("channel.step"),
        "channel.step_calls": calls("channel.step"),
        "channel.validate_channel_s": covered("channel.validate_channel"),
        "channel.validate_channel_calls": calls("channel.validate_channel"),
        "channel.position_marginal_s": covered("channel.position_marginal"),
        "trace.run_s": root[4] - root[3],
        "trace.spans": float(len(spans)),
    })
    steps = m["channel.step_calls"]
    m["channel.validate_per_step"] = m["channel.validate_channel_calls"] / steps if steps else 0.0
    return m
