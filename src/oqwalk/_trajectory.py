"""The exact chain's per-step series: S, E, T_est and S_gen of a trajectory.

This is the part of the nonequilibrium analysis that runs the chain: the band
generator _chain_blocks that yields p_0, ..., p_steps a block of steps at a
time with each row's band, the one reducer _reduce_chain that takes S and E
(and the mass when asked) over a range of those steps, the Shannon entropy (and
its p log p, _xlogx), TrajectoryRecord and simulate_trajectory,
iter_distributions and entropy_production.  It holds no
analytic form, so a run of the series loads neither the thermalization
window nor the entropy approximation.  This module is the one home of the
series' names, the one a monkeypatch must target to reach a call made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import equilibrium
from .linear import LinearWalkSpec, _start, markov_step, steady_state

# |dS| below this is treated as a vanishing denominator in dE/dS estimates.
_FLAT_ENTROPY_TOL = 1e-12

# Steps on either side of the centred differences of the temperature estimate.
_T_EST_HALF_WIDTH = 5

# Bytes of the (rows, N) block of distributions that _reduce_chain reduces
# in one pass: enough rows to spread the per-call cost of the reductions over
# many steps, few enough that the block and its temporaries stay in cache.
# E is block @ sites, whose bits depend on the block's height: changing this
# changes trajectory's E, T_est and S_gen bytes, so a writer that reblocks the
# series (streaming it to disk, say) must keep this height for E.
_BLOCK_BYTES = 256 * 1024

# Band floors of _chain_blocks: DBL_MIN for the series, the smallest subnormal
# for the exact chain.
_TINY = np.finfo(float).tiny
_EXACT = np.finfo(float).smallest_subnormal


def shannon_entropy(p: np.ndarray) -> float | np.ndarray:
    """Entropy -sum p log p in nats over the last axis (0 log 0 = 0, and no -0.0).

    A 1-D distribution gives a float; a stack of distributions gives one
    entropy per row, each bit-identical to the 1-D call on that row.

    For the linear walk from a pure localized start this equals the von
    Neumann entropy of the full quantum state: every occupied block stays a
    rank-one projector, so the position marginal carries all the mixedness.
    From any internal start sigma at one node, each block is p_n(m) W_m sigma
    W_m^dagger with W_m unitary, so S_vN(rho_n) = H(p_n) + S_vN(sigma): the
    two differ by a constant, and every change of entropy along the walk is
    the position marginal's.
    """
    s = 0.0 - _xlogx(np.asarray(p, dtype=float)).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p elementwise, with 0 log 0 = 0."""
    terms = np.log(p, out=np.zeros_like(p), where=p > 0)
    terms *= p
    return terms


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-step series of an exact walk simulation.

    Arrays are indexed by step 0..steps.  temperature_estimate holds the
    smoothed finite-difference dE/dS, with +-inf where the entropy is flat
    (divergence sentinel) and nan where both increments vanish.
    final_distribution is p_steps of the series' chain (see
    simulate_trajectory); distributions, when kept, are the exact chain's.

    Invariant residuals of the run: mass_drift is max_n |sum p_n - sum p_0|
    (sum p_0 is 1 up to the 1e-12 the start is checked to, so this is the
    drift the chain itself causes); min_entropy_production_step is the
    smallest S_gen(n+1) - S_gen(n), negative on a second-law violation (0.0
    for a zero-step run); final_l1_to_steady is ||p_steps - pi||_1 against
    steady_state(spec).

    `==` and `hash` go by identity: to compare two runs, compare their series
    with `np.array_equal`.
    """

    spec: LinearWalkSpec
    entropy: np.ndarray
    energy: np.ndarray
    temperature_estimate: np.ndarray
    entropy_generated: np.ndarray
    equilibrium_temperature: float
    final_distribution: np.ndarray
    mass_drift: float
    min_entropy_production_step: float
    final_l1_to_steady: float
    distributions: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return len(self.entropy) - 1


def _centred_difference(x: np.ndarray, w: int) -> np.ndarray:
    """x[min(i + w, n - 1)] - x[max(i - w, 0)] for each i, from x padded with its ends."""
    p = np.pad(x, w, mode="edge")
    return p[2 * w:] - p[:len(x)]


def _temperature_estimate(energy: np.ndarray, ent: np.ndarray, half_width: int) -> np.ndarray:
    d_e = _centred_difference(energy, half_width)
    d_s = _centred_difference(ent, half_width)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = d_e / d_s
    flat = np.abs(d_s) < _FLAT_ENTROPY_TOL
    out[flat] = np.where(np.abs(d_e[flat]) < _FLAT_ENTROPY_TOL,
                         math.nan, np.copysign(math.inf, d_e[flat]))
    return out


def _chain_blocks(p: np.ndarray, omega: float, steps: int, rows: int,
                  floor: float) -> Iterator[tuple[int, np.ndarray, list[tuple[int, int]]]]:
    """The chain p_0 = p, ..., p_steps as (start, block, bands), block holding
    p_start, p_start+1, ... (rows steps, fewer at the end) in a view of a reused
    ring buffer that the next block overwrites, and bands[k] the (lo, hi) of
    block[k]: the row is 0.0 outside lo..hi (p_0's band is the whole row).

    From p_1 on, a band [lo, hi] with edge entries >= floor is kept, with 0.0
    outside it.  Each step runs the stencil on [lo-1, hi+1] only, in place,
    then moves each edge inward past entries below floor, setting them to
    0.0: at _TINY this flushes subnormal tails; at _EXACT it passes exact
    zeros only, so from a start without -0.0 (as _start gives) every row is
    the two-argument markov_step loop's, bit for bit.
    """
    n = len(p)
    # Step k is written in place into slot k % slots of the buffer, from slot
    # (k-1) % slots (index slot - 1, which wraps at 0); with two slots at
    # least, a step never writes the row it reads.
    slots = min(max(rows, 2), steps + 1)
    buffer = np.zeros((slots, n))
    buffer[0] = p
    extent = [(0, n - 1)] + [(n, -1)] * (slots - 1)  # nonzero span of each slot
    band = np.flatnonzero(p >= floor)
    lo, hi = int(band[0]), int(band[-1])
    slot_rows = list(buffer)
    for start in range(0, steps + 1, rows):
        stop = min(start + rows, steps + 1)
        for k in range(max(start, 1), stop):
            slot = k % slots
            row = slot_rows[slot]
            a = lo - 1 if lo else 0
            b = hi + 1 if hi < n - 1 else hi
            old_lo, old_hi = extent[slot]
            if old_lo < a:
                row[old_lo:a] = 0.0
            if old_hi > b:
                row[b + 1:old_hi + 1] = 0.0
            markov_step(slot_rows[slot - 1], omega, row, a, b + 1)
            while row[a] < floor:
                row[a] = 0.0
                a += 1
            while row[b] < floor:
                row[b] = 0.0
                b -= 1
            lo, hi = a, b
            extent[slot] = (a, b)
        offset = start % slots
        yield start, buffer[offset:offset + stop - start], extent[offset:offset + stop - start]


def _exact_blocks(spec: LinearWalkSpec, steps: int, p0: np.ndarray | None,
                  rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, block) of _chain_blocks of the exact chain from p0 (default: node 0),
    checked at the call."""
    blocks = _chain_blocks(_start(spec, steps, p0), spec.omega, steps, rows, _EXACT)
    return ((start, block) for start, block, _ in blocks)


def iter_distributions(
    spec: LinearWalkSpec, steps: int, p0: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Yield the exact distributions p_0, ..., p_steps of the chain, one at a time.

    p0 defaults to the walker localized at node 0.  Each is a new copy of a row
    of _chain_blocks at its exact floor, one step per block: O(N) memory.
    """
    return (block[0].copy() for _, block in _exact_blocks(spec, steps, p0, 1))


def _generated_entropy(entropy: np.ndarray, energy: np.ndarray, t_eq: float) -> np.ndarray:
    """S_gen = S - E/T_eq: S bit for bit at infinite T_eq, as E >= 0 and S is never -0."""
    return entropy - energy / t_eq


class _Series(NamedTuple):
    """What _reduce_chain gives: each quantity over its range of steps (the
    mass None when not asked for), the chain's last row, and with keep all its rows."""

    entropy: np.ndarray
    energy: np.ndarray
    mass: np.ndarray | None
    final: np.ndarray
    distributions: np.ndarray | None


def _reduce_chain(spec: LinearWalkSpec, steps: int, p: np.ndarray | None = None,
                  span: range | None = None, mass: bool = False,
                  keep: bool = False) -> _Series:
    """Run the chain to p_steps and reduce S and E, and the mass when asked, on
    the steps of `span` (a range of step 1 within 0..steps; default all).

    p is a start as _start gives it (None: node 0, checked here).  The chain
    runs at floor DBL_MIN in blocks of _BLOCK_BYTES, or, with keep, once at
    its exact floor into one (steps+1) x N array of every p_n, which is then
    reduced in slices of the same height.  Blocks outside the span are not
    reduced.

    S takes p log max(p, 5e-324) over each block's band (the union of its
    rows' bands from _chain_blocks) into a reused (rows, N) scratch, zero
    outside it, summed over full rows: shannon_entropy's p log p where p > 0,
    -0.0 where p = 0, which moves a sum only in the sign of an exact zero
    that 0.0 - sum clears, so S is shannon_entropy(row) bit for bit.  E =
    epsilon * (block @ sites) is taken over the whole block, as its bits
    depend on the block's height, and the mass is block.sum(axis=-1).
    """
    n = spec.n_nodes
    p = _start(spec, steps, None) if p is None else p
    span = range(steps + 1) if span is None else span
    rows = max(1, _BLOCK_BYTES // (8 * n))
    if keep:
        # one block of steps + 1 rows is the exact chain's whole ring buffer
        _, dists, extents = next(_chain_blocks(p, spec.omega, steps, steps + 1, _EXACT))
        blocks = ((start, dists[start:start + rows], extents[start:start + rows])
                  for start in range(0, steps + 1, rows))
    else:
        dists = None
        blocks = _chain_blocks(p, spec.omega, steps, rows, _TINY)
    ent = np.empty(len(span))
    e = np.empty(len(span))
    m = np.empty(len(span)) if mass else None
    sites = np.arange(n, dtype=float)
    scratch = np.zeros((rows, n))
    s_lo, s_hi = n, 0                 # scratch is 0.0 outside columns s_lo..s_hi-1
    logs = np.empty(rows * n)         # p log max(p, _EXACT) of the band, contiguous
    for start, block, bands in blocks:
        a, b = max(span.start - start, 0), min(span.stop - start, len(block))
        if a >= b:
            continue
        out = slice(start + a - span.start, start + b - span.start)
        e[out] = (block @ sites)[a:b]
        reduced, bands = block[a:b], bands[a:b]
        if mass:
            m[out] = reduced.sum(axis=-1)
        los, his = zip(*bands)
        lo, hi = min(los), max(his) + 1
        scratch[:, s_lo:lo] = 0.0     # empty unless the last band reached past this one
        scratch[:, hi:s_hi] = 0.0
        s_lo, s_hi = lo, hi
        terms = scratch[:len(reduced)]
        inside = reduced[:, lo:hi]
        log = logs[:inside.size].reshape(inside.shape)
        np.log(np.maximum(inside, _EXACT, out=log), out=log)
        log *= inside                 # in the contiguous buffer: a strided out is slower
        terms[:, lo:hi] = log
        ent[out] = 0.0 - terms.sum(axis=-1)
    e *= spec.epsilon
    return _Series(ent, e, m, block[-1].copy(), dists)


def simulate_trajectory(
    spec: LinearWalkSpec,
    steps: int,
    p0: np.ndarray | None = None,
    t_est_half_width: int = _T_EST_HALF_WIDTH,
    keep_distributions: bool = False,
) -> TrajectoryRecord:
    """Run the chain and record S(n), E(n), T_est(n), S_gen(n).

    p0 defaults to the walker localized at node 0, for which S(0) = E(0) = 0.
    S_gen(n) = S(n) - E(n)/T_eq; at omega = 1/2 (infinite T_eq) the heat term
    drops and S_gen = S.  The temperature estimate uses centered differences
    over +-t_est_half_width steps (a nonnegative integer, checked before the
    chain runs): the raw pointwise dE/dS is too noisy near the entropy maximum
    where dS crosses zero.

    The series (entropy, energy, mass) come from _reduce_chain over every
    step: the rows of _chain_blocks at floor DBL_MIN, a block of steps at a
    time, with p log max(p, 5e-324) of each block's band summed over full
    rows (-0.0 where p = 0 moves a sum only in the sign of a zero, which
    S = 0.0 - sum clears).  A flushed subnormal moves them only by terms far
    below the rounding of the sums: they equal the exact chain's bit for bit
    on every case the tests check, and final_distribution is within (N + 2
    steps) DBL_MIN of it in L1.  keep_distributions runs the chain once at its
    exact floor instead, into one (steps+1) x N array of every p_n, reduced
    in slices of the same block height, and final_distribution is its last row.
    """
    p = _start(spec, steps, p0)
    if (isinstance(t_est_half_width, bool) or not isinstance(t_est_half_width, (int, np.integer))
            or t_est_half_width < 0):
        raise ValueError("t_est_half_width must be a nonnegative integer, "
                         f"got {t_est_half_width!r}")
    t_eq = equilibrium.equilibrium_temperature(spec.omega, spec.epsilon)
    series = _reduce_chain(spec, steps, p, mass=True, keep=keep_distributions)
    ent, energy, mass, p = series.entropy, series.energy, series.mass, series.final
    s_gen = _generated_entropy(ent, energy, t_eq)
    return TrajectoryRecord(
        spec=spec,
        entropy=ent,
        energy=energy,
        temperature_estimate=_temperature_estimate(energy, ent, t_est_half_width),
        entropy_generated=s_gen,
        equilibrium_temperature=t_eq,
        final_distribution=p,
        mass_drift=float(np.abs(mass - mass[0]).max()),
        min_entropy_production_step=float(np.diff(s_gen).min()) if steps else 0.0,
        final_l1_to_steady=float(np.abs(p - steady_state(spec)).sum()),
        distributions=series.distributions,
    )


def entropy_production(trajectory: TrajectoryRecord, t_eq: float | None = None) -> np.ndarray:
    """Generated entropy S_gen(t) = S(t) - E(t)/T_eq along a trajectory.

    Nonnegative and nondecreasing for any start (the chain contracts
    relative entropy to the steady state).  When T_eq is infinite
    (omega = 1/2) the heat term vanishes and S_gen = S.
    """
    if t_eq is None:
        t_eq = trajectory.equilibrium_temperature
    return _generated_entropy(trajectory.entropy, trajectory.energy, t_eq)
