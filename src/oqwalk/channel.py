"""Generic open-quantum-walk channel engine over block-diagonal states.

A walk on a graph is specified by one internal-space operator B[i, j] per
directed edge i -> j; absent edges mean the zero operator.  Trace preservation
requires, for every source node i, sum_j B[i,j]^dagger B[i,j] = identity.
Graph coherences vanish after one application, so states are block-diagonal.

A channel holds its E edges as arrays `src`, `dst` (E,) and `ops` (E, d, d).
A state's N blocks are Hermitian, so it holds each as d^2 real coordinates:
the diagonal, then the real and then the imaginary parts of the strict upper
triangle in row-major order, one read-only (N, d^2) float array.  Its `rho`
(N, d, d) is built from them on first read, exactly Hermitian; a state built
from blocks keeps those blocks as its `rho`, bit for bit, and holds the
coordinates of their Hermitian part (X + X^dagger) / 2.  Both ways to build a
channel, from a {(i, j): B} mapping and from edge arrays (`build_channel`),
end in one array core that checks the edges and derives the stored arrays.
Checks run once, at construction (completeness; finiteness, Hermiticity,
positivity, trace), and `step` only reads the stored report, since a complete
CP map keeps a valid state valid.
All arrays are read-only, so both objects are immutable and `step` is pure.

`step` sums each node's incoming terms B X B^dagger inside one batched
product.  At construction a channel places every node's incoming edges side by
side, in edge order, and pads nodes of smaller in-degree with zero operators
up to the largest in-degree k: `_in_src` (N, k) holds the slots' sources.  Up
to `_SUPEROP_MAX_DIM` the operator of node j is [R_1 ... R_k] (d^2, k d^2),
with R the real matrix of X -> B X B^dagger on coordinates, and the node's new
coordinates are one real matrix-vector product with its k gathered ones; the
result is Hermitian by construction.  The gather is the `take` method on the
coordinates, reshaped once to the (N, k d^2, 1) operand of the product: at
small N a step takes microseconds, and the `np.take` function form costs ~1 us
more per call than the method.  Above it, R's d^4 cost per edge (time
and memory) outgrows the d^3 of two batched matmuls on the gathered blocks:
W_s = X_s B_s^dagger, then [B_1 ... B_k] @ [W_1; ...; W_k], of which the step
keeps the coordinates of the Hermitian part.  Padding costs N k slots, which
the linear walk (k = 2 at every node) does not pay.  The per-edge `superop`
is derived from `ops` on every read.  The completeness check stacks each
source node's outgoing operators into C_i the same way and forms every
C_i^dagger C_i in one batched product.
The derived fields are cached properties, built on first read: a channel's
`transitions`, its report's `defects`, and a state's `rho` and `blocks`, so
`step` does array work only.  `position_marginal` adds the d diagonal
coordinate columns one by one, in place, onto a fresh +0.0 + c_0, which is
numpy's own order for a sum over fewer than 8 terms (so up to d = 7 it is
`c[:, :d].sum(axis=1)`, bit for bit), without the set-up of a reduction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "STRUCTURAL_TOL",
    "ChannelStructureError",
    "ChannelCompletenessError",
    "OqwChannel",
    "BlockState",
    "ValidationReport",
    "validate_channel",
    "step",
    "position_marginal",
]

# Structural tolerance: completeness defect, PSD eigenvalue floor, state
# normalization.
STRUCTURAL_TOL = 1e-10
_HERMITIAN_TOL = 1e-12

# Largest internal dimension d whose channels step through coordinate operators.
# Timed in a 250-step loop of `step` and `position_marginal` (N=64, Haar
# unitaries, a 2-core Xeon with numpy 2.4), the coordinate path takes
# 0.14-0.74x the time of the two matmuls for d <= 7 and 1.3-1.4x at d = 8.
# Re-timed with the `take` method gather (coordinate vs matmul path, ms per
# 250 steps): d = 6 9.6 vs 27.0, d = 7 23.1 vs 33.5, d = 8 45.3 vs 34.1.
# R takes 8 d^4 bytes per edge: 19 kB at d = 7.
_SUPEROP_MAX_DIM = 7


class ChannelStructureError(ValueError):
    """Malformed channel: inconsistent shapes, bad node indices, non-square blocks."""


class ChannelCompletenessError(ValueError):
    """Channel fails the per-node completeness (trace preservation) condition."""


def _as_operator(m, dim: int | None = None) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ChannelStructureError(f"operator must be square, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ChannelStructureError(f"operator has dimension {a.shape[0]}, expected {dim}")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def _layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index maps between a block's d^2 coordinates and its 2 d^2 interleaved floats.

    The coordinates of the Hermitian part are (f[first] + sign f[second]) / 2
    with f the block's (re, im) floats; the floats are e[gather] with e the
    coordinates followed by the negated imaginary ones and a zero.
    """
    iu, ju = np.triu_indices(d, 1)
    p = len(iu)
    diag, up, low = np.arange(d) * (d + 1), iu * d + ju, ju * d + iu
    first = np.concatenate([2 * diag, 2 * up, 2 * up + 1])
    second = np.concatenate([2 * diag, 2 * low, 2 * low + 1])
    sign = np.concatenate([np.ones(d + p), -np.ones(p)])
    gather = np.empty(2 * d * d, dtype=np.intp)
    gather[2 * diag], gather[2 * diag + 1] = np.arange(d), d * d + p
    gather[2 * up] = gather[2 * low] = d + np.arange(p)
    gather[2 * up + 1], gather[2 * low + 1] = d + p + np.arange(p), d * d + np.arange(p)
    return tuple(_frozen(a) for a in (first, second, sign, gather))


def _coords(x: np.ndarray) -> np.ndarray:
    """The (..., d^2) coordinates of the Hermitian part (X + X^dagger) / 2 of (..., d, d) X.

    Exact, bit for bit, on an exactly Hermitian X.
    """
    first, second, sign, _ = _layout(x.shape[-1])
    f = np.ascontiguousarray(x).view(float).reshape(x.shape[:-2] + (-1,))
    return (f.take(first, axis=-1) + f.take(second, axis=-1) * sign) * 0.5


def _blocks(c: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (..., d, d) blocks of (..., d^2) coordinates."""
    d = math.isqrt(c.shape[-1])
    # 0 - im, where -im would turn +0 into -0: a zero block keeps the bits of
    # the fresh zeros a state built from blocks has, so pickling keeps them too
    e = np.concatenate([c, 0.0 - c[..., (d * d + d) // 2:], np.zeros(c.shape[:-1] + (1,))],
                       axis=-1)
    return e.take(_layout(d)[3], axis=-1).view(complex).reshape(c.shape[:-1] + (d, d))


def _coordinate_operator(b: np.ndarray) -> np.ndarray:
    """(..., d^2, d^2) real R with coords(B X B^dagger) = R coords(X) for Hermitian X.

    Output entry (i, l) of B X B^dagger takes B_ij conj(B_lj) from diagonal
    coordinate j, and from the pair j < k with X_jk = a + i b
    (B_ij conj(B_lk) + B_ik conj(B_lj)) a + i (B_ij conj(B_lk) - B_ik conj(B_lj)) b.
    """
    d = b.shape[-1]
    iu, ju = np.triu_indices(d, 1)
    diag = np.arange(d)
    bi = b[..., np.concatenate([diag, iu]), :]
    bl = b[..., np.concatenate([diag, ju]), :].conj()
    p, q = bi[..., iu] * bl[..., ju], bi[..., ju] * bl[..., iu]
    rows = np.concatenate([bi * bl, p + q, 1j * (p - q)], axis=-1)  # entries (i, i), (i < l)
    return np.concatenate([rows.real, rows[..., d:, :].imag], axis=-2)


def _by_node(nodes: np.ndarray, n: int, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's slot among the edges at its node, in edge order, and the
    (n, k, d, d) operators by node and slot, zero in the slots past a node's degree.
    """
    counts = np.bincount(nodes, minlength=n)
    order = np.argsort(nodes, kind="stable")
    slot = np.empty_like(nodes)
    slot[order] = np.arange(len(nodes)) - (np.cumsum(counts) - counts)[nodes[order]]
    grouped = np.zeros((n, counts.max(initial=0)) + ops.shape[1:], dtype=complex)
    grouped[nodes, slot] = ops
    return slot, grouped


@dataclass(frozen=True, init=False)
class ValidationReport:
    """Outcome of validate_channel: ok iff every node's defect is within tolerance.

    `defects` is a read-only mapping, since one report is shared by every caller.
    A channel's own report holds its node defects as an array and builds the
    mapping on first read, as a cached property.  `==` and `hash` go by value.
    """

    ok: bool
    defects: Mapping[int, float]

    @functools.cached_property
    def defects(self) -> Mapping[int, float]:
        return MappingProxyType(dict(enumerate(self._node_defects.tolist())))

    def __init__(self, ok: bool, defects: Mapping[int, float] = MappingProxyType({})) -> None:
        vars(self).update(ok=ok, defects=MappingProxyType(dict(defects)))

    @classmethod
    def _of_nodes(cls, defects: np.ndarray) -> "ValidationReport":
        """The report on node defects (N,), whose mapping is built on first read."""
        report = cls.__new__(cls)
        vars(report).update(ok=bool(defects.max() <= STRUCTURAL_TOL), _node_defects=defects)
        return report

    def __reduce__(self):  # a mapping proxy does not pickle
        return ValidationReport, (self.ok, dict(self.defects))

    def __hash__(self) -> int:  # by value, like ==
        return hash((self.ok, tuple(self.defects.items())))

    def offending_nodes(self) -> dict[int, float]:
        return {i: d for i, d in self.defects.items() if not d <= STRUCTURAL_TOL}  # NaN too


@dataclass(frozen=True, init=False, eq=False)
class OqwChannel:
    """Sparse family of per-edge operators {(source, target): B} on a graph.

    Absent pairs are zero operators; `transitions` is a read-only mapping of
    views of `ops`, a cached property built on first read.  `superop` is each
    edge's B (x) conj(B), (E, d^2, d^2), derived from `ops` on every read when
    d is at most `_SUPEROP_MAX_DIM`, and None above it.
    `==` and `hash` go by identity: to compare two channels' contents, compare
    `src`, `dst` and `ops` with `np.array_equal`.
    """

    node_count: int
    internal_dim: int
    transitions: Mapping[tuple[int, int], np.ndarray]
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)
    ops: np.ndarray = field(init=False, repr=False)
    report: ValidationReport = field(init=False, repr=False)
    # step's per-node layout (module docstring): the k slot sources (N, k); the
    # real coordinate operators (N, d^2, k d^2), or [B_1 ... B_k] (N, d, k d)
    # with the B_s^dagger (N, k, d, d) in _in_adj on the matmul path (None otherwise)
    _in_src: np.ndarray = field(init=False, repr=False)
    _in_op: np.ndarray = field(init=False, repr=False)
    _in_adj: np.ndarray | None = field(init=False, repr=False)

    @functools.cached_property
    def transitions(self) -> Mapping[tuple[int, int], np.ndarray]:
        return MappingProxyType(dict(zip(zip(self.src.tolist(), self.dst.tolist()), self.ops)))

    def __init__(self, node_count: int, internal_dim: int,
                 transitions: Mapping[tuple[int, int], np.ndarray]) -> None:
        edges = []
        for key in transitions:
            try:
                i, j = map(operator.index, key)
            except (TypeError, ValueError):
                raise ChannelStructureError(
                    f"transition key {key!r} is not a pair of integer node indices") from None
            edges.append((i, j))
        self._set_edges(node_count, internal_dim,
                        *np.array(edges, dtype=np.intp).reshape(-1, 2).T,
                        [_as_operator(op, internal_dim) for op in transitions.values()])

    @classmethod
    def _from_edges(cls, node_count: int, src: np.ndarray, dst: np.ndarray,
                    ops: np.ndarray) -> "OqwChannel":
        """The channel with operator ops[e] on edge src[e] -> dst[e], in this edge order."""
        channel = cls.__new__(cls)
        channel._set_edges(node_count, ops.shape[-1], src, dst, ops)
        return channel

    def _set_edges(self, n: int, d: int, src: np.ndarray, dst: np.ndarray,
                   ops: np.ndarray | list[np.ndarray]) -> None:
        """Check the edges and store every field but `transitions`; both constructors end here."""
        for name, value in [("node_count", n), ("internal_dim", d)]:
            if value < 1:
                raise ChannelStructureError(f"{name} must be >= 1, got {value}")
        outside = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
        if outside.size:
            e = outside[0]
            raise ChannelStructureError(
                f"transition {(int(src[e]), int(dst[e]))} outside node range")
        ops = _frozen(np.array(ops, dtype=complex).reshape(len(src), d, d))
        src, dst = _frozen(np.array(src, dtype=np.intp)), _frozen(np.array(dst, dtype=np.intp))
        out_ops = _by_node(src, n, ops)[1].reshape(n, -1, d)
        defects = np.abs(_dagger(out_ops) @ out_ops - np.eye(d)).max(axis=(1, 2))
        slot, in_ops = _by_node(dst, n, ops)
        k = in_ops.shape[1]
        in_src = np.zeros((n, k), dtype=np.intp)
        in_src[dst, slot] = src
        in_adj = None
        if d <= _SUPEROP_MAX_DIM:
            in_op = np.empty((n, d * d, k, d * d))
            for s in range(k):  # a slot at a time, which bounds the temporaries
                in_op[:, :, s] = _coordinate_operator(in_ops[:, s])
            in_op = in_op.reshape(n, d * d, k * d * d)
        else:
            in_op = in_ops.swapaxes(1, 2).reshape(n, d, k * d)
            in_adj = _frozen(np.ascontiguousarray(_dagger(in_ops)))
        vars(self).update(node_count=n, internal_dim=d, src=src, dst=dst, ops=ops,
                          report=ValidationReport._of_nodes(defects), _in_src=_frozen(in_src),
                          _in_op=_frozen(in_op), _in_adj=in_adj)

    @property
    def superop(self) -> np.ndarray | None:
        d = self.internal_dim
        if d > _SUPEROP_MAX_DIM:
            return None
        return _frozen(np.einsum("eij,elk->eiljk", self.ops, self.ops.conj())
                       .reshape(-1, d * d, d * d))

    def __reduce__(self):  # unpickle through the array core, whose checks re-freeze the arrays
        return OqwChannel._from_edges, (self.node_count, self.src, self.dst, self.ops)


def validate_channel(channel: OqwChannel) -> ValidationReport:
    """Per-node completeness sum_j B[i,j]^dagger B[i,j] = identity, as checked at construction.

    The report holds the max-norm defect of every node; ok iff all are within
    STRUCTURAL_TOL.  Structural problems raised ChannelStructureError instead.
    """
    return channel.report


@dataclass(frozen=True, init=False, eq=False)
class BlockState:
    """Block-diagonal walk state: read-only `rho` (N, d, d); `blocks` maps nonzero nodes.

    The state is held as the blocks' read-only (N, d^2) Hermitian coordinates
    (module docstring).  `rho` and `blocks` are cached properties: `rho` is
    built from the coordinates on first read, exactly Hermitian, unless the
    state was built from blocks, whose `rho` is those blocks; `blocks` is a
    read-only mapping of views of `rho`, indexed on first read.  `==` and
    `hash` go by identity: to compare two states, compare `rho` with
    `np.array_equal` (or `np.allclose`).
    """

    node_count: int
    blocks: Mapping[int, np.ndarray]

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return _frozen(_blocks(self._coords))

    rho: np.ndarray = field(init=False, repr=False, default=rho)
    _coords: np.ndarray = field(init=False, repr=False)

    @functools.cached_property
    def blocks(self) -> Mapping[int, np.ndarray]:
        occupied = np.flatnonzero(self.rho.any(axis=(1, 2)))
        return MappingProxyType({int(i): self.rho[i] for i in occupied})

    def __init__(self, node_count: int, blocks: Mapping[int, np.ndarray]) -> None:
        if not blocks:
            raise ValueError("state needs at least one block")
        nodes = []
        for key in blocks:
            try:
                node = operator.index(key)
            except TypeError:
                raise ValueError(f"block node {key!r} is not an integer index") from None
            if not 0 <= node < node_count:
                raise ValueError(f"block node {key} outside 0..{node_count - 1}")
            nodes.append(node)
        dim = _as_operator(next(iter(blocks.values()))).shape[0]
        rho = np.zeros((node_count, dim, dim), dtype=complex)
        rho[nodes] = [_as_operator(m, dim) for m in blocks.values()]
        self._set_rho(rho)

    @classmethod
    def _from_rho(cls, rho: np.ndarray) -> "BlockState":
        """The state of (N, d, d) blocks rho, checked as the mapping constructor checks them."""
        state = cls.__new__(cls)
        state._set_rho(np.asarray(rho, dtype=complex))
        return state

    def _set_rho(self, rho: np.ndarray) -> None:
        """Check rho's blocks, all at once, and store rho with its coordinates.

        Both constructors end here.  Zero blocks pass every check, so only the
        nonzero ones are checked.
        """
        b = rho[rho.any(axis=(1, 2))]
        if not np.isfinite(b).all():
            raise ValueError("state block has non-finite entries")
        if np.abs(b - _dagger(b)).max(initial=0.0) > _HERMITIAN_TOL:
            raise ValueError("state block is not Hermitian")
        if np.linalg.eigvalsh(b).min(initial=0.0) < -STRUCTURAL_TOL:
            raise ValueError("state block is not positive semidefinite")
        total = float(np.trace(b, axis1=1, axis2=2).real.sum())
        if abs(total - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"block traces sum to {total}, not 1")
        vars(self).update(node_count=len(rho), rho=_frozen(rho), _coords=_frozen(_coords(rho)))

    @classmethod
    def _trusted(cls, coords: np.ndarray) -> "BlockState":
        """Wrap (N, d^2) coordinates known to be a valid state, without re-checking.

        Every `step` ends here, so this sets the dict and the read-only flag
        directly rather than through `vars` and `_frozen`: ~0.1 us a step at
        N=64, d=2.
        """
        coords.setflags(write=False)
        state = cls.__new__(cls)
        state.__dict__.update(node_count=len(coords), _coords=coords)
        return state

    def __reduce__(self):  # unpickle rho through the checks, which re-freeze the arrays
        return BlockState._from_rho, (self.rho,)

    @property
    def internal_dim(self) -> int:
        return math.isqrt(self._coords.shape[1])

    @classmethod
    def localized(cls, node_count: int, node: int, psi: np.ndarray | None = None) -> "BlockState":
        """Pure state |psi><psi| sitting at a single node (psi defaults to dim 1)."""
        v = np.ones(1) if psi is None else np.asarray(psi, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():  # before np.outer, where inf * 0 would warn
            raise ValueError("state block has non-finite entries")
        return cls(node_count=node_count, blocks={node: np.outer(v, v.conj())})

    def total_trace(self) -> float:
        return float(position_marginal(self).sum())


def step(channel: OqwChannel, state: BlockState) -> BlockState:
    """One application of the walk: rho'[j] = sum_i B[i,j] rho[i] B[i,j]^dagger.

    Gathers the coordinates at every node's incoming slots once, with the
    `take` method, coords.take(_in_src, axis=0), reshapes them once to
    (N, k d^2, 1) and forms each node's new coordinates, its sum over edges
    included, in one real batched product through the per-node operator the
    channel built at construction (module docstring).  Above
    `_SUPEROP_MAX_DIM` the coordinates are expanded to blocks and gathered
    for the two matmuls, and the step keeps the coordinates of
    (Y + Y^dagger) / 2.
    Neither `rho` nor `blocks` is built: the new state derives them on first
    read.  Refuses channels whose stored report failed, as they do not
    preserve trace.
    """
    report = channel.report
    if not report.ok:
        bad = report.offending_nodes()
        raise ChannelCompletenessError(
            f"channel fails completeness at nodes {sorted(bad)}: "
            + ", ".join(f"{i}: defect {d:.3e}" for i, d in sorted(bad.items()))
        )
    n, d = channel.node_count, channel.internal_dim
    if state._coords.shape != (n, d * d):
        raise ValueError(f"state of shape {state.rho.shape} fed to channel on "
                         f"{n} nodes with internal dim {d}")
    if channel._in_adj is None:
        x = state._coords.take(channel._in_src, axis=0).reshape(n, -1, 1)
        coords = (channel._in_op @ x).reshape(n, -1)
    else:
        x = _blocks(state._coords).take(channel._in_src, axis=0)
        coords = _coords(channel._in_op @ (x @ channel._in_adj).reshape(n, -1, d))
    return BlockState._trusted(coords)


def position_marginal(state: BlockState) -> np.ndarray:
    """Node-occupation probabilities p_i = trace(rho[i]); sums to 1.

    A new, writeable (N,) array: the diagonal coordinate columns added one at
    a time, ((+0.0 + c_0) + c_1) + ... + c_{d-1}.  The leading +0.0 turns a
    -0.0 into +0.0, as numpy's sum does.  Up to d = 7 this is numpy's
    sequential order, so the result is `c[:, :d].sum(axis=1)` bit for bit;
    from d = 8 numpy sums in pairs, and the two differ within their rounding,
    gamma_{d-1} sum |c_i| each.
    """
    c = state._coords
    p = c[:, 0] + 0.0
    for j in range(1, math.isqrt(c.shape[1])):
        p += c[:, j]
    return p
