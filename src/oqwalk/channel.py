"""Generic open-quantum-walk channel engine over block-diagonal states.

A walk on a graph is specified by one internal-space operator B[i, j] per
directed edge i -> j; absent edges mean the zero operator.  Trace preservation
requires, for every source node i, sum_j B[i,j]^dagger B[i,j] = identity.
Graph coherences vanish after one application, so states are block-diagonal.

A channel holds its E edges as arrays `src`, `dst` (E,) and `ops` (E, d, d);
a state holds `rho` (N, d, d), traces summing to one.  Both ways to build a
channel, from a {(i, j): B} mapping and from edge arrays (`build_channel`),
end in one array core that checks the edges and derives the stored arrays.
Checks run once, at construction (completeness; finiteness, Hermiticity,
positivity, trace), and `step` only reads the stored report, since a complete
CP map keeps a valid state valid.
All arrays are read-only, so both objects are immutable and `step` is pure.

`step` forms each edge's term B rho[src] B^dagger in one of two ways, chosen
at construction from d.  Up to `_SUPEROP_MAX_DIM`, the channel holds the
per-edge superoperator `superop` (E, d^2, d^2), K_e = B_e (x) conj(B_e) in
row-major vec, so vec(B X B^dagger) = K_e vec(X) is one batched matrix-vector
product.  Above it, K's d^4 cost per edge (time and memory) outgrows the d^3 of
two batched matmuls, which `step` uses instead.

Sums over edges (the completeness check and `step`) go through one scatter,
`_scatter`: a 1-D float `np.add.at` over the real and imaginary parts of the
(E, d, d) terms, in edge order, at a flat index built from the edges' nodes.
A channel builds the index of `dst` once, at construction.  Complex addition
is componentwise and `add.at` adds in index order, so each element receives
the same sums as a complex `np.add.at(out, nodes, terms)`, bit for bit.
A state's `blocks` mapping is indexed from `rho` the first time it is read,
so `step` does array work only.
"""

from __future__ import annotations

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

# Largest internal dimension d whose channels step through `superop`.  Timed in
# a 250-step loop of `step` and `position_marginal` (N=64, Haar unitaries, a
# 2-core Xeon with numpy 2.4), the superoperator path takes 0.27-0.94x the
# time of the two matmuls for d <= 5 and 1.2-2.8x for d = 6..8.  K takes
# 16 d^4 bytes per edge: 10 kB at d = 5.
_SUPEROP_MAX_DIM = 5


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
    a.flags.writeable = False
    return a


def _flat_index(nodes: np.ndarray, dim: int) -> np.ndarray:
    """Float offsets of the blocks at `nodes` in a flat (N, dim, dim) complex array."""
    width = 2 * dim * dim
    return (nodes[:, None] * width + np.arange(width)).ravel()


def _scatter(out: np.ndarray, index: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """out[nodes[e]] += terms[e] for each edge e in order, `index` = _flat_index(nodes).

    A 1-D float `np.add.at`, which numpy (>= 1.25) runs on its fast path.
    """
    np.add.at(out.reshape(-1).view(float), index, terms.reshape(-1).view(float))
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_channel: ok iff every node's defect is within tolerance.

    `defects` is a read-only mapping, since one report is shared by every caller.
    """

    ok: bool
    defects: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "defects", MappingProxyType(dict(self.defects)))

    def __reduce__(self):  # a mapping proxy does not pickle
        return ValidationReport, (self.ok, dict(self.defects))

    def offending_nodes(self) -> dict[int, float]:
        return {i: d for i, d in self.defects.items() if not d <= STRUCTURAL_TOL}  # NaN too


@dataclass(frozen=True, eq=False)
class OqwChannel:
    """Sparse family of per-edge operators {(source, target): B} on a graph.

    Absent pairs are zero operators; `transitions` is a read-only view of `ops`.
    `superop` holds each edge's B (x) conj(B), (E, d^2, d^2), when d is at most
    `_SUPEROP_MAX_DIM`, and is None above it.
    `==` and `hash` go by identity: to compare two channels' contents, compare
    `src`, `dst` and `ops` with `np.array_equal`.
    """

    node_count: int
    internal_dim: int
    transitions: Mapping[tuple[int, int], np.ndarray]
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)
    ops: np.ndarray = field(init=False, repr=False)
    superop: np.ndarray | None = field(init=False, repr=False)
    report: ValidationReport = field(init=False, repr=False)
    _dst_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        edges = []
        for key in self.transitions:
            try:
                i, j = map(operator.index, key)
            except (TypeError, ValueError):
                raise ChannelStructureError(
                    f"transition key {key!r} is not a pair of integer node indices") from None
            edges.append((i, j))
        self._set_edges(*np.array(edges, dtype=np.intp).reshape(-1, 2).T,
                        [_as_operator(op, self.internal_dim) for op in self.transitions.values()])

    @classmethod
    def _from_edges(cls, node_count: int, src: np.ndarray, dst: np.ndarray,
                    ops: np.ndarray) -> "OqwChannel":
        """The channel with operator ops[e] on edge src[e] -> dst[e], in this edge order."""
        channel = object.__new__(cls)
        object.__setattr__(channel, "node_count", node_count)
        object.__setattr__(channel, "internal_dim", ops.shape[-1])
        channel._set_edges(src, dst, ops)
        return channel

    def _set_edges(self, src: np.ndarray, dst: np.ndarray,
                   ops: np.ndarray | list[np.ndarray]) -> None:
        """Check the edges and derive every stored array; both constructors end here."""
        n, d = self.node_count, self.internal_dim
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
        acc = _scatter(np.zeros((n, d, d), dtype=complex), _flat_index(src, d),
                       _dagger(ops) @ ops)
        defects = np.abs(acc - np.eye(d)).max(axis=(1, 2))
        report = ValidationReport(ok=bool(defects.max() <= STRUCTURAL_TOL),
                                  defects=dict(enumerate(defects.tolist())))
        superop = None
        if d <= _SUPEROP_MAX_DIM:
            superop = _frozen(np.einsum("eij,elk->eiljk", ops, ops.conj())
                              .reshape(-1, d * d, d * d))
        transitions = MappingProxyType(dict(zip(zip(src.tolist(), dst.tolist()), ops)))
        for name, value in [("transitions", transitions), ("src", src), ("dst", dst),
                            ("ops", ops), ("superop", superop), ("report", report),
                            ("_dst_index", _frozen(_flat_index(dst, d)))]:
            object.__setattr__(self, name, value)

    def __reduce__(self):  # unpickle through the checks, which re-freeze the arrays
        return OqwChannel, (self.node_count, self.internal_dim, dict(self.transitions))


def validate_channel(channel: OqwChannel) -> ValidationReport:
    """Per-node completeness sum_j B[i,j]^dagger B[i,j] = identity, as checked at construction.

    The report holds the max-norm defect of every node; ok iff all are within
    STRUCTURAL_TOL.  Structural problems raised ChannelStructureError instead.
    """
    return channel.report


@dataclass(frozen=True, eq=False)
class BlockState:
    """Block-diagonal walk state: read-only `rho` (N, d, d); `blocks` maps nonzero nodes.

    `blocks` is a read-only mapping of views of `rho`, indexed on first read.
    `==` and `hash` go by identity: to compare two states, compare `rho` with
    `np.array_equal` (or `np.allclose`).
    """

    node_count: int
    blocks: Mapping[int, np.ndarray]
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("state needs at least one block")
        nodes = []
        for key in self.blocks:
            try:
                node = operator.index(key)
            except TypeError:
                raise ValueError(f"block node {key!r} is not an integer index") from None
            if not 0 <= node < self.node_count:
                raise ValueError(f"block node {key} outside 0..{self.node_count - 1}")
            nodes.append(node)
        dim = _as_operator(next(iter(self.blocks.values()))).shape[0]
        b = np.array([_as_operator(m, dim) for m in self.blocks.values()])
        if not np.isfinite(b).all():
            raise ValueError("state block has non-finite entries")
        if np.abs(b - _dagger(b)).max() > _HERMITIAN_TOL:
            raise ValueError("state block is not Hermitian")
        if np.linalg.eigvalsh(b).min() < -STRUCTURAL_TOL:
            raise ValueError("state block is not positive semidefinite")
        total = float(np.trace(b, axis1=1, axis2=2).real.sum())
        if abs(total - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"block traces sum to {total}, not 1")
        rho = np.zeros((self.node_count, dim, dim), dtype=complex)
        rho[nodes] = b
        self._store(rho)

    def _store(self, rho: np.ndarray) -> None:
        object.__setattr__(self, "node_count", rho.shape[0])
        object.__setattr__(self, "rho", _frozen(rho))
        vars(self).pop("blocks", None)  # indexed from rho on first read, in __getattr__

    def __getattr__(self, name: str):
        if name != "blocks" or "rho" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        occupied = np.flatnonzero(self.rho.any(axis=(1, 2)))
        blocks = MappingProxyType({int(i): self.rho[i] for i in occupied})
        object.__setattr__(self, "blocks", blocks)
        return blocks

    @classmethod
    def _trusted(cls, rho: np.ndarray) -> "BlockState":
        """Wrap an (N, d, d) array known to be a valid state, without re-checking."""
        state = object.__new__(cls)
        state._store(rho)
        return state

    def __reduce__(self):  # unpickle through the checks, which re-freeze the arrays
        return BlockState, (self.node_count, dict(self.blocks))

    @property
    def internal_dim(self) -> int:
        return self.rho.shape[1]

    @classmethod
    def localized(cls, node_count: int, node: int, psi: np.ndarray | None = None) -> "BlockState":
        """Pure state |psi><psi| sitting at a single node (psi defaults to dim 1)."""
        v = np.ones(1) if psi is None else np.asarray(psi, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():  # before np.outer, where inf * 0 would warn
            raise ValueError("state block has non-finite entries")
        return cls(node_count=node_count, blocks={node: np.outer(v, v.conj())})

    def total_trace(self) -> float:
        return float(np.trace(self.rho, axis1=1, axis2=2).real.sum())


def step(channel: OqwChannel, state: BlockState) -> BlockState:
    """One application of the walk: rho'[j] = sum_i B[i,j] rho[i] B[i,j]^dagger.

    The channel's `superop` gives the (E, d, d) terms as one batched
    matrix-vector product, or two batched matmuls when it has none; `_scatter`
    adds them into rho' in edge order at the flat `dst` index the channel built
    at construction, and the result is then made exactly Hermitian.  No
    mapping is built: the new state's `blocks` is indexed on first read.
    Refuses channels whose stored report failed, as they do not preserve trace.
    """
    report = channel.report
    if not report.ok:
        bad = report.offending_nodes()
        raise ChannelCompletenessError(
            f"channel fails completeness at nodes {sorted(bad)}: "
            + ", ".join(f"{i}: defect {d:.3e}" for i, d in sorted(bad.items()))
        )
    if state.rho.shape[:2] != (channel.node_count, channel.internal_dim):
        raise ValueError(f"state of shape {state.rho.shape} fed to channel on "
                         f"{channel.node_count} nodes with internal dim {channel.internal_dim}")
    blocks = state.rho[channel.src]
    if channel.superop is None:
        terms = channel.ops @ blocks @ _dagger(channel.ops)
    else:
        d = channel.internal_dim
        terms = channel.superop @ blocks.reshape(-1, d * d, 1)
    rho = _scatter(np.zeros_like(state.rho), channel._dst_index, terms)
    # Kill roundoff asymmetry so the PSD/Hermitian invariants stay exact.
    return BlockState._trusted(0.5 * (rho + _dagger(rho)))


def position_marginal(state: BlockState) -> np.ndarray:
    """Node-occupation probabilities p_i = trace(rho[i]); sums to 1."""
    return np.trace(state.rho, axis1=1, axis2=2).real
