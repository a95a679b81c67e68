"""Generic open-quantum-walk channel engine over block-diagonal states.

A walk on a graph is specified by one internal-space operator B[i, j] per
directed edge i -> j; absent edges mean the zero operator.  Trace preservation
requires, for every source node i, sum_j B[i,j]^dagger B[i,j] = identity.
Graph coherences vanish after one application, so states are block-diagonal.

A channel holds its E edges as arrays `src`, `dst` (E,) and `ops` (E, d, d);
a state holds `rho` (N, d, d), traces summing to one.  Checks run once, at
construction (completeness; Hermiticity, positivity, trace), and `step` only
reads the stored report, since a complete CP map keeps a valid state valid.
All arrays are read-only, so both objects are immutable and `step` is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "STRUCTURAL_TOL",
    "STEP_TRACE_TOL",
    "ChannelStructureError",
    "ChannelCompletenessError",
    "OqwChannel",
    "BlockState",
    "ValidationReport",
    "validate_channel",
    "step",
    "position_marginal",
]

# Structural tolerances: completeness defect, PSD eigenvalue floor, state
# normalization.  Per-step trace drift is held an order tighter.
STRUCTURAL_TOL = 1e-10
STEP_TRACE_TOL = 1e-12
_HERMITIAN_TOL = 1e-12


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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_channel: ok iff every node's defect is within tolerance."""

    ok: bool
    defects: dict[int, float] = field(default_factory=dict)

    def offending_nodes(self) -> dict[int, float]:
        return {i: d for i, d in self.defects.items() if d > STRUCTURAL_TOL}


@dataclass(frozen=True)
class OqwChannel:
    """Sparse family of per-edge operators {(source, target): B} on a graph.

    Absent pairs are zero operators; `transitions` is a read-only view of `ops`.
    """

    node_count: int
    internal_dim: int
    transitions: Mapping[tuple[int, int], np.ndarray]
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)
    ops: np.ndarray = field(init=False, repr=False, compare=False)
    report: ValidationReport = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, d = self.node_count, self.internal_dim
        for name, value in [("node_count", n), ("internal_dim", d)]:
            if value < 1:
                raise ChannelStructureError(f"{name} must be >= 1, got {value}")
        edges = []
        for key in self.transitions:
            i, j = key
            if not (0 <= i < n and 0 <= j < n):
                raise ChannelStructureError(f"transition {key} outside node range")
            edges.append((int(i), int(j)))
        ops = [_as_operator(op, d) for op in self.transitions.values()]
        ops = _frozen(np.array(ops, dtype=complex).reshape(-1, d, d))
        src, dst = _frozen(np.array(edges, dtype=np.intp).reshape(-1, 2)).T
        acc = np.zeros((n, d, d), dtype=complex)
        np.add.at(acc, src, _dagger(ops) @ ops)
        defects = np.abs(acc - np.eye(d)).max(axis=(1, 2))
        report = ValidationReport(ok=bool(defects.max() <= STRUCTURAL_TOL),
                                  defects=dict(enumerate(defects.tolist())))
        for name, value in [("transitions", MappingProxyType(dict(zip(edges, ops)))),
                            ("src", src), ("dst", dst), ("ops", ops), ("report", report)]:
            object.__setattr__(self, name, value)

    def __reduce__(self):  # unpickle through the checks, which re-freeze the arrays
        return OqwChannel, (self.node_count, self.internal_dim, dict(self.transitions))


def validate_channel(channel: OqwChannel) -> ValidationReport:
    """Per-node completeness sum_j B[i,j]^dagger B[i,j] = identity, as checked at construction.

    The report holds the max-norm defect of every node; ok iff all are within
    STRUCTURAL_TOL.  Structural problems raised ChannelStructureError instead.
    """
    return channel.report


@dataclass(frozen=True)
class BlockState:
    """Block-diagonal walk state: read-only `rho` (N, d, d); `blocks` maps nonzero nodes."""

    node_count: int
    blocks: Mapping[int, np.ndarray]
    rho: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("state needs at least one block")
        for node in self.blocks:
            if not 0 <= node < self.node_count:
                raise ValueError(f"block node {node} outside 0..{self.node_count - 1}")
        dim = _as_operator(next(iter(self.blocks.values()))).shape[0]
        b = np.array([_as_operator(m, dim) for m in self.blocks.values()])
        if np.abs(b - _dagger(b)).max() > _HERMITIAN_TOL:
            raise ValueError("state block is not Hermitian")
        if np.linalg.eigvalsh(b).min() < -STRUCTURAL_TOL:
            raise ValueError("state block is not positive semidefinite")
        total = float(np.trace(b, axis1=1, axis2=2).real.sum())
        if abs(total - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"block traces sum to {total}, not 1")
        rho = np.zeros((self.node_count, dim, dim), dtype=complex)
        rho[[int(node) for node in self.blocks]] = b
        self._store(rho)

    def _store(self, rho: np.ndarray) -> None:
        object.__setattr__(self, "node_count", rho.shape[0])
        object.__setattr__(self, "rho", _frozen(rho))
        occupied = np.flatnonzero(rho.any(axis=(1, 2)))
        object.__setattr__(self, "blocks", MappingProxyType({int(i): rho[i] for i in occupied}))

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
        return cls(node_count=node_count, blocks={node: np.outer(v, v.conj())})

    def total_trace(self) -> float:
        return float(np.trace(self.rho, axis1=1, axis2=2).real.sum())


def step(channel: OqwChannel, state: BlockState) -> BlockState:
    """One application of the walk: rho'[j] = sum_i B[i,j] rho[i] B[i,j]^dagger.

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
    rho = np.zeros_like(state.rho)
    np.add.at(rho, channel.dst, channel.ops @ state.rho[channel.src] @ _dagger(channel.ops))
    # Kill roundoff asymmetry so the PSD/Hermitian invariants stay exact.
    return BlockState._trusted(0.5 * (rho + _dagger(rho)))


def position_marginal(state: BlockState) -> np.ndarray:
    """Node-occupation probabilities p_i = trace(rho[i]); sums to 1."""
    return np.trace(state.rho, axis1=1, axis2=2).real
