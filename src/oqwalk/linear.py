"""The linear open quantum walk: channel construction, classical chain, steady state.

The walk lives on nodes 0..N-1.  Each step the walker hops right with weight
omega (applying a unitary U_i) and left with weight lambda = 1 - omega
(applying the inverse unitary); the left boundary keeps weight lambda in a
self-loop and the right boundary keeps weight omega.  Position statistics
follow a classical birth-death chain whose stationary law is a truncated
geometric distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .equilibrium import _check_drift, _check_epsilon, _check_n_nodes, _check_omega, _log_odds

__all__ = [
    "LinearWalkSpec",
    "build_channel",
    "transition_matrix",
    "markov_evolve",
    "steady_state",
    "steady_states",
    "boundary_mass_bound",
    "internal_state_at_node",
]

if TYPE_CHECKING:
    from .channel import OqwChannel

_UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LinearWalkSpec:
    """Parameters of a linear walk: node count, hop weight, level spacing, unitaries.

    lambda = 1 - omega is implied, never stored.  `unitaries`, when given, is
    the tuple (U_0, ..., U_{N-2}) of internal rotations applied on right hops;
    by default all are the trivial 1x1 identity.  The spec copies them once,
    into one complex stack, and holds read-only views of it, so a later write
    to the caller's arrays leaves the spec as it was.  Specs compare by value,
    the unitaries element-wise, and equal specs hash equal.
    """

    n_nodes: int
    omega: float
    epsilon: float = 1.0
    unitaries: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        _check_n_nodes(self.n_nodes)
        _check_omega(self.omega)
        _check_epsilon(self.epsilon)
        if self.unitaries is not None:
            us = [np.asarray(u) for u in self.unitaries]
            if len(us) != self.n_nodes - 1:
                raise ValueError(f"expected {self.n_nodes - 1} unitaries, got {len(us)}")
            if us[0].ndim != 2:
                raise ValueError(f"unitary 0 has shape {us[0].shape}, expected a square matrix")
            d = us[0].shape[0]
            for k, u in enumerate(us):
                if u.shape != (d, d):
                    raise ValueError(f"unitary {k} has shape {u.shape}, expected {(d, d)}")
            # one copy, so that no later write to the caller's arrays reaches the
            # spec; the message names the first unitary that fails, and its first
            # failing check (finite, then unitary)
            stack = np.array(us, dtype=complex)
            with np.errstate(invalid="ignore", over="ignore"):  # a non-finite defect fails
                unitary = np.abs(stack.conj().swapaxes(1, 2) @ stack - np.eye(d)).max(axis=(1, 2))
            unitary = unitary <= _UNITARY_TOL
            if not unitary.all():
                k = int(np.argmin(unitary))
                raise ValueError(f"operator {k} is not unitary" if np.isfinite(stack[k]).all()
                                 else f"unitary {k} has non-finite entries")
            stack.setflags(write=False)
            object.__setattr__(self, "unitaries", tuple(stack))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearWalkSpec):
            return NotImplemented
        if (self.n_nodes, self.omega, self.epsilon) != (other.n_nodes, other.omega, other.epsilon):
            return False
        if self.unitaries is None or other.unitaries is None:
            return self.unitaries is other.unitaries
        return all(map(np.array_equal, self.unitaries, other.unitaries))

    def __hash__(self) -> int:
        # the unitaries are left out: equal arrays may differ in bytes (0.0 and -0.0)
        return hash((self.n_nodes, self.omega, self.epsilon, self.internal_dim))

    @property
    def lam(self) -> float:
        return 1.0 - self.omega

    @property
    def internal_dim(self) -> int:
        return 1 if self.unitaries is None else self.unitaries[0].shape[0]

    def unitary(self, i: int) -> np.ndarray:
        """U_i, defaulting to the identity when no unitaries were supplied."""
        if self.unitaries is None:
            return np.eye(1, dtype=complex)
        return self.unitaries[i]


def build_channel(spec: LinearWalkSpec) -> OqwChannel:
    """Kraus family of the linear walk.

    Transitions: sqrt(lambda) I self-loop at node 0, sqrt(omega) U_i right
    hops, sqrt(lambda) U_{i-1}^dagger left hops, sqrt(omega) I self-loop at
    node N-1; everything else is the zero operator.  The engine module is
    imported here, on the first call, so that the classical chain loads
    without it.
    """
    from .channel import OqwChannel

    n, d = spec.n_nodes, spec.internal_dim
    sw = math.sqrt(spec.omega)
    sl = math.sqrt(spec.lam)
    eye = np.eye(d, dtype=complex)
    us = np.broadcast_to(eye, (n - 1, d, d)) if spec.unitaries is None else np.array(spec.unitaries)
    # edge order (0, 0), (N-1, N-1), then (i, i+1) and (i+1, i) for each i:
    # a node's incoming edges take their slots in the channel's per-node layout
    # in this order
    hops = np.stack([sw * us, sl * us.conj().swapaxes(1, 2)], axis=1).reshape(-1, d, d)
    i = np.arange(n - 1)
    src = np.concatenate([[0, n - 1], np.stack([i, i + 1], axis=1).ravel()])
    dst = np.concatenate([[0, n - 1], np.stack([i + 1, i], axis=1).ravel()])
    return OqwChannel._from_edges(n, src, dst, np.concatenate([[sl * eye, sw * eye], hops]))


def transition_matrix(spec: LinearWalkSpec) -> np.ndarray:
    """Column-stochastic N x N matrix of the induced classical chain.

    Column j holds the outflow of node j; columns sum to 1 exactly.
    """
    n = spec.n_nodes
    om, lam = spec.omega, spec.lam
    t = np.zeros((n, n))
    t[0, 0] = lam
    t[n - 1, n - 1] = om
    for i in range(n - 1):
        t[i + 1, i] = om
        t[i, i + 1] = lam
    return t


def _check_distribution(p: np.ndarray, n: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"distribution has shape {p.shape}, expected ({n},)")
    if not np.isfinite(p).all():  # NaN passes both checks below
        raise ValueError("distribution has non-finite entries")
    if p.min() < 0.0:
        raise ValueError("distribution has negative entries")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p


def markov_step(
    p: np.ndarray, omega: float, out: np.ndarray | None = None, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """One matrix-free application of the three-band chain stencil, O(N).

    The two-argument form returns a new array.  With `out`, which must not
    share memory with `p`, the sites lo..hi-1 (default: all N) are written
    into out[lo:hi] and the rest of `out` is left as it is.  Every computed
    entry is bit-identical to the two-argument form's.
    """
    n = len(p)
    hi = n if hi is None else hi
    q = np.empty_like(p) if out is None else out
    lam = 1.0 - omega
    if lo == 0:
        q[0] = lam * (p[0] + p[1])
    a, b = max(lo, 1), min(hi, n - 1)
    if a < b:
        inner = q[a:b]
        np.multiply(p[a - 1:b - 1], omega, out=inner)
        inner += lam * p[a + 1:b + 1]
    if hi == n:
        q[-1] = omega * (p[-2] + p[-1])
    return q


def _check_steps(steps: int) -> None:
    # 2.0 and True too: steps count applications
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")


def _start(spec: LinearWalkSpec, steps: int, p0: np.ndarray | None) -> np.ndarray:
    """A new array holding the start of a steps-long run (p0=None: node 0), -0.0 as +0.0."""
    _check_steps(steps)
    if p0 is None:
        p0 = np.eye(1, spec.n_nodes)[0]
    return _check_distribution(p0, spec.n_nodes) + 0.0


def markov_evolve(spec: LinearWalkSpec, p0: np.ndarray, steps: int) -> np.ndarray:
    """steps applications of the chain to p0 (matrix-free, O(N) per step)."""
    p = _start(spec, steps, p0)
    for _ in range(steps):
        p = markov_step(p, spec.omega)
    return p


def steady_states(n_nodes: int, omegas) -> np.ndarray:
    """Stationary distributions pi_m = a^m (a-1)/(a^N - 1), a = omega/(1-omega).

    Row k of the (K, N) result is steady_state at omegas[k], bit for bit.  A
    log-sum-exp anchored at the dominant node keeps each row finite and
    normalized for N up to 1e6 and omega in [1e-6, 1-1e-6], where a^N
    overflows; omega = 1/2 gives the uniform row.  Holds 16 K N bytes at once.
    """
    _check_n_nodes(n_nodes)
    for omega in omegas:
        _check_omega(omega)
    return _steady_states(n_nodes, omegas)


def _steady_states(n: int, omegas) -> np.ndarray:
    # math.log and log1p per omega: np.log rounds a few percent of them differently
    omegas = np.asarray(omegas, dtype=float)
    log_a = np.fromiter(map(_log_odds, omegas.tolist()), float, len(omegas))[:, None]
    # Anchor the exponents at the dominant node so the heavy terms carry full
    # precision: for a > 1, m*log(a) alone reaches ~1e7 at N = 1e6, where
    # doubles only resolve ~2e-9 absolutely.
    anchor = np.where(log_a > 0, n - 1, 0)
    logs = (np.arange(n) - anchor) * log_a
    # logs[anchor] = 0 is the maximum, so log(sum exp(logs)) = log1p(sum of the
    # rest), which sums the same terms in the same order as a max-shifted logsumexp.
    rest = np.exp(logs)
    np.put_along_axis(rest, anchor, 0.0, axis=1)
    logs -= np.log1p(rest.sum(axis=1))[:, None]
    pis = np.exp(logs, out=logs)
    pis[omegas == 0.5] = 1.0 / n
    return pis


def steady_state(spec: LinearWalkSpec) -> np.ndarray:
    """Stationary distribution of the walk: the one-row case of steady_states."""
    return _steady_states(spec.n_nodes, [spec.omega])[0]


def boundary_mass_bound(omega: float) -> float:
    """N-independent lower bound eta = 2 - 1/omega for the last-node mass.

    For omega > 1/2 the stationary chain keeps pi_{N-1} >= eta > 0 no matter
    how large N grows.  Vacuous for omega <= 1/2, which raises.
    """
    _check_drift(omega)
    _check_omega(omega)
    return 2.0 - 1.0 / omega


def internal_state_at_node(spec: LinearWalkSpec, psi: np.ndarray, node: int) -> np.ndarray:
    """Predicted internal block at `node` for a pure start |psi> at node 0.

    The walk transports the internal state by the ordered product
    U_{node-1} ... U_0, so the (trace-normalized) block is that conjugation of
    |psi><psi|, independent of the step count.
    """
    if not 0 <= node < spec.n_nodes:
        raise ValueError(f"node {node} outside 0..{spec.n_nodes - 1}")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (spec.internal_dim,):
        raise ValueError(f"psi has dim {psi.shape[0]}, expected {spec.internal_dim}")
    if abs(np.vdot(psi, psi) - 1.0) > 1e-10:
        raise ValueError("psi is not normalized")
    prod = np.eye(spec.internal_dim, dtype=complex)
    for i in range(node):
        prod = spec.unitary(i) @ prod
    return prod @ np.outer(psi, psi.conj()) @ prod.conj().T
