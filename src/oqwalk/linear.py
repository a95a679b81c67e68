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

import numpy as np
from scipy.special import logsumexp

from .channel import OqwChannel

__all__ = [
    "LinearWalkSpec",
    "build_channel",
    "transition_matrix",
    "markov_evolve",
    "steady_state",
    "boundary_mass_bound",
    "internal_state_at_node",
]

_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class LinearWalkSpec:
    """Parameters of a linear walk: node count, hop weight, level spacing, unitaries.

    lambda = 1 - omega is implied, never stored.  `unitaries`, when given, is
    the tuple (U_0, ..., U_{N-2}) of internal rotations applied on right hops;
    by default all are the trivial 1x1 identity.
    """

    n_nodes: int
    omega: float
    epsilon: float = 1.0
    unitaries: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not (0.0 < self.omega < 1.0):
            raise ValueError(f"omega must lie strictly inside (0, 1), got {self.omega}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.unitaries is not None:
            us = tuple(np.asarray(u, dtype=complex) for u in self.unitaries)
            if len(us) != self.n_nodes - 1:
                raise ValueError(
                    f"expected {self.n_nodes - 1} unitaries, got {len(us)}"
                )
            d = us[0].shape[0]
            for k, u in enumerate(us):
                if u.shape != (d, d):
                    raise ValueError(f"unitary {k} has shape {u.shape}, expected {(d, d)}")
                if np.abs(u.conj().T @ u - np.eye(d)).max() > _UNITARY_TOL:
                    raise ValueError(f"operator {k} is not unitary")
            object.__setattr__(self, "unitaries", us)

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
    node N-1; everything else is the zero operator.
    """
    n = spec.n_nodes
    d = spec.internal_dim
    sw = math.sqrt(spec.omega)
    sl = math.sqrt(spec.lam)
    eye = np.eye(d, dtype=complex)

    transitions: dict[tuple[int, int], np.ndarray] = {}
    transitions[(0, 0)] = sl * eye
    transitions[(n - 1, n - 1)] = sw * eye
    for i in range(n - 1):
        u = spec.unitary(i)
        transitions[(i, i + 1)] = sw * u
        transitions[(i + 1, i)] = sl * u.conj().T
    return OqwChannel(node_count=n, internal_dim=d, transitions=transitions)


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


def markov_evolve(spec: LinearWalkSpec, p0: np.ndarray, steps: int) -> np.ndarray:
    """steps applications of the chain to p0 (matrix-free, O(N) per step)."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    p = _check_distribution(p0, spec.n_nodes).copy()
    for _ in range(steps):
        p = markov_step(p, spec.omega)
    return p


def steady_state(spec: LinearWalkSpec) -> np.ndarray:
    """Stationary distribution pi_m = a^m (a-1)/(a^N - 1), a = omega/(1-omega).

    Evaluated in the log domain (logsumexp normalization) so it stays finite
    and normalized for N up to 1e6 and omega in [1e-6, 1-1e-6]; the naive a^N
    overflows doubles already at a = 2, N = 1100.  omega = 1/2 returns the
    uniform distribution (the a -> 1 limit).
    """
    n = spec.n_nodes
    if spec.omega == 0.5:
        return np.full(n, 1.0 / n)
    log_a = math.log(spec.omega) - math.log1p(-spec.omega)
    # Anchor the exponents at the dominant node so the heavy terms carry full
    # precision: for a > 1, m*log(a) alone reaches ~1e7 at N = 1e6, where
    # doubles only resolve ~2e-9 absolutely.
    anchor = n - 1 if log_a > 0 else 0
    logs = (np.arange(n) - anchor) * log_a
    return np.exp(logs - logsumexp(logs))


def boundary_mass_bound(omega: float) -> float:
    """N-independent lower bound eta = 2 - 1/omega for the last-node mass.

    For omega > 1/2 the stationary chain keeps pi_{N-1} >= eta > 0 no matter
    how large N grows.  Vacuous for omega <= 1/2, which raises.
    """
    if not 0.5 < omega < 1.0:
        raise ValueError(f"bound requires omega in (1/2, 1), got {omega}")
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
