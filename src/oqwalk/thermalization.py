"""Nonequilibrium analysis: thermalization window, entropy approximation, error metrics.

A walker released at node 0 with omega > 1/2 first spreads as a drifting
Gaussian (velocity v = 2*omega - 1, dispersion rate 1/2), then piles up at
the far boundary and deforms into the geometric steady state.  This module
locates the deformation window, evaluates the two-piece (Gaussian +
Boltzmann) entropy approximation, and produces the error metrics, the free
packet's temperature and the step-count estimates for dissipative
computation runs.  The exact trajectories themselves (simulate_trajectory,
TrajectoryRecord, iter_distributions, shannon_entropy, entropy_production)
are defined in the private module oqwalk._trajectory, which runs the chain
without loading the analytic forms.  The error metrics are taken over the
window's integer steps [ceil(t_start), floor(t_end)]: one private helper,
_window_steps, rounds the window for error_metrics and for the CLI's
`table`, and checks a trajectory's length against it for error_metrics.
Both take their report from _window_metrics, over the exact S on those
steps: error_metrics reads it from a trajectory, `table` reduces it on the
window's steps alone.  The approximation evaluators (and
entropy_gaussian_regime) are array-valued in t: floats for a scalar t,
arrays shaped like an array of times.  Their erfc is the C library's
math.erfc, applied elementwise.

All analytic forms assume rightward drift (omega > 1/2).  For omega < 1/2
mirror the node indices (omega -> 1-omega), which leaves every thermodynamic
quantity unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import equilibrium
from ._trajectory import (
    TrajectoryRecord,
    _xlogx,
    entropy_production,
    iter_distributions,
    shannon_entropy,
    simulate_trajectory,
)
from .equilibrium import EnsemblePoint
from .linear import LinearWalkSpec, _check_steps, steady_state
# an attribute that bench/spans.py wraps by name; the chain calls _trajectory's
from .linear import markov_step  # noqa: F401

__all__ = [
    "GaussianProfile",
    "ThermalizationWindow",
    "ApproxEntropyParams",
    "ApproxEntropyComponents",
    "TrajectoryRecord",
    "ErrorMetricsReport",
    "DqcEstimates",
    "gaussian_probability",
    "thermalization_window",
    "entropy_gaussian_regime",
    "approx_entropy_params",
    "tail_weight",
    "approx_probability",
    "approx_entropy",
    "approx_entropy_components",
    "iter_distributions",
    "simulate_trajectory",
    "shannon_entropy",
    "error_metrics",
    "noneq_temperature_analytic",
    "entropy_production",
    "dqc_step_estimates",
]


@dataclass(frozen=True)
class GaussianProfile:
    """Drift-diffusion profile of the pre-boundary regime.

    velocity = 2*omega - 1 nodes/step; the dispersion rate is fixed at 1/2,
    so the profile at time t has mean velocity*t and variance t.
    """

    velocity: float
    diffusion: float = 0.5

    def __post_init__(self) -> None:
        if not -1.0 < self.velocity < 1.0:
            raise ValueError(f"velocity must lie in (-1, 1), got {self.velocity}")

    @classmethod
    def for_omega(cls, omega: float) -> "GaussianProfile":
        return cls(velocity=2.0 * omega - 1.0)

    def mean(self, t: float) -> float:
        return self.velocity * t

    def std(self, t: float) -> float:
        return math.sqrt(2.0 * self.diffusion * t)


def _positive_times(t) -> np.ndarray:
    """t as a float array, refused unless every entry is > 0 (nan included)."""
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise ValueError(f"t must be positive, got {t[~(t > 0)].flat[0]}")
    return t


def gaussian_probability(profile: GaussianProfile, x, t: float):
    """Drifting Gaussian density exp(-(x - v t)^2 / (2 t)) / sqrt(2 pi t)."""
    _positive_times(t)
    var = 2.0 * profile.diffusion * t
    x = np.asarray(x, dtype=float)
    out = np.exp(-((x - profile.velocity * t) ** 2) / (2.0 * var)) / np.sqrt(2 * np.pi * var)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ThermalizationWindow:
    """Times (in steps) bracketing the Gaussian-to-Boltzmann deformation."""

    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if not (0 <= self.t_start < self.t_end):
            raise ValueError(f"need 0 <= t_start < t_end, got ({self.t_start}, {self.t_end})")

    @property
    def t_therm(self) -> float:
        return self.t_end - self.t_start


def thermalization_window(n_nodes: int, omega: float) -> ThermalizationWindow:
    """Window during which the drifting packet deforms at the boundary.

    t_start solves v t + 2 sqrt(t) = N (leading packet edge arrives),
    t_end solves v t - 2 sqrt(t) = N (trailing edge arrives), giving
    t_therm = t_end - t_start = 4 sqrt(1 + v N)/v^2.

    Requires 1/2 < omega < 1 (rightward drift); for omega < 1/2 apply the
    mirror map omega -> 1-omega first.  The drift-free point omega = 1/2 has
    no finite window and raises.
    """
    equilibrium._check_n_nodes(n_nodes)
    equilibrium._check_drift(omega)
    equilibrium._check_omega(omega)
    v = 2.0 * omega - 1.0
    root = math.sqrt(1.0 + v * n_nodes)
    return ThermalizationWindow(
        t_start=((root - 1.0) / v) ** 2,
        t_end=((root + 1.0) / v) ** 2,
    )


def _window_steps(window: ThermalizationWindow, steps: int | None = None) -> range:
    """The window's integer steps [ceil(t_start), floor(t_end)], as a lazy range.

    With `steps`, a run of that many steps must be nonnegative and reach the
    window's last step; each rule is refused with its message, in this order.
    The range is never empty: t_end - t_start = 4 sqrt(1 + v N)/v^2 > 4.
    """
    ts = range(math.ceil(window.t_start), math.floor(window.t_end) + 1)
    if steps is not None:
        _check_steps(steps)
        if steps < ts[-1]:
            raise ValueError(f"trajectory covers {steps} steps but the window ends at {ts[-1]}")
    return ts


def entropy_gaussian_regime(t):
    """Entropy (1/2) log(2 pi e t) of a Gaussian of variance t: the paper's free packet.

    The exact chain spreads with variance 4 omega lambda t on one parity class,
    so this exceeds its S(t) at t_start, N = 1000: by 0.17 nats at omega = 2/3, 0.88 at 0.9.

    Array-valued in t, like approx_entropy: a float for a scalar t.
    """
    s = 0.5 * np.log(2.0 * math.pi * math.e * _positive_times(t))
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class ApproxEntropyParams:
    """Split line and cached steady-state sums for the two-piece approximation.

    The lattice is divided at n_prime = N - k_upper * sigma_ss: the Gaussian
    piece lives at x <= n_prime, the Boltzmann piece on lattice sites
    x > n_prime (optionally clipped from below at mean - k_lower * sigma_ss).
    sigma_ss is the steady-state standard deviation (the large-N energy spread
    with epsilon = 1).
    """

    n_nodes: int
    omega: float
    sigma_ss: float
    n_prime: float
    tail_start: int
    tail_mass: float
    tail_entropy: float
    equilibrium_entropy: float

    def __post_init__(self) -> None:
        if not (0.0 < self.n_prime < self.n_nodes):
            raise ValueError(
                f"n_prime = {self.n_prime} outside (0, {self.n_nodes}); "
                "the cutoff only makes sense well away from omega = 1/2"
            )


def approx_entropy_params(
    n_nodes: int,
    omega: float,
    k_upper: float = 2.0,
    k_lower: float = math.inf,
) -> ApproxEntropyParams:
    """Build the split parameters; defaults reproduce n_prime = N - 2*sigma_ss.

    The paper's error tables (N = 100 and 500, omega = 2/3) correspond to
    k_upper=4.0, i.e. n_prime = N - 4*sigma_ss; this is inferred from the
    tables themselves.  The default stays k_upper=2.0.

    A split with no site in its tail (k_upper * sigma_ss <= 1: at the default
    k_upper, omega >= (2 + sqrt 2)/4 ~ 0.8536 at every N; or a negative k_lower
    that clips past the last node, k_lower = -inf included) is refused, since
    its empty Boltzmann piece would take the tail-sum S_a(t) to 0, not to
    S_eq.  k_lower = +inf means no lower clip; a NaN of either parameter and an
    infinite k_upper are refused.
    """
    if not math.isfinite(k_upper):
        raise ValueError(f"k_upper must be finite, got {k_upper}")
    if math.isnan(k_lower):
        raise ValueError(f"k_lower must be a number, got {k_lower}")
    equilibrium._check_drift(omega)
    point = EnsemblePoint.from_omega(n_nodes, omega, 1.0)
    sigma_ss = equilibrium.energy_std_large_n(point)
    n_prime = n_nodes - k_upper * sigma_ss
    tail_start = int(math.floor(n_prime)) + 1
    if k_lower < math.inf:
        floor_site = equilibrium.mean_energy(point) - k_lower * sigma_ss
        # k_lower = -inf puts the floor at +inf, past every node: first site N
        tail_start = max(tail_start, math.ceil(floor_site) if math.isfinite(floor_site) else n_nodes)
    if tail_start >= n_nodes:
        raise ValueError(f"the Boltzmann tail is empty: the split puts its first site at "
                         f"{tail_start}, past the last node {n_nodes - 1}; it needs k_upper * "
                         f"sigma_ss > 1 (k_upper = {k_upper:.17g}, sigma_ss = {sigma_ss:.17g}) "
                         f"and k_lower >= 0")
    pi = steady_state(LinearWalkSpec(n_nodes, omega))
    tail = pi[tail_start:]
    return ApproxEntropyParams(
        n_nodes=n_nodes,
        omega=omega,
        sigma_ss=sigma_ss,
        n_prime=n_prime,
        tail_start=tail_start,
        tail_mass=float(tail.sum()),
        tail_entropy=shannon_entropy(tail),
        equilibrium_entropy=equilibrium.entropy(point),
    )


def _check_same_walk(spec: LinearWalkSpec, other, what: str) -> None:
    """Refuse params or a trajectory (`other`, with n_nodes and omega) built for another walk."""
    if (other.n_nodes, other.omega) != (spec.n_nodes, spec.omega):
        raise ValueError(f"{what} built for (N, omega) = ({other.n_nodes}, {other.omega}), "
                         f"not the spec's ({spec.n_nodes}, {spec.omega})")


def tail_weight(params: ApproxEntropyParams, profile: GaussianProfile, t):
    """Gaussian mass above the split line: w(t) = erfc((n' - v t)/sqrt(2 t))/2.

    Monotone nondecreasing in t for positive drift; 0 as t -> 0+, 1 once the
    packet has fully crossed the line.  Array-valued in t, like approx_entropy.
    """
    return _components(params, profile, t, "tail-sum").weight


def approx_probability(
    spec: LinearWalkSpec,
    t: float,
    x,
    params: ApproxEntropyParams | None = None,
):
    """Two-piece probability: Gaussian density below n_prime, weighted steady tail above.

    For x <= n_prime this is the drifting Gaussian density; for x > n_prime it
    is w(t) * pi_m at the nearest lattice site m (zero beyond the lattice).
    The pieces have disjoint support; total mass is 1 - w(t)*(1 - tail_mass),
    i.e. only approximately normalized.
    """
    if params is None:
        params = approx_entropy_params(spec.n_nodes, spec.omega)
    _check_same_walk(spec, params, "params")
    profile = GaussianProfile.for_omega(spec.omega)
    w = tail_weight(params, profile, t)
    pi = steady_state(spec)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xs)
    below = xs <= params.n_prime
    out[below] = gaussian_probability(profile, xs[below], t)
    sites = np.rint(xs[~below]).astype(int)
    vals = np.zeros(sites.shape)
    ok = (sites >= params.tail_start) & (sites < spec.n_nodes)
    vals[ok] = w * pi[sites[ok]]
    out[~below] = vals
    return out if np.ndim(x) else float(out[0])


@dataclass(frozen=True, eq=False)
class ApproxEntropyComponents:
    """Pieces of the two-part entropy approximation: floats at one time, arrays over many.

    `==` and `hash` go by identity: to compare two results' values, compare
    each field (with `np.array_equal` over many times).
    """

    gaussian: float
    boltzmann: float
    weight: float

    @property
    def total(self) -> float:
        return self.gaussian + self.boltzmann


def _erfc(z: np.ndarray) -> np.ndarray:
    """erfc elementwise through the C library's math.erfc, within ~2 ulp deep into the tail."""
    # fromiter fills the float result directly; np.frompyfunc would hold an object array
    return np.fromiter(map(math.erfc, z.flat), float, z.size).reshape(z.shape)


def _components(params: ApproxEntropyParams, profile: GaussianProfile, t, boltzmann: str):
    """S_G, S_B and w at each time of t, for a Gaussian piece of variance 2 D t."""
    if boltzmann not in ("tail-sum", "weighted-equilibrium"):
        raise ValueError(f"unknown boltzmann convention {boltzmann!r}")
    t = _positive_times(t)
    var = 2.0 * profile.diffusion * t
    u = params.n_prime - profile.velocity * t
    z = u / np.sqrt(2.0 * var)
    # erfc(-z) = 1 + erf(z), kept complementary for tiny tails; exp(-inf) = 0 near t = 0
    with np.errstate(over="ignore"):
        s_g = 0.25 * (1.0 + np.log(2.0 * math.pi * var)) * _erfc(-z) \
            - u * np.exp(-u * u / (2.0 * var)) / (2.0 * np.sqrt(2.0 * math.pi * var))
    w = 0.5 * _erfc(z)
    s_b = (-_xlogx(w) * params.tail_mass + w * params.tail_entropy
           if boltzmann == "tail-sum" else w * params.equilibrium_entropy)
    if t.ndim == 0:
        s_g, s_b, w = float(s_g), float(s_b), float(w)
    return ApproxEntropyComponents(gaussian=s_g, boltzmann=s_b, weight=w)


def approx_entropy_components(spec: LinearWalkSpec, t, params: ApproxEntropyParams | None = None,
                              boltzmann: str = "tail-sum") -> ApproxEntropyComponents:
    """S_G, S_B and the tail weight w at time t, or at each time of an array (see approx_entropy)."""
    if params is None:
        params = approx_entropy_params(spec.n_nodes, spec.omega)
    _check_same_walk(spec, params, "params")
    return _components(params, GaussianProfile.for_omega(spec.omega), t, boltzmann)


def approx_entropy(spec: LinearWalkSpec, t, params: ApproxEntropyParams | None = None,
                   boltzmann: str = "tail-sum"):
    """Closed-form entropy S_a(t) = S_G(t) + S_B(t) of the two-piece profile.

    S_G is the exact differential entropy of the Gaussian piece truncated at
    n_prime.  S_B is the Boltzmann-piece contribution, with two conventions:

    - "tail-sum" (default): the exact discrete sum over lattice sites above
      the split, -sum (w pi_x) log(w pi_x) = -w log(w) * tail_mass
      + w * tail_entropy.  Reproducible and self-consistent with
      approx_probability; saturates at the tail entropy for t >> t_end.
    - "weighted-equilibrium": w(t) times the full closed-form equilibrium
      entropy; saturates at the exact steady-state entropy.

    For t well below t_start both reduce to (1/2) log(2 pi e t).  An array of
    times (every entry > 0) gives an array shaped like it.
    """
    return approx_entropy_components(spec, t, params=params, boltzmann=boltzmann).total


@dataclass(frozen=True)
class ErrorMetricsReport:
    """Window error metrics between the approximate and exact entropy curves."""

    delta_max: float
    delta_rel_max: float
    mean_rel: float
    delta_logn_max: float
    mean_logn: float
    t_start: float
    t_end: float
    n_nodes: int
    omega: float


def error_metrics(
    spec: LinearWalkSpec,
    trajectory: TrajectoryRecord,
    approx: Callable[[int], float] | None = None,
    params: ApproxEntropyParams | None = None,
    boltzmann: str = "tail-sum",
) -> ErrorMetricsReport:
    """Compare S_a(t) against the exact S(t) over the thermalization window.

    Evaluated at the window's integer steps t in [ceil(t_start), floor(t_end)]
    (_window_steps), which the trajectory must cover: a shorter one is refused
    as "trajectory covers S steps but the window ends at H".  `approx` may
    override the entropy approximation (any callable step -> value); by
    default approx_entropy with the given params/convention is used.
    delta = |S_a - S|, reported as max and mean, relative to S(t) and to the
    maximum possible entropy log N.  A trajectory or params built for another
    (N, omega) than the spec's is refused.
    """
    _check_same_walk(spec, trajectory.spec, "trajectory")
    window = thermalization_window(spec.n_nodes, spec.omega)
    ts = _window_steps(window, trajectory.steps)
    return _window_metrics(spec, window, ts, trajectory.entropy[ts.start:ts.stop],
                           approx, params, boltzmann)


def _window_metrics(spec: LinearWalkSpec, window: ThermalizationWindow, ts: range,
                    s_exact: np.ndarray, approx: Callable[[int], float] | None = None,
                    params: ApproxEntropyParams | None = None,
                    boltzmann: str = "tail-sum") -> ErrorMetricsReport:
    """error_metrics' report from the exact S on the window's steps ts (_window_steps)."""
    t = np.arange(ts.start, ts.stop)
    if approx is None:
        s_approx = approx_entropy(spec, t, params=params, boltzmann=boltzmann)
    else:
        s_approx = np.array([approx(int(k)) for k in t])
    delta = np.abs(s_approx - s_exact)
    rel = delta / s_exact
    log_n = math.log(spec.n_nodes)
    return ErrorMetricsReport(
        delta_max=float(delta.max()),
        delta_rel_max=float(rel.max()),
        mean_rel=float(rel.mean()),
        delta_logn_max=float(delta.max() / log_n),
        mean_logn=float(delta.mean() / log_n),
        t_start=window.t_start,
        t_end=window.t_end,
        n_nodes=spec.n_nodes,
        omega=spec.omega,
    )


def noneq_temperature_analytic(profile: GaussianProfile, epsilon: float, t: float) -> float:
    """Temperature dE/dS = 2 v epsilon t of the free drifting packet.

    Valid while the packet is clear of the boundary (t < t_start); beyond
    that use the trajectory's finite-difference estimate.
    """
    _positive_times(t)
    return 2.0 * profile.velocity * epsilon * t


@dataclass(frozen=True)
class DqcEstimates:
    """Step-count estimates for reading a result out of the steady state."""

    n_start: float
    n_steps: float
    n_end: float

    def __post_init__(self) -> None:
        if not self.n_start <= self.n_steps <= self.n_end:
            raise ValueError(
                f"expected n_start <= n_steps <= n_end, got "
                f"({self.n_start}, {self.n_steps}, {self.n_end})"
            )


def dqc_step_estimates(n_nodes: int, omega: float) -> DqcEstimates:
    """Bracketed run length for dissipative computation: N/(2 omega - 1) steps.

    n_steps is when the centre of the drifting packet reaches the last node;
    it always falls inside the thermalization window [n_start, n_end].  It is
    not when the readout becomes usable: the last-node occupation first comes
    within 1e-3 (relative) of its steady-state value after n_end, at step 475
    for N = 100, omega = 2/3, where n_steps = 300 and n_end = 423.5.
    """
    window = thermalization_window(n_nodes, omega)
    return DqcEstimates(
        n_start=window.t_start,
        n_steps=n_nodes / (2.0 * omega - 1.0),
        n_end=window.t_end,
    )
