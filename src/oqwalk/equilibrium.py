"""Closed-form equilibrium statistical mechanics of the thermalized linear walk.

The steady state of the linear walk is a truncated geometric distribution over
node indices, which is a Boltzmann distribution for equally spaced energy
levels E_m = m * epsilon (ground level set to zero).  All quantities below use
k_B = 1 and natural logarithms (entropy in nats).

Sign convention: the walk parameter omega and the inverse temperature beta are
tied by a = omega/(1-omega) = exp(-beta*epsilon).  Hence omega < 1/2 means
beta > 0 (ordinary positive temperature) while omega > 1/2 means beta < 0
(population inversion, negative temperature), and omega = 1/2 is the infinite
temperature point.

log Z, <E>, Var(E) and S have one implementation, the array kernel `_forms`:
the scalar evaluators are its 0-d case, `thermo_points` evaluates a sweep.  It
cancels the removable 0/0 poles at beta = 0 analytically (Bernoulli series
where N|beta*eps| < 2, overflow-free closed forms elsewhere) and maps beta < 0
onto |beta| by the mirror symmetry, so both signs are equally accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnsemblePoint",
    "ThermoPoint",
    "beta_from_omega",
    "omega_from_beta",
    "equilibrium_temperature",
    "log_partition_function",
    "partition_function",
    "mean_energy",
    "energy_variance",
    "energy_std_large_n",
    "entropy",
    "entropy_derivative",
    "entropy_derivative_large_n",
    "entropy_derivative_high_t",
    "free_energy",
    "free_energy_derivative",
    "free_energy_derivative_high_t",
    "heat_capacity",
    "heat_capacity_large_n",
    "heat_capacity_high_t",
    "energy_cost_domega",
    "energy_gap",
    "thermo_point",
    "thermo_points",
]

# c_j = B_2j/(2j)!, j = 1..18, and the ascending coefficients in u = z^2 of the
# pole-free remainders, whose 18 terms reach rounding for |z| < 2:
#   l(z) = log(2 sinh(z/2)/z)               = sum_j c_j z^2j/(2j),
#   h(z) = 1/(e^z - 1) - 1/z + 1/2         = z * sum_j c_j z^(2j-2),
#   g(z) = 1/(4 sinh^2(z/2)) - 1/z^2 + 1/12 = -sum_{j>=2} (2j-1) c_j z^(2j-2).
_C = np.array([
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
])
_J = np.arange(1, 19)
_COEF = np.stack([np.r_[0.0, _C / (2 * _J)], np.r_[_C, 0.0],
                  np.r_[0.0, -(2 * _J[1:] - 1) * _C[1:], 0.0]], axis=1)

# beta/omega consistency required of an EnsemblePoint.
_CONSISTENCY_TOL = 1e-12


def _check_n_nodes(n_nodes: int) -> None:
    if not isinstance(n_nodes, (int, np.integer)):  # 12.0 too: N counts nodes
        raise ValueError(f"n_nodes must be an integer, got {n_nodes!r}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")


def _check_omega(omega: float) -> None:
    if not (0.0 < omega < 1.0):
        raise ValueError(f"omega must lie strictly inside (0, 1), got {omega}")


def _check_drift(omega: float) -> None:
    """The window and approximation formulas need drift toward node N-1."""
    if not omega > 0.5:
        raise ValueError(f"omega must exceed 1/2 (drift toward the far boundary), got {omega}; "
                         "for omega < 1/2 use the mirror map omega -> 1-omega")


def _check_epsilon(epsilon: float) -> None:
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if math.isinf(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")


def _check_beta(beta: float) -> None:
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")


def _log_odds(omega: float) -> float:
    """log a = log(omega/(1-omega)) = -beta*epsilon of one unchecked omega."""
    return math.log(omega) - math.log1p(-omega)


def beta_from_omega(omega: float, epsilon: float = 1.0) -> float:
    """Inverse temperature of the steady state at hop weight omega, refused unless finite."""
    _check_omega(omega)
    _check_epsilon(epsilon)
    beta = -_log_odds(omega) / epsilon
    _check_beta(beta)
    return beta


def omega_from_beta(beta: float, epsilon: float = 1.0) -> float:
    """Hop weight omega = 1/(1 + e^(beta*epsilon)); inverse of beta_from_omega."""
    _check_epsilon(epsilon)
    z = beta * epsilon
    if z >= 0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def equilibrium_temperature(omega: float, epsilon: float = 1.0) -> float:
    """Steady-state temperature -epsilon/log(omega/(1-omega)).

    Positive for omega < 1/2, negative for omega > 1/2 (population inversion).
    Returns math.inf at omega = 1/2, where the temperature diverges.
    """
    beta = beta_from_omega(omega, epsilon)
    return math.inf if beta == 0.0 else 1.0 / beta


@dataclass(frozen=True)
class EnsemblePoint:
    """Equilibrium parameter set (N, epsilon) with consistent beta and omega.

    Exactly one of beta/omega is authoritative at construction; the other is
    derived through a = omega/(1-omega) = exp(-beta*epsilon) and the pair is
    checked for consistency.
    """

    n_nodes: int
    epsilon: float
    beta: float
    omega: float

    def __post_init__(self) -> None:
        _check_n_nodes(self.n_nodes)
        _check_epsilon(self.epsilon)
        _check_beta(self.beta)
        _check_omega(self.omega)
        drift = abs(self.omega - omega_from_beta(self.beta, self.epsilon))
        if drift > _CONSISTENCY_TOL:
            raise ValueError(
                f"inconsistent (beta, omega) pair: omega={self.omega}, "
                f"omega(beta)={omega_from_beta(self.beta, self.epsilon)}"
            )

    @classmethod
    def from_omega(cls, n_nodes: int, omega: float, epsilon: float = 1.0) -> "EnsemblePoint":
        return cls(n_nodes, epsilon, beta_from_omega(omega, epsilon), omega)

    @classmethod
    def from_beta(cls, n_nodes: int, beta: float, epsilon: float = 1.0) -> "EnsemblePoint":
        # For |beta*epsilon| beyond ~37 the exact omega rounds to 0.0 or 1.0
        # in doubles; clamp to the nearest representable interior value (beta
        # stays authoritative, every formula uses it directly).
        omega = omega_from_beta(beta, epsilon)
        omega = min(max(omega, 5e-324), float(np.nextafter(1.0, 0.0)))
        return cls(n_nodes, epsilon, beta, omega)

    @property
    def x(self) -> float:
        """Dimensionless inverse temperature beta * epsilon."""
        return self.beta * self.epsilon


# |z| = |beta eps| below which e^z/(e^z - 1)^2 = (1 - z^2/12 + ...)/z^2 is 1/z^2 to the
# last bit, and above which z^2 e^-|z| is 0.0; the large-N forms take these limits.
_TINY_Z = 1e-8
_HUGE_Z = 1e3
# The smallest normal double.
_DBL_MIN = 2.2250738585072014e-308


def _exp_over_expm1_sq(z: float) -> float:
    # e^z/(e^z - 1)^2 = 1/(4 sinh^2(z/2)); even in z, no overflow.
    z = abs(z)
    if z > 700.0:
        return math.exp(-z)
    s = math.sinh(0.5 * z)
    return 0.25 / (s * s)


def _remainders(u: np.ndarray) -> np.ndarray:
    """l, h and g stacked: numpy's polyval(u, _COEF), step for step, without the
    import of numpy.polynomial, which loads five other polynomial families too."""
    c = _COEF.reshape(_COEF.shape + (1,) * u.ndim)
    acc = c[-1] + u * 0
    for c_j in c[-2::-1]:
        acc = c_j + acc * u
    return acc


def _forms(n: int, x):
    """log Z, <E>/eps, Var(E)/eps^2 and S at each x = beta*eps of an array.

    With s = |x|, where N s < 2 the 1/z poles cancel analytically (exact at s = 0):
      log Z = log N - (N-1)s/2 + l(Ns) - l(s),  <E> = (N-1)/2 + h(s) - N h(Ns),
      Var = (N^2-1)/12 + g(s) - N^2 g(Ns);  elsewhere the closed forms in e^(-s).
    S = log Z + s <E> is even in x; log Z and <E> are mirrored for x < 0.
    """
    s = np.abs(x)
    z = np.stack([s, n * s])
    with np.errstate(all="ignore"):  # each branch is evaluated on the other's points too
        l, h, g = _remainders(z * z)
        ez, em = np.exp(-z), -np.expm1(-z)
        log_em = np.where(z < math.log(2.0), np.log(em), np.log1p(-ez))
        q = ez / em
        series = n * s < 2.0
        logz = np.where(series, math.log(n) - (n - 1) * s / 2 + (l[1] - l[0]),
                        log_em[1] - log_em[0])
        e = np.where(series, (n - 1) / 2 + (h[0] * z[0] - n * (h[1] * z[1])), q[0] - n * q[1])
        var = np.where(series, (n * n - 1) / 12 + (g[0] - n * n * g[1]),
                       q[0] / em[0] - n * n * (q[1] / em[1]))
    neg = x < 0
    return (np.where(neg, logz + (n - 1) * s, logz), np.where(neg, (n - 1) - e, e), var,
            logz + s * e)


def log_partition_function(point: EnsemblePoint) -> float:
    """log of Z = (a^N - 1)/(a - 1) with a = exp(-beta*epsilon).

    Evaluated in the log domain so that it stays finite for any N up to 1e6
    and omega in [1e-6, 1 - 1e-6]; a^N itself overflows doubles long before.
    """
    return float(_forms(point.n_nodes, point.x)[0])


def partition_function(point: EnsemblePoint) -> float:
    """Z itself; exactly N at beta = 0, inf only where Z exceeds the largest double."""
    return thermo_point(point).Z


def mean_energy(point: EnsemblePoint) -> float:
    """<E> = epsilon/(e^x - 1) - N*epsilon/(e^(N x) - 1), x = beta*epsilon.

    Limits: (N-1)*epsilon/2 at beta = 0; 0 as beta -> +inf; (N-1)*epsilon as
    beta -> -inf.
    """
    return thermo_point(point).mean_E


def energy_variance(point: EnsemblePoint) -> float:
    """<dE^2> = eps^2 [e^x/(e^x-1)^2 - N^2 e^(Nx)/(e^(Nx)-1)^2]; (N^2-1)eps^2/12 at beta=0."""
    return thermo_point(point).var_E


def energy_std_large_n(point: EnsemblePoint) -> float:
    """Large-N energy standard deviation epsilon/|2 sinh(beta*epsilon/2)|.

    Diverges at beta = 0 (returned as math.inf).
    """
    x = point.x
    if x == 0.0:
        return math.inf
    return point.epsilon * math.sqrt(_exp_over_expm1_sq(x))


def entropy(point: EnsemblePoint) -> float:
    """Equilibrium entropy S = log Z + beta <E> (nats, k_B = 1).

    Equals the Shannon entropy of the steady-state distribution.  Maximum
    log N exactly at beta = 0; tends to 0 for beta -> +-inf (third law).
    """
    return thermo_point(point).S


def entropy_derivative(point: EnsemblePoint) -> float:
    """dS/dbeta = beta * d<E>/dbeta = -beta * Var(E); finite for any finite N."""
    return -point.beta * energy_variance(point)


def entropy_derivative_large_n(beta: float, epsilon: float = 1.0) -> float:
    """N >> 1 limit of dS/dbeta: -beta eps^2 e^(beta eps)/(e^(beta eps)-1)^2."""
    _check_epsilon(epsilon)
    _check_beta(beta)
    if beta == 0.0:
        raise ValueError("the large-N entropy derivative diverges at beta = 0")
    z = beta * epsilon
    if abs(z) < _TINY_Z:        # -1/beta to the last bit, where z may have underflowed
        return -1.0 / beta
    if math.isinf(z):           # the product overflowed; e^-|z| is 0.0
        return math.copysign(0.0, -z)
    return -epsilon * (z * _exp_over_expm1_sq(z))


def entropy_derivative_high_t(beta: float, epsilon: float = 1.0) -> float:
    """High-temperature asymptote of the large-N dS/dbeta: -1/beta - epsilon."""
    _check_epsilon(epsilon)
    _check_beta(beta)
    if beta == 0.0:
        raise ValueError("asymptote diverges at beta = 0")
    return -1.0 / beta - epsilon


def free_energy(point: EnsemblePoint) -> float:
    """Helmholtz free energy F = -log(Z)/beta.

    Diverges like -log(N)/beta as beta -> 0; at beta = 0 the distinguished
    value -inf (the beta -> 0+ limit) is returned rather than raising.
    """
    return thermo_point(point).F


def free_energy_derivative(point: EnsemblePoint) -> float:
    """dF/dbeta = log(Z)/beta^2 + <E>/beta; +inf at beta = 0."""
    if point.beta == 0.0:
        return math.inf
    b = point.beta
    return log_partition_function(point) / (b * b) + mean_energy(point) / b


def free_energy_derivative_high_t(beta: float, epsilon: float = 1.0) -> float:
    """Small positive beta*epsilon asymptote of the large-N dF/dbeta: (1 - log(beta eps))/beta^2.

    log(beta eps) is taken as log beta + log eps where beta * eps is not a
    finite normal double (it overflows, underflows or is subnormal).
    """
    _check_epsilon(epsilon)
    _check_beta(beta)
    if not beta > 0.0:          # epsilon > 0 is checked above
        raise ValueError("asymptote defined for beta * epsilon > 0")
    z = beta * epsilon
    log_z = math.log(z) if _DBL_MIN <= z < math.inf else math.log(beta) + math.log(epsilon)
    # beta * beta may underflow to 0.0: dividing twice overflows to inf instead
    return (1.0 - log_z) / beta / beta


def heat_capacity(point: EnsemblePoint) -> float:
    """C_V = beta^2 * Var(E); 0 at beta = 0 for finite N, 0 as beta -> inf."""
    return thermo_point(point).C_V


def heat_capacity_large_n(beta: float, epsilon: float = 1.0) -> float:
    """N >> 1 heat capacity (beta eps)^2 e^(beta eps)/(e^(beta eps)-1)^2; -> 1 at beta = 0."""
    _check_epsilon(epsilon)
    _check_beta(beta)
    z = beta * epsilon
    if abs(z) < _TINY_Z:        # 1 - z^2/12 rounds to 1.0
        return 1.0
    if abs(z) > _HUGE_Z:        # z^2 e^-|z| underflows to 0.0 from |z| ~ 745.2 on
        return 0.0
    return z * z * _exp_over_expm1_sq(z)


def heat_capacity_high_t(beta: float, epsilon: float = 1.0) -> float:
    """High-temperature, large-N heat capacity e^(beta eps) = (1-omega)/omega; inf past overflow."""
    _check_epsilon(epsilon)
    _check_beta(beta)
    try:
        return math.exp(beta * epsilon)
    except OverflowError:
        return math.inf


def energy_cost_domega(point: EnsemblePoint) -> float:
    """d<E>/domega: energy needed per unit change of the hop weight omega.

    Computed as Var(E)/(epsilon * omega * (1-omega)), which is algebraically
    identical to the direct derivative of <E> but stable at omega = 1/2 where
    the naive form is a difference of two diverging terms.  Always positive,
    so d<E> carries the sign of domega.  Large-N limit: epsilon/(1-2*omega)^2.
    Value at omega = 1/2: epsilon*(N^2-1)/3.
    """
    return energy_variance(point) / (point.epsilon * point.omega * (1.0 - point.omega))


def energy_gap(n_nodes: int, epsilon: float = 1.0) -> float:
    """Energy gap between the omega -> 0 and omega -> 1 steady states: (N-1)*epsilon."""
    _check_n_nodes(n_nodes)
    _check_epsilon(epsilon)
    return (n_nodes - 1) * epsilon


@dataclass(frozen=True, eq=False)
class ThermoPoint:
    """Equilibrium observables: floats at one point, arrays over a sweep.

    `==` and `hash` go by identity: to compare two points' values, compare
    each field (with `np.array_equal` for a sweep).
    """

    Z: float
    mean_E: float
    var_E: float
    S: float
    F: float
    C_V: float
    T: float


def thermo_points(n_nodes: int, beta, epsilon: float = 1.0) -> ThermoPoint:
    """All equilibrium observables at each inverse temperature of `beta`, as arrays.

    At beta = 0, Z = N exactly, T = inf and F = -inf (the beta -> 0+ limit).
    A non-finite beta is refused as _check_beta refuses it, first.
    """
    _check_n_nodes(n_nodes)
    _check_epsilon(epsilon)
    beta = np.asarray(beta, dtype=float)
    if not np.isfinite(beta).all():
        _check_beta(float(beta[~np.isfinite(beta)].flat[0]))
    with np.errstate(over="ignore"):  # refused below, not warned of
        x = beta * epsilon
    if not np.isfinite(x).all():
        raise ValueError("beta * epsilon must be finite")
    logz, e, var, s = _forms(n_nodes, x)
    zero = beta == 0.0
    # C_V = beta^2 Var(E) = x^2 Var(E)/eps^2: at tiny eps, Var(E) underflows
    # while beta^2 overflows
    with np.errstate(over="ignore", divide="ignore"):
        return ThermoPoint(Z=np.where(zero, float(n_nodes), np.exp(logz)), mean_E=epsilon * e,
                           var_E=epsilon * epsilon * var, S=s,
                           F=np.where(zero, -np.inf, -logz / beta), C_V=x * x * var,
                           T=np.where(zero, np.inf, 1.0 / beta))


def thermo_point(point: EnsemblePoint) -> ThermoPoint:
    """All equilibrium observables at one point, as floats: the 0-d thermo_points."""
    tp = thermo_points(point.n_nodes, point.beta, point.epsilon)
    return ThermoPoint(**{name: float(v) for name, v in vars(tp).items()})
