"""Equilibrium statistical mechanics against brute-force steady-state sums."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqwalk import cli
from oqwalk import equilibrium as eq
from oqwalk.equilibrium import EnsemblePoint
from oqwalk.linear import LinearWalkSpec, steady_state
from oqwalk.thermalization import dqc_step_estimates, shannon_entropy, thermalization_window

OMEGA_GRID = [round(0.05 * k, 2) for k in range(1, 20) if k != 10]
N_GRID = [2, 3, 10, 100]


def brute_pi(n, omega):
    """Stationary distribution by direct geometric weights (small n only)."""
    a = omega / (1.0 - omega)
    w = a ** np.arange(n)
    return w / w.sum()


def brute_thermo(n, omega, epsilon=1.0):
    """Moment sums over the stationary distribution: the independent oracle."""
    pi = brute_pi(n, omega)
    a = omega / (1.0 - omega)
    z = float((a ** np.arange(n)).sum())
    levels = epsilon * np.arange(n)
    mean = float(pi @ levels)
    var = float(pi @ levels**2) - mean**2
    s = float(-(pi * np.log(pi)).sum())
    return z, mean, var, s


# ---------------------------------------------------------------- maps

def test_beta_omega_map_values():
    assert eq.beta_from_omega(0.5, 1.0) == 0.0
    assert eq.beta_from_omega(1 / 3, 1.0) == pytest.approx(math.log(2), abs=1e-15)
    assert eq.beta_from_omega(2 / 3, 1.0) == pytest.approx(-math.log(2), abs=1e-15)


@pytest.mark.parametrize("shape", [(), (1000,), (3, 7)])
@pytest.mark.parametrize("n", [2, 500])
def test_remainders_are_polyval_bit_for_bit(shape, n):
    from numpy.polynomial.polynomial import polyval     # the reference, imported here only
    seam = 2.0 / n                                      # N|beta| = 2, the series/closed-form seam
    rng = np.random.default_rng(15)
    for first in [0.0, seam, np.nextafter(seam, 0.0), np.nextafter(seam, 1.0), 1e-300, 40.0]:
        s = 10.0 ** rng.uniform(-8.0, 2.0, math.prod(shape))
        s[0] = first
        z = np.stack([s.reshape(shape), n * s.reshape(shape)])     # as _forms stacks it
        with np.errstate(all="ignore"):
            got, want = eq._remainders(z * z), polyval(z * z, eq._COEF)
        assert got.shape == want.shape == (3, 2) + shape
        assert got.tobytes() == want.tobytes()


def test_import_does_not_load_numpy_polynomial():
    code = "import sys, oqwalk.cli; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("omega", OMEGA_GRID + [0.5, 1e-6, 1 - 1e-6])
def test_beta_omega_roundtrip(omega):
    beta = eq.beta_from_omega(omega, 2.5)
    assert eq.omega_from_beta(beta, 2.5) == pytest.approx(omega, rel=1e-14)


def test_sign_convention():
    # omega < 1/2 <=> beta > 0 <=> positive temperature
    assert eq.beta_from_omega(0.3) > 0
    assert eq.beta_from_omega(0.7) < 0
    assert eq.equilibrium_temperature(0.3) > 0
    assert eq.equilibrium_temperature(0.7) < 0


@pytest.mark.parametrize("omega", [0.0, 1.0, -0.1, 1.1])
def test_omega_domain_errors(omega):
    with pytest.raises(ValueError):
        eq.beta_from_omega(omega)


@pytest.mark.parametrize("evaluator", [eq.beta_from_omega, eq.equilibrium_temperature])
def test_beta_out_of_the_double_range_is_refused(evaluator):
    # -log(omega/(1-omega))/epsilon overflows at a tiny epsilon unless omega = 1/2
    with pytest.raises(ValueError, match=r"^beta must be finite, got -inf$"):
        evaluator(0.7, 1e-320)
    with pytest.raises(ValueError, match=r"^beta must be finite, got inf$"):
        evaluator(0.3, 1e-320)
    assert evaluator(0.5, 1e-320) in (0.0, math.inf)


def test_equilibrium_temperature_values():
    assert eq.equilibrium_temperature(1 / 3, 1.0) == pytest.approx(1 / math.log(2), rel=1e-14)
    assert eq.equilibrium_temperature(2 / 3, 1.0) == pytest.approx(-1 / math.log(2), rel=1e-14)
    assert eq.equilibrium_temperature(2 / 3, 2.0) == pytest.approx(-2 / math.log(2), rel=1e-14)
    assert eq.equilibrium_temperature(0.5, 1.0) == math.inf


def test_ensemble_point_consistency():
    p = EnsemblePoint.from_omega(10, 0.3, 2.0)
    assert p.omega == 0.3
    q = EnsemblePoint.from_beta(10, p.beta, 2.0)
    assert q.omega == pytest.approx(0.3, rel=1e-14)
    with pytest.raises(ValueError):
        EnsemblePoint(n_nodes=10, epsilon=1.0, beta=1.0, omega=0.9)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_ensemble_point_rejects_non_finite_beta(beta):
    # nan slips past the beta/omega consistency check (every comparison is
    # False) and +-inf clamps omega to the nearest interior double
    with pytest.raises(ValueError, match="beta must be finite"):
        EnsemblePoint(10, 1.0, beta, 0.5)
    with pytest.raises(ValueError, match="beta must be finite"):
        EnsemblePoint.from_beta(10, beta)
    # the finite extremes stay valid
    assert EnsemblePoint.from_beta(5, math.copysign(800.0, beta)).beta == math.copysign(800.0, beta)


# ---------------------------------------------------------------- Z

def test_partition_function_values():
    assert eq.partition_function(EnsemblePoint.from_omega(3, 2 / 3)) == pytest.approx(7.0, rel=1e-12)
    assert eq.partition_function(EnsemblePoint.from_beta(50, 0.0)) == 50.0
    assert eq.partition_function(EnsemblePoint.from_omega(7, 1e-12)) == pytest.approx(1.0, rel=1e-9)


def test_log_partition_function_no_overflow():
    # naive a^N overflows at a = 2, N = 500; the log-domain value is finite
    lz = eq.log_partition_function(EnsemblePoint.from_omega(500, 2 / 3))
    assert math.isfinite(lz)
    assert lz == pytest.approx(500 * math.log(2) - math.log(2) + math.log(2 - 2**-499), rel=1e-12)
    big = eq.log_partition_function(EnsemblePoint.from_omega(10**6, 1 - 1e-6))
    assert math.isfinite(big)


# ---------------------------------------------------------------- <E>, Var

def test_mean_energy_values():
    assert eq.mean_energy(EnsemblePoint.from_omega(3, 2 / 3)) == pytest.approx(10 / 7, rel=1e-13)
    assert eq.mean_energy(EnsemblePoint.from_beta(100, 0.0)) == pytest.approx(49.5, abs=1e-12)
    # beta -> +inf freezes to the ground level, beta -> -inf inverts fully
    assert eq.mean_energy(EnsemblePoint.from_beta(5, 800.0, 1.0)) == pytest.approx(0.0, abs=1e-300)
    assert eq.mean_energy(EnsemblePoint.from_beta(5, -800.0, 1.0)) == pytest.approx(4.0, abs=1e-12)


def test_energy_variance_values():
    assert eq.energy_variance(EnsemblePoint.from_omega(3, 2 / 3)) == pytest.approx(26 / 49, rel=1e-13)
    assert eq.energy_variance(EnsemblePoint.from_beta(100, 0.0)) == pytest.approx(833.25, abs=1e-10)


def test_energy_std_large_n():
    p = EnsemblePoint.from_omega(200, 2 / 3)
    assert eq.energy_std_large_n(p) == pytest.approx(math.sqrt(2), rel=1e-14)
    # finite-N variance agrees once N >> 1
    assert math.sqrt(eq.energy_variance(p)) == pytest.approx(math.sqrt(2), rel=1e-6)
    assert eq.energy_std_large_n(EnsemblePoint.from_beta(100, 0.0)) == math.inf


# ---------------------------------------------------------------- S

def test_entropy_matches_shannon_oracle():
    _, _, _, s = brute_thermo(3, 2 / 3)
    assert eq.entropy(EnsemblePoint.from_omega(3, 2 / 3)) == pytest.approx(s, abs=1e-12)
    assert s == pytest.approx(0.9556998911125343, abs=1e-12)


def test_entropy_at_infinite_temperature_is_log_n():
    assert eq.entropy(EnsemblePoint.from_beta(500, 0.0)) == math.log(500)


def test_third_law():
    for beta in (50.0, -50.0):
        assert eq.entropy(EnsemblePoint.from_beta(100, beta, 1.0)) < 1e-18


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_third_law_monotone_decay(n, sign):
    betas = [5.0, 7.0, 10.0, 15.0, 20.0, 35.0, 50.0]
    values = [eq.entropy(EnsemblePoint.from_beta(n, sign * b)) for b in betas]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-18


def test_entropy_symmetry_under_omega_mirror():
    for omega in OMEGA_GRID:
        s1 = eq.entropy(EnsemblePoint.from_omega(100, omega))
        s2 = eq.entropy(EnsemblePoint.from_omega(100, 1.0 - omega))
        assert abs(s1 - s2) < 1e-12


def test_entropy_maximal_at_beta_zero():
    log_n = math.log(500)
    for beta in np.linspace(-2, 2, 50):
        s = eq.entropy(EnsemblePoint.from_beta(500, float(beta)))
        if beta == 0.0:
            assert s == log_n
        else:
            assert s < log_n


# ---------------------------------------------------------------- derivatives

def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("beta", [-2.0, -0.9, -0.31, -0.11, 0.07, 0.23, 0.5, 1.1, 1.7, 2.9])
def test_entropy_derivative_matches_finite_difference(beta):
    f = lambda b: eq.entropy(EnsemblePoint.from_beta(40, b, 1.0))
    fd = central_diff(f, beta, 1e-5)
    assert eq.entropy_derivative(EnsemblePoint.from_beta(40, beta, 1.0)) == pytest.approx(fd, rel=1e-6)


def test_entropy_derivative_finite_at_beta_zero_but_asymptote_diverges():
    # finite N: smooth through beta = 0; the N >> 1 small-beta form blows up
    assert eq.entropy_derivative(EnsemblePoint.from_beta(100, 0.0)) == 0.0
    assert abs(eq.entropy_derivative_high_t(1e-9)) > 1e8
    with pytest.raises(ValueError):
        eq.entropy_derivative_large_n(0.0)


@pytest.mark.parametrize("beta", [-1.4, -0.6, -0.2, 0.3, 0.9, 2.1])
def test_entropy_slope_is_beta_times_energy_slope(beta):
    # dS/dbeta = beta * d<E>/dbeta, checked against a finite difference of
    # <E>; fourth-order stencil so truncation stays below the 1e-9 target
    h = 1e-5
    f = lambda b: eq.mean_energy(EnsemblePoint.from_beta(80, b))
    fd_e = (8 * (f(beta + h) - f(beta - h)) - (f(beta + 2 * h) - f(beta - 2 * h))) / (12 * h)
    got = eq.entropy_derivative(EnsemblePoint.from_beta(80, beta))
    assert got == pytest.approx(beta * fd_e, rel=1e-9)


@pytest.mark.parametrize("beta", [0.02, 0.04, -0.02, -0.04])
def test_entropy_derivative_high_t_asymptote(beta):
    # -1/beta - epsilon approximates the exact slope to ~|beta*eps| relative,
    # so the 5% agreement only holds for |beta*eps| <= ~0.05 (see notes in
    # the asymptote docstring); 0.2 would be ~20% off.
    exact = eq.entropy_derivative(EnsemblePoint.from_beta(500, beta, 1.0))
    approx = eq.entropy_derivative_high_t(beta, 1.0)
    assert abs(approx - exact) / abs(exact) < 0.05


# ---------------------------------------------------------------- F

def test_free_energy_values():
    p = EnsemblePoint.from_omega(3, 2 / 3)
    assert eq.free_energy(p) == pytest.approx(math.log(7) / math.log(2), rel=1e-13)
    # identity F = E - T S with T = 1/beta
    t = 1.0 / p.beta
    assert eq.free_energy(p) == pytest.approx(
        eq.mean_energy(p) - t * eq.entropy(p), abs=1e-10)


def test_free_energy_mirror_point():
    # E - T S oracle at the mirrored hop weight
    p = EnsemblePoint.from_omega(3, 1 / 3)
    z, mean, _, s = brute_thermo(3, 1 / 3)
    t = 1.0 / p.beta
    expected = mean - t * s
    assert expected == pytest.approx(-0.8073549220576042, abs=1e-12)
    assert eq.free_energy(p) == pytest.approx(expected, abs=1e-10)


def test_free_energy_limits():
    assert eq.free_energy(EnsemblePoint.from_beta(5, 800.0)) == pytest.approx(0.0, abs=1e-300)
    assert eq.free_energy(EnsemblePoint.from_beta(5, 0.0)) == -math.inf
    assert eq.free_energy_derivative(EnsemblePoint.from_beta(5, 0.0)) == math.inf


@pytest.mark.parametrize("beta", [-1.9, -0.83, -0.4, -0.15, 0.09, 0.27, 0.61, 1.3, 2.2, 3.1])
def test_free_energy_derivative_matches_finite_difference(beta):
    f = lambda b: eq.free_energy(EnsemblePoint.from_beta(40, b, 1.0))
    fd = central_diff(f, beta, 1e-5)
    assert eq.free_energy_derivative(EnsemblePoint.from_beta(40, beta, 1.0)) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("beta", [0.02, 0.05, 0.1])
def test_free_energy_derivative_high_t_asymptote(beta):
    exact = eq.free_energy_derivative(EnsemblePoint.from_beta(500, beta, 1.0))
    approx = eq.free_energy_derivative_high_t(beta, 1.0)
    assert abs(approx - exact) / abs(exact) < 0.05


# ---------------------------------------------------------------- C_V

def test_heat_capacity_values():
    p = EnsemblePoint.from_omega(3, 2 / 3)
    assert eq.heat_capacity(p) == pytest.approx(math.log(2) ** 2 * 26 / 49, rel=1e-13)
    assert eq.heat_capacity(EnsemblePoint.from_beta(50, 800.0)) == pytest.approx(0.0, abs=1e-250)
    assert eq.heat_capacity(EnsemblePoint.from_beta(50, 0.0)) == 0.0


def test_heat_capacity_high_t_asymptote():
    # e^(beta eps) differs from the exact C_V by ~|beta eps| relative, so the
    # 1% window is |beta*eps| <= ~0.01; the worked point N=2000, beta*eps=0.01
    # sits right at the edge and passes.
    exact = eq.heat_capacity(EnsemblePoint.from_beta(2000, 0.01, 1.0))
    assert eq.heat_capacity_high_t(0.01) == pytest.approx(math.e ** 0.01, rel=1e-12)
    assert abs(eq.heat_capacity_high_t(0.01) - exact) / eq.heat_capacity_high_t(0.01) < 0.01


def test_heat_capacity_large_n_limit_at_beta_zero():
    assert eq.heat_capacity_large_n(0.0) == 1.0
    assert eq.heat_capacity_large_n(1e-8) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- d<E>/domega

def test_energy_cost_matches_finite_difference():
    def mean_at(omega):
        return float(brute_pi(3, omega) @ np.arange(3))

    fd = central_diff(mean_at, 2 / 3, 1e-6)
    got = eq.energy_cost_domega(EnsemblePoint.from_omega(3, 2 / 3))
    assert got == pytest.approx(fd, rel=1e-8)
    assert got == pytest.approx(2.3878, abs=5e-5)


@pytest.mark.parametrize("omega", [0.13, 0.27, 0.41, 0.52, 0.58, 0.66, 0.73, 0.81, 0.9, 0.97])
def test_energy_cost_finite_difference_grid(omega):
    f = lambda w: eq.mean_energy(EnsemblePoint.from_omega(25, w, 1.0))
    fd = central_diff(f, omega, 1e-5)
    got = eq.energy_cost_domega(EnsemblePoint.from_omega(25, omega, 1.0))
    assert got == pytest.approx(fd, rel=1e-6)
    assert got > 0  # d<E> always carries the sign of d(omega)


def test_energy_cost_large_n_form():
    # 1/(1 - 2 omega)^2 at omega = 2/3 is 9; finite-N value converges to it
    got = eq.energy_cost_domega(EnsemblePoint.from_omega(500, 2 / 3))
    assert got == pytest.approx(9.0, rel=1e-6)


def test_energy_cost_at_half_is_finite():
    got = eq.energy_cost_domega(EnsemblePoint.from_beta(100, 0.0))
    assert got == pytest.approx((100**2 - 1) / 3, rel=1e-10)


def test_energy_gap():
    assert eq.energy_gap(100, 1.0) == 99.0
    assert eq.energy_gap(7, 0.5) == 3.0


# ---------------------------------------------------------------- oracle grid

@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("omega", OMEGA_GRID)
def test_closed_forms_match_brute_force(n, omega):
    z, mean, var, s = brute_thermo(n, omega)
    p = EnsemblePoint.from_omega(n, omega)
    assert eq.partition_function(p) == pytest.approx(z, rel=1e-10)
    assert eq.mean_energy(p) == pytest.approx(mean, rel=1e-10)
    assert eq.energy_variance(p) == pytest.approx(var, rel=1e-10)
    assert eq.entropy(p) == pytest.approx(s, rel=1e-10)
    # identities against the brute-force moments
    assert eq.heat_capacity(p) == pytest.approx(p.beta**2 * var, rel=1e-9)
    assert eq.free_energy(p) == pytest.approx(mean - s / p.beta, rel=1e-9)


def test_thermo_point_bundle():
    p = EnsemblePoint.from_omega(30, 0.4)
    tp = eq.thermo_point(p)
    assert tp.var_E >= 0
    assert tp.S >= 0
    assert tp.C_V == pytest.approx(p.beta**2 * tp.var_E, abs=1e-10)
    assert tp.T == pytest.approx(1 / p.beta, rel=1e-14)


# ---------------------------------------------------------------- series branch

def test_series_branch_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def ref(n, beta):
        x = mp.mpf(beta)
        z = sum(mp.e ** (-m * x) for m in range(n))
        e = sum(m * mp.e ** (-m * x) for m in range(n)) / z
        var = sum(m * m * mp.e ** (-m * x) for m in range(n)) / z - e * e
        return float(mp.log(z)), float(e), float(var)

    # straddle the series/closed-form switch at |N beta| = 1e-2
    for n, beta in [(100, 2e-7), (100, 9.9e-5), (100, 1.1e-4), (1000, 9e-6), (1000, 2e-5)]:
        for b in (beta, -beta):
            lz, e, var = ref(n, b)
            p = EnsemblePoint.from_beta(n, b)
            assert eq.log_partition_function(p) == pytest.approx(lz, rel=1e-12)
            assert eq.mean_energy(p) == pytest.approx(e, rel=1e-11)
            assert eq.energy_variance(p) == pytest.approx(var, rel=1e-10)


# ---------------------------------------------------------------- one kernel

def test_bernoulli_table_is_exact():
    # c_j = B_2j/(2j)! from sum_{k<=m} a_k/(m+1-k)! = 0 with a_k = B_k/k!
    a = [Fraction(1)]
    for m in range(1, 37):
        a.append(-sum(a[k] / math.factorial(m + 1 - k) for k in range(m)))
    assert eq._C.tolist() == [float(a[2 * j]) for j in range(1, 19)]


def _mp_forms(mp, n, beta):
    """log Z, <E>, Var, S at a float beta (epsilon = 1) from 80-digit closed forms."""
    with mp.workdps(80):
        x = mp.mpf(beta)
        logz = mp.log(mp.expm1(-n * x) / mp.expm1(-x))
        e = 1 / mp.expm1(x) - n / mp.expm1(n * x)
        var = mp.exp(x) / mp.expm1(x) ** 2 - n * n * mp.exp(n * x) / mp.expm1(n * x) ** 2
        return [float(v) for v in (logz, e, var, logz + x * e)]


SEAM_NX = [float(v) for v in np.logspace(-6, math.log10(300), 60)] + [
    0.0099, 0.01, 0.0101, 1.999, 2.0, 2.001]


@pytest.mark.parametrize("n", [2, 3, 7, 50, 10**3, 10**4, 10**5, 10**6])
def test_closed_forms_across_the_seams_against_mpmath(n):
    # both sides of |N beta eps| = 0.01 (the old series switch) and of 2 (the
    # kernel's), on both signs of beta
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for nx in SEAM_NX:
        for beta in (nx / n, -nx / n):
            p = EnsemblePoint.from_beta(n, beta)
            got = [eq.log_partition_function(p), eq.mean_energy(p), eq.energy_variance(p),
                   eq.entropy(p)]
            for g, r in zip(got, _mp_forms(mp, n, beta)):
                worst = max(worst, abs(g - r) / abs(r))
    assert worst <= 1e-14


def test_partition_function_finite_up_to_the_largest_double():
    # log Z = 709.5 lies above the old 709.0 cut but below log(DBL_MAX) = 709.78
    mp = pytest.importorskip("mpmath")
    p = EnsemblePoint.from_omega(2000, 0.5876653604405353)
    z = eq.partition_function(p)
    assert math.isfinite(z) and z > 1e308
    with mp.workdps(40):
        x = mp.mpf(p.beta)
        ref = float(mp.expm1(-2000 * x) / mp.expm1(-x))
    assert z == pytest.approx(ref, rel=1e-12)  # log Z to ~1e-16 relative, times 709.5
    assert eq.partition_function(EnsemblePoint.from_omega(2000, 0.59)) == math.inf


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 5000), x=st.floats(0.0, 60.0), epsilon=st.sampled_from([1.0, 0.3, 2.5]))
@example(n=50, x=5.0, epsilon=1.0)
@example(n=3, x=37.07, epsilon=1.0)
@example(n=500, x=0.01 / 500, epsilon=1.0)
@example(n=500, x=2.0 / 500, epsilon=1.0)
def test_mirror_symmetry(n, x, epsilon):
    beta = x / epsilon
    p, q = EnsemblePoint.from_beta(n, beta, epsilon), EnsemblePoint.from_beta(n, -beta, epsilon)
    s_p, s_q = eq.entropy(p), eq.entropy(q)
    assert abs(s_p - s_q) <= 1e-15 * s_p
    gap = (n - 1) * epsilon
    assert abs(eq.mean_energy(p) + eq.mean_energy(q) - gap) <= 4 * math.ulp(gap)
    assert eq.energy_variance(p) == eq.energy_variance(q)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 3000), beta=st.floats(-40.0, 40.0))
@example(n=50, beta=5.0)
@example(n=50, beta=-5.0)
@example(n=1000, beta=1e-5)
def test_entropy_is_shannon_entropy_of_the_steady_state(n, beta):
    p = EnsemblePoint.from_beta(n, beta)
    s = eq.entropy(p)
    assert abs(s - shannon_entropy(steady_state(LinearWalkSpec(n, p.omega)))) <= 1e-12 * max(1.0, s)


ONE_PATH_N = [2, 7, 500, 10**6]


@pytest.mark.parametrize("n", ONE_PATH_N)
@pytest.mark.parametrize("epsilon", [1.0, 0.3])
def test_thermo_points_equal_the_scalar_evaluators(n, epsilon):
    seams = [0.0099, 0.01, 0.0101, 1.999, 2.0, 2.001]
    x = [0.0] + [sign * v / n for v in seams + [1e-7, 0.5, 40.0] for sign in (1, -1)]
    betas = np.array(x) / epsilon
    tp = eq.thermo_points(n, betas, epsilon)
    scalar = {"Z": eq.partition_function, "mean_E": eq.mean_energy, "var_E": eq.energy_variance,
              "S": eq.entropy, "F": eq.free_energy, "C_V": eq.heat_capacity}
    for i, beta in enumerate(betas.tolist()):
        p = EnsemblePoint.from_beta(n, beta, epsilon)
        point = eq.thermo_point(p)
        for name, f in scalar.items():
            value = getattr(tp, name)[i]
            assert value.tobytes() == np.float64(f(p)).tobytes(), (name, beta)
            assert value.tobytes() == np.float64(getattr(point, name)).tobytes(), (name, beta)
        assert getattr(tp, "T")[i] == point.T


@pytest.mark.parametrize("epsilon", [0.37, 1.0, 3.0])
def test_series_seam_sweep_equals_the_per_point_thermo_point(epsilon):
    # _forms evaluates the series on the points with N|beta eps| < 2 alone: a
    # sweep across that seam, at beta = 2/(N eps) and one ulp either side, on
    # both signs, gives every point's 0-d thermo_point bit for bit
    for n in [2, 3, 10, 100, 10**3, 10**4, 10**5, 10**6]:
        seam = 2.0 / (n * epsilon)
        near = [seam, np.nextafter(seam, 0.0), np.nextafter(seam, np.inf),
                1e-3 * seam, 0.5 * seam, 1.5 * seam, 40.0 / epsilon]
        betas = np.array([0.0] + [sign * b for b in near for sign in (1.0, -1.0)])
        tp = eq.thermo_points(n, betas, epsilon)
        for i, beta in enumerate(betas.tolist()):
            point = eq.thermo_point(EnsemblePoint.from_beta(n, beta, epsilon))
            for name, value in vars(point).items():
                assert getattr(tp, name)[i].tobytes() == np.float64(value).tobytes(), \
                    (n, beta, name)


@pytest.mark.parametrize("grid", ["0.0001:0.9999:0.00005", "0.00001:0.99999:0.00001", "random"])
def test_log_odds_of_a_sequence_has_each_omegas_bits(grid):
    # eq-sweep's grid, steady-state's 99,999-omega grid and random omegas; the
    # sign of the zero at omega = 1/2 counts
    if grid == "random":
        rng = np.random.default_rng(33)
        omegas = [*rng.random(10 ** 5).tolist(), 0.5, 5e-324, 1e-300, 1 - 2 ** -53]
    else:
        omegas = cli._parse_omegas(grid)
    assert 0.5 in omegas and all(0.0 < w < 1.0 for w in omegas)
    want = np.array([math.log(w) - math.log1p(-w) for w in omegas])
    assert np.array_equal(eq._log_odds(omegas).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("epsilon", [1e-300, 1e-155, 1e-3, 2.5, 1e3])
def test_heat_capacity_at_any_level_spacing_against_mpmath(epsilon):
    # C_V = x^2 Var with x = beta*eps: beta^2 (eps^2 Var) was nan (0 * inf)
    # at eps = 1e-300 and inf near 1e-155.  Bound: the closed forms' 1e-14
    # (test_closed_forms_across_the_seams_against_mpmath) plus the three
    # roundings of x, x^2 and the product, and of x against the exact beta*eps.
    mp = pytest.importorskip("mpmath")
    n = 30
    omegas = [0.1, 0.2, 0.3, 0.45, 0.55, 0.9]
    betas = -eq._log_odds(omegas) / epsilon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cv = eq.thermo_points(n, betas, epsilon).C_V
    for beta, got in zip(betas.tolist(), cv.tolist()):
        with mp.workdps(60):
            x = mp.mpf(beta) * mp.mpf(epsilon)
            terms = [mp.exp(-x * m) for m in range(n)]
            z = mp.fsum(terms)
            e = mp.fsum(m * t for m, t in enumerate(terms)) / z
            ref = x * x * (mp.fsum(m * m * t for m, t in enumerate(terms)) / z - e * e)
        assert abs(got - ref) <= 2e-14 * ref, (beta, got, ref)


@pytest.mark.parametrize("n", ONE_PATH_N)
def test_thermo_points_exact_at_infinite_temperature(n):
    tp = eq.thermo_points(n, [0.0, -0.0])
    assert tp.Z.tolist() == [float(n)] * 2
    assert tp.mean_E.tolist() == [(n - 1) / 2] * 2
    assert tp.var_E.tolist() == [(n * n - 1) / 12] * 2
    assert tp.S.tolist() == [math.log(n)] * 2
    assert tp.C_V.tolist() == [0.0] * 2
    assert tp.F.tolist() == [-math.inf] * 2 and tp.T.tolist() == [math.inf] * 2
    assert eq.log_partition_function(EnsemblePoint.from_beta(n, 0.0)) == math.log(n)


def test_thermo_points_shapes():
    assert isinstance(eq.thermo_point(EnsemblePoint.from_omega(10, 0.3)).S, float)
    assert eq.thermo_points(10, 0.4).S.shape == ()
    assert eq.thermo_points(10, np.zeros((2, 3))).var_E.shape == (2, 3)
    assert eq.thermo_points(10, []).Z.shape == (0,)


@pytest.mark.parametrize("n_nodes, beta, epsilon", [
    (1, [0.1], 1.0), (0, [0.1], 1.0), (10, [0.1], 0.0), (10, [0.1], -1.0),
    (10, [0.1], math.nan), (10, [0.1, math.nan], 1.0), (10, [math.inf], 1.0),
    (10, [-math.inf, 0.2], 1.0), (10, [0.1], math.inf)])
def test_thermo_points_rejects_bad_parameters(n_nodes, beta, epsilon):
    with pytest.raises(ValueError):
        eq.thermo_points(n_nodes, beta, epsilon)


def test_thermo_points_refuses_the_first_non_finite_beta_before_an_overflow():
    # the rule and text of every other beta-taking evaluator, checked before
    # 1e300 * 1e10 overflows the product beta * epsilon
    for betas, text in [([0.2, 1e300, -math.inf, math.nan], "-inf"), (math.nan, "nan"),
                        (np.array([[1.0, 2.0], [math.inf, 0.0]]), "inf")]:
        with pytest.raises(ValueError) as exc:
            eq.thermo_points(10, betas, 1e10)
        assert str(exc.value) == f"beta must be finite, got {text}"
    with pytest.raises(ValueError) as exc:
        eq.thermo_points(10, [0.2, 1e300], 1e10)
    assert str(exc.value) == "beta * epsilon must be finite"


# ---------------------------------------------------------------- node count

_NODE_COUNT_CALLERS = {
    "LinearWalkSpec": lambda n: LinearWalkSpec(n, 0.7),
    "EnsemblePoint": lambda n: EnsemblePoint.from_omega(n, 0.7),
    "thermo_points": lambda n: eq.thermo_points(n, [0.3]),
    "energy_gap": lambda n: eq.energy_gap(n),
    "thermalization_window": lambda n: thermalization_window(n, 0.7),
    "dqc_step_estimates": lambda n: dqc_step_estimates(n, 0.7),
}


@pytest.mark.parametrize("caller", sorted(_NODE_COUNT_CALLERS))
@pytest.mark.parametrize("n_nodes", [10.5, math.nan, 12.0, np.float64(12.0), "12"],
                         ids=["half", "nan", "float", "float64", "str"])
def test_node_count_must_be_an_integer(caller, n_nodes):
    with pytest.raises(ValueError) as exc:
        _NODE_COUNT_CALLERS[caller](n_nodes)
    assert str(exc.value) == f"n_nodes must be an integer, got {n_nodes!r}"


@pytest.mark.parametrize("caller", sorted(_NODE_COUNT_CALLERS))
def test_node_count_check_keeps_integers(caller):
    _NODE_COUNT_CALLERS[caller](np.int64(12))
    with pytest.raises(ValueError) as exc:
        _NODE_COUNT_CALLERS[caller](1)
    assert str(exc.value) == "n_nodes must be >= 2, got 1"


# ---------------------------------------------------------------- large-N and high-T forms

@pytest.mark.parametrize("beta, epsilon", [(0.5, 1.0), (-0.5, 1.0), (2.0, 0.3), (-40.0, 1.0)])
def test_entropy_derivative_large_n(beta, epsilon):
    x = beta * epsilon
    expected = -beta * epsilon ** 2 * math.exp(x) / math.expm1(x) ** 2
    assert eq.entropy_derivative_large_n(beta, epsilon) == pytest.approx(expected, rel=1e-13)
    # the N -> inf limit of the finite-N derivative -beta Var(E)
    finite = eq.entropy_derivative(EnsemblePoint.from_beta(10 ** 6, beta, epsilon))
    assert eq.entropy_derivative_large_n(beta, epsilon) == pytest.approx(finite, rel=1e-12)
    with pytest.raises(ValueError) as exc:
        eq.entropy_derivative_large_n(0.0, epsilon)
    assert str(exc.value) == "the large-N entropy derivative diverges at beta = 0"


@pytest.mark.parametrize("z", [701.0, -701.0, 745.0])
def test_large_n_forms_beyond_sinh_overflow(z):
    # |z| > 700: e^|z|/(e^|z| - 1)^2 is e^-|z| to the last bit
    assert eq.heat_capacity_large_n(z) == z * z * math.exp(-abs(z))
    assert eq.entropy_derivative_large_n(z) == -z * math.exp(-abs(z))


def test_large_n_forms_are_continuous_at_the_700_seam():
    below, above = 700.0, float(np.nextafter(700.0, math.inf))
    assert eq.heat_capacity_large_n(above) == pytest.approx(eq.heat_capacity_large_n(below),
                                                            rel=1e-13)


@pytest.mark.parametrize("evaluator", [
    eq.entropy_derivative_large_n, eq.entropy_derivative_high_t,
    eq.free_energy_derivative_high_t, eq.heat_capacity_large_n, eq.heat_capacity_high_t,
])
@pytest.mark.parametrize("beta, epsilon, message", [
    (1.0, -2.0, "epsilon must be positive, got -2.0"),
    (1.0, 0.0, "epsilon must be positive, got 0.0"),
    (1.0, math.nan, "epsilon must be positive, got nan"),
    (1.0, math.inf, "epsilon must be finite, got inf"),
    (math.nan, 1.0, "beta must be finite, got nan"),
    (math.inf, 1.0, "beta must be finite, got inf"),
    (-math.inf, 1.0, "beta must be finite, got -inf"),
    (math.nan, -1.0, "epsilon must be positive, got -1.0"),
    (0.0, math.nan, "epsilon must be positive, got nan"),
])
def test_beta_taking_evaluators_check_epsilon_then_beta(evaluator, beta, epsilon, message):
    # the rules EnsemblePoint applies, in its order, before any pole refusal;
    # heat_capacity_large_n(1.0, -2.0) used to return 0.724...
    with pytest.raises(ValueError) as exc:
        evaluator(beta, epsilon)
    assert str(exc.value) == message


def test_high_t_asymptotes_refuse_their_poles():
    with pytest.raises(ValueError) as exc:
        eq.entropy_derivative_high_t(0.0)
    assert str(exc.value) == "asymptote diverges at beta = 0"
    for beta, epsilon in [(0.0, 1.0), (-0.1, 1.0), (-0.0, 2.0)]:
        with pytest.raises(ValueError) as exc:
            eq.free_energy_derivative_high_t(beta, epsilon)
        assert str(exc.value) == "asymptote defined for beta * epsilon > 0"


def test_beta_helpers_take_their_limits_at_extreme_finite_beta():
    assert eq.heat_capacity_high_t(1000.0) == math.inf            # e^1000 overflows
    assert eq.free_energy_derivative_high_t(1e-170) == math.inf   # beta * beta underflows
    assert eq.heat_capacity_large_n(1e200) == 0.0                 # z^2 = inf meets e^-|z| = 0
    assert eq.heat_capacity_large_n(-1e200) == 0.0
    # beta * epsilon underflows to 0.0 or overflows to inf: the limits -1/beta and 0
    assert eq.entropy_derivative_large_n(1e-200, 1e-200) == -1e200
    assert eq.heat_capacity_large_n(1e-200, 1e-200) == 1.0
    assert eq.entropy_derivative_large_n(1e200, 1e200) == 0.0
    assert eq.entropy_derivative_large_n(-1e200, 1e200) == 0.0


def test_free_energy_derivative_high_t_where_beta_eps_leaves_the_normal_range():
    # log(beta eps) = log beta + log eps there: (1 - 921)/1e400 is -0.0, and
    # (1 + 921)/1e-400 overflows to inf, like beta * beta at 1e-170
    value = eq.free_energy_derivative_high_t(1e200, 1e200)      # beta * eps overflows
    assert value == 0.0 and math.copysign(1.0, value) == -1.0
    assert eq.free_energy_derivative_high_t(1e-200, 1e-200) == math.inf   # it underflows
    assert eq.free_energy_derivative_high_t(1e-300, 1e-10) == math.inf    # it is subnormal
    # a subnormal product, beta * beta finite: log beta + log eps, not log of the rounded z
    beta, epsilon = 1e-150, 1e-160
    expected = (1.0 - (math.log(beta) + math.log(epsilon))) / beta / beta
    assert eq.free_energy_derivative_high_t(beta, epsilon) == expected


@pytest.mark.parametrize("beta, epsilon", [
    (0.5, 1.0), (3.0, 2.0), (1e-170, 1.0), (1e-8, 1e-3), (1e150, 1e-150), (2.5e-154, 1e-154),
    (1e154, 1e154), (700.0, 1.0), (0.1, 7.0),
])
def test_free_energy_derivative_high_t_keeps_its_bits_in_the_normal_range(beta, epsilon):
    # where beta * eps is a finite normal double, the value is the one-log form's
    assert 2.2250738585072014e-308 <= beta * epsilon < math.inf
    assert eq.free_energy_derivative_high_t(beta, epsilon) == \
        (1.0 - math.log(beta * epsilon)) / beta / beta


# each helper's documented refusal beyond epsilon > 0
_BETA_HELPER_POLES = {
    eq.entropy_derivative_large_n: lambda beta, epsilon: beta == 0.0,
    eq.entropy_derivative_high_t: lambda beta, epsilon: beta == 0.0,
    eq.free_energy_derivative_high_t: lambda beta, epsilon: beta <= 0.0,
    eq.heat_capacity_large_n: lambda beta, epsilon: False,
    eq.heat_capacity_high_t: lambda beta, epsilon: False,
}


@settings(max_examples=400, deadline=None)
@given(beta=st.floats(allow_nan=False, allow_infinity=False),
       epsilon=st.floats(allow_nan=False, allow_infinity=False))
@example(1000.0, 1.0)
@example(1e-170, 1.0)
@example(1e200, 1.0)
@example(1e200, 1e200)
@example(-1e200, 1e200)
@example(1e-200, 1e-200)
@example(5e-324, 1.0)
@example(-1e-300, 1e-300)
@example(1.0, 5e-324)
def test_beta_helpers_give_a_number_or_their_refusal(beta, epsilon):
    for helper, pole in _BETA_HELPER_POLES.items():
        if not epsilon > 0.0 or pole(beta, epsilon):
            with pytest.raises(ValueError):
                helper(beta, epsilon)
        else:
            assert not math.isnan(helper(beta, epsilon)), helper.__name__
