"""Trajectories, thermalization window, entropy approximation, entropy production."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import xlogy

from oqwalk import channel as ch
from oqwalk import equilibrium as eq
from oqwalk import linear as lin
from oqwalk import _trajectory as tr
from oqwalk import thermalization as th
from oqwalk.equilibrium import EnsemblePoint
from oqwalk.linear import LinearWalkSpec

from chain_reference import markov_rows

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


# ---------------------------------------------------------------- window

def test_window_paper_cases():
    w = th.thermalization_window(100, 2 / 3)
    assert round(w.t_start) == 213
    assert round(w.t_end) == 423
    w9 = th.thermalization_window(100, 9 / 10)
    assert w9.t_start == pytest.approx(100.0, abs=1e-9)
    assert w9.t_end == pytest.approx(156.25, abs=1e-9)


def test_window_t_therm_closed_form():
    v = 1 / 3
    w = th.thermalization_window(100, 2 / 3)
    assert w.t_therm == pytest.approx(4 * math.sqrt(1 + v * 100) / v**2, rel=1e-12)
    assert w.t_therm == pytest.approx(210.94, abs=0.01)
    assert w.t_therm == pytest.approx(w.t_end - w.t_start, rel=1e-12)


def test_window_rejects_leftward_drift():
    with pytest.raises(ValueError):
        th.thermalization_window(100, 0.5)
    with pytest.raises(ValueError):
        th.thermalization_window(100, 0.3)


@pytest.mark.parametrize("n", [50, 100, 500])
@pytest.mark.parametrize("omega", np.linspace(0.56, 0.94, 8))
def test_window_brackets_dqc_steps(n, omega):
    est = th.dqc_step_estimates(n, float(omega))
    assert est.n_start < est.n_steps < est.n_end


# ---------------------------------------------------------------- gaussian profile

def test_gaussian_peak_value():
    prof = th.GaussianProfile.for_omega(2 / 3)
    t = 37.0
    assert th.gaussian_probability(prof, prof.velocity * t, t) == pytest.approx(
        1 / math.sqrt(2 * math.pi * t), rel=1e-14)


def test_gaussian_normalization_by_quadrature():
    prof = th.GaussianProfile.for_omega(2 / 3)
    total, _ = quad(lambda x: th.gaussian_probability(prof, x, 80.0), -400, 600)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_gaussian_rejects_nonpositive_time():
    prof = th.GaussianProfile.for_omega(0.7)
    with pytest.raises(ValueError):
        th.gaussian_probability(prof, 0.0, 0.0)


def test_simulated_packet_velocity_and_dispersion():
    # boundary-free lattice: drift matches v = 2w-1 exactly, but the true
    # dispersion is 4 w(1-w) t (= 200 here), not the idealized 2 D t = t,
    # and interior +-1 hops leave a persistent 2:1 parity comb from a
    # localized start.  The profile is a coarse envelope, not an L1-exact fit.
    spec = LinearWalkSpec(1000, 2 / 3)
    t = 225
    p = lin.markov_evolve(spec, np.eye(1000)[0], t)
    sites = np.arange(1000)
    mean = p @ sites
    var = p @ sites**2 - mean**2
    assert mean == pytest.approx(75.0, abs=1.5)
    assert var == pytest.approx(4 * (2 / 3) * (1 / 3) * t, abs=7)
    prof = th.GaussianProfile.for_omega(2 / 3)
    l1 = np.abs(p - th.gaussian_probability(prof, sites, t)).sum()
    assert l1 < 0.35


# ---------------------------------------------------------------- entropy, gaussian regime

def test_entropy_gaussian_regime_values():
    assert th.entropy_gaussian_regime(1 / (2 * math.pi * math.e)) == pytest.approx(0.0, abs=1e-14)
    assert th.entropy_gaussian_regime(100.0) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e * 100), rel=1e-14)
    with pytest.raises(ValueError):
        th.entropy_gaussian_regime(0.0)


def test_entropy_gaussian_regime_tracks_simulation():
    # The idealized (1/2) log(2 pi e t) overshoots the exact entropy by the
    # dispersion mismatch plus the parity-comb deficit, about 0.15 nats at
    # t = 100 for omega = 2/3; it never drifts beyond ~0.3 in the regime.
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 170)
    t_start = th.thermalization_window(100, 2 / 3).t_start
    devs = [abs(traj.entropy[t] - th.entropy_gaussian_regime(t))
            for t in range(20, int(0.8 * t_start) + 1)]
    assert abs(traj.entropy[100] - th.entropy_gaussian_regime(100)) < 0.16
    assert max(devs) < 0.30


@pytest.mark.parametrize("omega, excess", [(2 / 3, 0.17), (0.9, 0.88)])
def test_entropy_gaussian_regime_lies_above_the_chain_at_t_start(omega, excess):
    # the +-1 chain spreads with variance 4 omega lambda t on one parity class,
    # so the variance-t form overshoots by a margin that grows with omega
    t = math.floor(th.thermalization_window(1000, omega).t_start)
    exact = th.simulate_trajectory(LinearWalkSpec(1000, omega), t).entropy[t]
    assert th.entropy_gaussian_regime(t) - exact == pytest.approx(excess, abs=0.01)


# ---------------------------------------------------------------- split params

def test_approx_params_default_cutoff():
    params = th.approx_entropy_params(100, 2 / 3)
    assert params.sigma_ss == pytest.approx(math.sqrt(2), rel=1e-14)
    assert params.n_prime == pytest.approx(100 - 2 * math.sqrt(2), rel=1e-14)
    assert params.tail_start == 98
    assert params.tail_mass == pytest.approx(0.75, rel=1e-12)
    pi = lin.steady_state(LinearWalkSpec(100, 2 / 3))
    expected_tail_entropy = float(-(pi[98:] * np.log(pi[98:])).sum())
    assert params.tail_entropy == pytest.approx(expected_tail_entropy, rel=1e-12)


def test_approx_params_domain():
    with pytest.raises(ValueError):
        th.approx_entropy_params(100, 0.5)
    with pytest.raises(ValueError):
        th.approx_entropy_params(100, 0.4)
    # too close to omega = 1/2: sigma_ss blows past N and the cutoff is void
    with pytest.raises(ValueError):
        th.approx_entropy_params(10, 0.51)


# k_upper * sigma_ss <= 1 at the default k_upper = 2, where sigma_ss^2 = r/(1 - r)^2
# with r = (1 - omega)/omega: omega >= (2 + sqrt 2)/4
_EMPTY_TAIL_OMEGA = (2 + math.sqrt(2)) / 4


@pytest.mark.parametrize("n", [10, 100, 100_000])
def test_approx_params_refuse_an_empty_boltzmann_tail(n):
    assert th.approx_entropy_params(n, 0.8535).tail_start == n - 1
    for omega, k_upper in [(0.8536, 2.0), (0.9, 2.0), (0.99, 2.0), (0.9, 8 / 3)]:
        with pytest.raises(ValueError, match=r"^the Boltzmann tail is empty: .*k_upper"):
            th.approx_entropy_params(n, omega, k_upper=k_upper)
    # the tail-sum S_a(t) took an empty tail to 0, far from S_eq = 0.392
    with pytest.raises(ValueError, match="k_upper"):
        th.approx_entropy(LinearWalkSpec(n, 0.9), 5000.0)
    assert th.approx_entropy_params(n, 0.9, k_upper=3.0).tail_start == n - 1
    # a lower clip past the mean empties the tail too
    with pytest.raises(ValueError, match=r"^the Boltzmann tail is empty: .*k_lower >= 0"):
        th.approx_entropy_params(n, 2 / 3, k_lower=-float(n))


@pytest.mark.parametrize("kwargs, message", [
    (dict(k_lower=math.nan), r"^k_lower must be a number, got nan$"),
    (dict(k_upper=math.nan), r"^k_upper must be finite, got nan$"),
    (dict(k_upper=math.inf), r"^k_upper must be finite, got inf$"),
    (dict(k_upper=-math.inf), r"^k_upper must be finite, got -inf$"),
    # a lower clip at -inf puts the first site past every node
    (dict(k_lower=-math.inf),
     r"^the Boltzmann tail is empty: the split puts its first site at 100, .*k_lower >= 0$"),
], ids=["k_lower-nan", "k_upper-nan", "k_upper-inf", "k_upper-minus-inf", "k_lower-minus-inf"])
def test_approx_params_refuse_non_finite_split_parameters(kwargs, message):
    # k_lower = nan and -inf passed as no clip; an infinite or NaN k_upper
    # failed converting n_prime to an integer
    with pytest.raises(ValueError, match=message):
        th.approx_entropy_params(100, 2 / 3, **kwargs)


def test_approx_params_infinite_k_lower_is_no_clip():
    assert th.approx_entropy_params(100, 2 / 3, k_lower=math.inf) == th.approx_entropy_params(
        100, 2 / 3)
    assert th.approx_entropy_params(100, 2 / 3).tail_start == 98


def test_approx_params_lower_clip():
    default = th.approx_entropy_params(100, 2 / 3)
    clipped = th.approx_entropy_params(100, 2 / 3, k_lower=0.5)
    # mean is ~98, so mean - 0.5 sigma cuts the tail at 98 as well here
    assert clipped.tail_start >= default.tail_start


# ---------------------------------------------------------------- tail weight

def test_tail_weight_half_at_crossing():
    params = th.approx_entropy_params(100, 2 / 3)
    prof = th.GaussianProfile.for_omega(2 / 3)
    t_cross = params.n_prime / prof.velocity
    assert t_cross == pytest.approx(291.51, abs=0.01)
    assert th.tail_weight(params, prof, t_cross) == pytest.approx(0.5, abs=1e-12)


def test_tail_weight_limits_and_monotonicity():
    params = th.approx_entropy_params(100, 2 / 3)
    prof = th.GaussianProfile.for_omega(2 / 3)
    assert th.tail_weight(params, prof, 1e-6) == 0.0
    assert th.tail_weight(params, prof, 1e9) == pytest.approx(1.0, abs=1e-12)
    ts = np.linspace(1, 1500, 300)
    ws = [th.tail_weight(params, prof, float(t)) for t in ts]
    assert all(b >= a for a, b in zip(ws, ws[1:]))


# ---------------------------------------------------------------- approx probability

def test_approx_probability_matches_gaussian_below_cutoff():
    spec = LinearWalkSpec(100, 2 / 3)
    prof = th.GaussianProfile.for_omega(2 / 3)
    xs = np.linspace(0, 90, 91)
    got = th.approx_probability(spec, 50.0, xs)
    np.testing.assert_array_equal(got, th.gaussian_probability(prof, xs, 50.0))


def test_approx_probability_tail_reaches_steady_state():
    spec = LinearWalkSpec(100, 2 / 3)
    pi = lin.steady_state(spec)
    assert th.approx_probability(spec, 5000.0, 99) == pytest.approx(pi[99], rel=1e-9)
    # split: nothing between the cutoff and the first tail site
    assert th.approx_probability(spec, 5000.0, 97.3) == 0.0


def test_approx_probability_total_mass():
    # The two pieces carry 1 - w(t) and w(t) * tail_mass, so the total is
    # 1 - w(t) * (1 - tail_mass): near 1 before the window, sagging to
    # tail_mass (0.75 here) once the packet has fully crossed.  It never
    # leaves [tail_mass, 1].
    spec = LinearWalkSpec(100, 2 / 3)
    params = th.approx_entropy_params(100, 2 / 3)
    prof = th.GaussianProfile.for_omega(2 / 3)
    window = th.thermalization_window(100, 2 / 3)
    sites = np.arange(100)
    for t in [1, 5, 50, 150, 213, 260, 291, 350, 423, 700, 1270]:
        w = th.tail_weight(params, prof, t)
        lo = prof.velocity * t - 60 * max(math.sqrt(t), 1.0)
        gauss_mass, _ = quad(
            lambda x: th.gaussian_probability(prof, x, t),
            min(lo, params.n_prime - 1), params.n_prime, limit=200)
        tail_sum = th.approx_probability(spec, float(t), sites)[params.tail_start:].sum()
        total = gauss_mass + tail_sum
        assert total == pytest.approx(1 - w * (1 - params.tail_mass), abs=1e-7)
        assert params.tail_mass - 1e-7 <= total <= 1 + 1e-7
        if t <= window.t_start:
            assert total > 0.9


# ---------------------------------------------------------------- approx entropy

def test_approx_entropy_reduces_to_gaussian_form_early():
    spec = LinearWalkSpec(100, 2 / 3)
    for variant in ("tail-sum", "weighted-equilibrium"):
        got = th.approx_entropy(spec, 50.0, boltzmann=variant)
        assert got == pytest.approx(th.entropy_gaussian_regime(50.0), abs=1e-6)
        assert got == pytest.approx(3.375, abs=1e-3)


def test_approx_entropy_late_time_limits():
    spec = LinearWalkSpec(100, 2 / 3)
    params = th.approx_entropy_params(100, 2 / 3)
    late = th.approx_entropy(spec, 1e5, params=params)
    assert late == pytest.approx(params.tail_entropy, rel=1e-6)
    late_eq = th.approx_entropy(spec, 1e5, params=params, boltzmann="weighted-equilibrium")
    assert late_eq == pytest.approx(params.equilibrium_entropy, rel=1e-6)


def test_gaussian_piece_matches_quadrature_oracle():
    # S_G closed form == -int_{-inf}^{n'} P log P dx for the drifting Gaussian
    spec = LinearWalkSpec(100, 2 / 3)
    params = th.approx_entropy_params(100, 2 / 3)
    prof = th.GaussianProfile.for_omega(2 / 3)
    for t in (150.0, 291.5, 423.0):
        def neg_plogp(x):
            p = th.gaussian_probability(prof, x, t)
            return -p * math.log(p) if p > 0 else 0.0
        s_g_ref, _ = quad(neg_plogp, prof.velocity * t - 60 * math.sqrt(t),
                          params.n_prime, limit=200)
        w = th.tail_weight(params, prof, t)
        s_b = -(w * math.log(w)) * params.tail_mass + w * params.tail_entropy if w > 0 else 0.0
        got = th.approx_entropy(spec, t, params=params)
        assert got - s_b == pytest.approx(s_g_ref, abs=1e-7)


def test_approx_entropy_rejects_bad_inputs():
    spec = LinearWalkSpec(100, 2 / 3)
    with pytest.raises(ValueError):
        th.approx_entropy(spec, 0.0)
    with pytest.raises(ValueError):
        th.approx_entropy(spec, 10.0, boltzmann="nonsense")
    with pytest.raises(ValueError, match="t must be positive, got nan"):
        th.approx_entropy(spec, math.nan)


def test_approx_entropy_over_a_time_array():
    spec = LinearWalkSpec(100, 2 / 3)
    ts = np.arange(1, 509)
    c = th.approx_entropy_components(spec, ts)
    assert c.gaussian.shape == c.boltzmann.shape == c.weight.shape == c.total.shape == ts.shape
    np.testing.assert_array_equal(th.approx_entropy(spec, ts), c.total)
    one = th.approx_entropy_components(spec, 250)
    assert all(type(v) is float for v in (one.gaussian, one.boltzmann, one.weight, one.total))
    assert type(th.approx_entropy(spec, 250.0)) is float
    assert type(th.tail_weight(th.approx_entropy_params(100, 2 / 3),
                               th.GaussianProfile.for_omega(2 / 3), 250)) is float


_times = st.floats(0.0, 1e6, exclude_min=True)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 100_000),
       omega=st.floats(0.55, 0.95, exclude_min=True, exclude_max=True),
       ts=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                     elements=_times))
def test_time_arrays_equal_the_scalar_calls(n, omega, ts):
    # one code path: every entry of an array call is the scalar call, bit for bit
    spec = LinearWalkSpec(n, omega)
    if omega >= _EMPTY_TAIL_OMEGA:
        with pytest.raises(ValueError, match="k_upper"):
            th.approx_entropy_params(n, omega)
        return
    params = th.approx_entropy_params(n, omega)
    prof = th.GaussianProfile.for_omega(omega)
    for boltzmann in ("tail-sum", "weighted-equilibrium"):
        got = th.approx_entropy_components(spec, ts, params=params, boltzmann=boltzmann)
        ones = [th.approx_entropy_components(spec, float(t), params=params, boltzmann=boltzmann)
                for t in ts.flat]
        for name in ("gaussian", "boltzmann", "weight", "total"):
            expected = np.reshape([getattr(c, name) for c in ones], ts.shape)
            np.testing.assert_array_equal(getattr(got, name), expected)
        np.testing.assert_array_equal(
            th.approx_entropy(spec, ts, params=params, boltzmann=boltzmann), got.total)
    weights = th.tail_weight(params, prof, ts)
    np.testing.assert_array_equal(
        weights, np.reshape([th.tail_weight(params, prof, float(t)) for t in ts.flat], ts.shape))
    np.testing.assert_array_equal(
        th.entropy_gaussian_regime(ts),
        np.reshape([th.entropy_gaussian_regime(float(t)) for t in ts.flat], ts.shape))


_PARAMS_100 = th.approx_entropy_params(100, 2 / 3)


@settings(max_examples=40, deadline=None)
@given(ts=hnp.arrays(float, st.integers(1, 20), elements=_times),
       bad=st.sampled_from([0.0, -0.0, -1e-300, -1.0, -math.inf, math.nan]),
       data=st.data())
def test_a_bad_time_anywhere_is_refused(ts, bad, data):
    ts = ts.copy()
    ts[data.draw(st.integers(0, len(ts) - 1))] = bad
    spec = LinearWalkSpec(100, 2 / 3)
    for boltzmann in ("tail-sum", "weighted-equilibrium"):
        with pytest.raises(ValueError, match="t must be positive"):
            th.approx_entropy_components(spec, ts, params=_PARAMS_100, boltzmann=boltzmann)
        with pytest.raises(ValueError, match="t must be positive"):
            th.approx_entropy(spec, ts, params=_PARAMS_100, boltzmann=boltzmann)
    with pytest.raises(ValueError, match="t must be positive"):
        th.tail_weight(_PARAMS_100, th.GaussianProfile.for_omega(2 / 3), ts)
    with pytest.raises(ValueError, match="t must be positive"):
        th.entropy_gaussian_regime(ts)


def _gaussian_piece_mp(mp, n_prime, velocity, t):
    # S_G's closed form at the given double inputs, in mpmath's precision
    t = mp.mpf(t)
    u = mp.mpf(n_prime) - mp.mpf(velocity) * t
    z = u / mp.sqrt(2 * t)
    return ((1 + mp.log(2 * mp.pi * t)) * mp.erfc(-z) / 4
            - u * mp.exp(-u * u / (2 * t)) / (2 * mp.sqrt(2 * mp.pi * t)))


def test_gaussian_piece_against_mpmath():
    # 200 steps across the crossing t = n'/v ~ 1491.5, from the Gaussian regime
    # to where erfc(-z) ~ 1e-11.  The bound is the worst relative error of the
    # earlier per-step math.log/math.exp evaluation on this grid (7.58e-15).
    mp = pytest.importorskip("mpmath")
    spec = LinearWalkSpec(500, 2 / 3)
    params = th.approx_entropy_params(500, 2 / 3)
    prof = th.GaussianProfile.for_omega(2 / 3)
    ts = np.arange(1000, 2600, 8)
    assert ts[0] < params.n_prime / prof.velocity < ts[-1]
    got = th.approx_entropy_components(spec, ts, params=params).gaussian
    with mp.workdps(50):
        ref = [_gaussian_piece_mp(mp, params.n_prime, prof.velocity, float(t)) for t in ts]
        err = max(abs((mp.mpf(g) - r) / r) for g, r in zip(got.tolist(), ref))
    assert err <= 7.6e-15


@pytest.mark.parametrize("n,steps,stride", [(500, 3000, 3), (10_000, 40_000, 40)])
def test_tail_weight_against_mpmath(n, steps, stride):
    # w = erfc(z)/2 at the double z the kernel forms, over the whole horizon.
    # Early on w falls through the subnormal range to 0; it is compared
    # wherever the reference is a normal double.
    mp = pytest.importorskip("mpmath")
    params = th.approx_entropy_params(n, 2 / 3)
    prof = th.GaussianProfile.for_omega(2 / 3)
    ts = np.arange(1, steps + 1, stride)
    got = th.tail_weight(params, prof, ts)
    z = (params.n_prime - prof.velocity * ts) / np.sqrt(2.0 * (2.0 * prof.diffusion * ts))
    with mp.workdps(50):
        ref = [mp.erfc(mp.mpf(v)) / 2 for v in z.tolist()]
        normal = [r >= np.finfo(float).tiny for r in ref]
        assert sum(normal) > len(ts) // 2
        assert all(g > 0 for g, ok in zip(got.tolist(), normal) if ok)
        err = max(abs((mp.mpf(g) - r) / r) for g, r, ok in zip(got.tolist(), ref, normal) if ok)
    assert err <= 1e-15


# ---------------------------------------------------------------- trajectory

# Each record type built twice from the same inputs, in its scalar (or
# single-row) form and its array form.
_RECORDS = {
    "ThermoPoint-scalar": lambda: eq.thermo_point(EnsemblePoint.from_omega(10, 0.3)),
    "ThermoPoint-array": lambda: eq.thermo_points(10, [0.1, 0.2]),
    "ApproxEntropyComponents-scalar": lambda: th.approx_entropy_components(
        LinearWalkSpec(100, 0.7), 50.0),
    "ApproxEntropyComponents-array": lambda: th.approx_entropy_components(
        LinearWalkSpec(100, 0.7), np.arange(1, 6)),
    "TrajectoryRecord-zero-steps": lambda: th.simulate_trajectory(LinearWalkSpec(5, 0.7), 0),
    "TrajectoryRecord-array": lambda: th.simulate_trajectory(LinearWalkSpec(5, 0.7), 5),
}


@pytest.mark.parametrize("build", list(_RECORDS.values()), ids=list(_RECORDS))
def test_record_equality_is_identity_and_records_hash(build):
    # dataclass equality compared the array fields and raised "truth value ... ambiguous"
    a, b = build(), build()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, a, b}) == 2


def test_trajectory_zero_steps():
    traj = th.simulate_trajectory(LinearWalkSpec(10, 0.7), 0)
    assert traj.entropy.tolist() == [0.0]
    assert traj.energy.tolist() == [0.0]
    assert traj.entropy_generated.tolist() == [0.0]


def test_trajectory_first_step_entropy():
    traj = th.simulate_trajectory(LinearWalkSpec(100, 2 / 3), 1)
    expected = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    assert traj.entropy[1] == pytest.approx(expected, rel=1e-14)
    assert traj.energy[1] == pytest.approx(2 / 3, rel=1e-14)


def test_trajectory_converges_to_equilibrium_values():
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 3000)
    point = EnsemblePoint.from_omega(100, 2 / 3)
    assert traj.entropy[3000] == pytest.approx(eq.entropy(point), abs=1e-6)
    assert traj.energy[3000] == pytest.approx(eq.mean_energy(point), abs=1e-6)


def test_trajectory_entropy_rises_then_decays():
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 1200)
    window = th.thermalization_window(100, 2 / 3)
    peak = int(np.argmax(traj.entropy))
    assert 0 < peak <= math.ceil(window.t_start)
    assert traj.entropy[peak] > traj.entropy[1200] > 0
    # decays monotonically through the window (within numerical noise)
    s = traj.entropy[math.ceil(window.t_start):int(window.t_end)]
    assert (np.diff(s) <= 1e-9).all()


def test_trajectory_drift_law_before_window():
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 180)
    v = 1 / 3
    t_start = th.thermalization_window(100, 2 / 3).t_start
    for t in range(1, int(0.8 * t_start)):
        assert abs(traj.energy[t] / spec.epsilon - v * t) <= 3 * math.sqrt(t)


def test_trajectory_custom_start_and_checks():
    spec = LinearWalkSpec(4, 0.7)
    p0 = np.array([0.25, 0.25, 0.25, 0.25])
    traj = th.simulate_trajectory(spec, 3, p0=p0)
    assert traj.entropy[0] == pytest.approx(math.log(4), rel=1e-14)
    with pytest.raises(ValueError):
        th.simulate_trajectory(spec, -1)
    with pytest.raises(ValueError):
        th.simulate_trajectory(spec, 2, p0=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        th.simulate_trajectory(spec, 2, p0=np.array([0.5, 0.5, 0.5, -0.5]))


def test_trajectory_distributions_record():
    spec = LinearWalkSpec(30, 0.8)
    traj = th.simulate_trajectory(spec, 12, keep_distributions=True)
    assert traj.distributions.shape == (13, 30)
    np.testing.assert_allclose(traj.distributions.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(traj.distributions[-1], traj.final_distribution)


def test_kept_distributions_come_from_one_exact_chain(monkeypatch):
    spec = LinearWalkSpec(30, 0.8)
    floors = []
    chain = th._chain_blocks

    def counted(p, omega, steps, rows, floor):
        floors.append(floor)
        return chain(p, omega, steps, rows, floor)

    monkeypatch.setattr(tr, "_chain_blocks", counted)
    traj = th.simulate_trajectory(spec, 40, keep_distributions=True)
    assert floors == [th._EXACT]
    assert not np.shares_memory(traj.final_distribution, traj.distributions)
    for k, p in enumerate(markov_rows(spec, 40)):
        assert traj.distributions[k].tobytes() == p.tobytes()

def test_iter_distributions_replays_the_trajectory():
    spec = LinearWalkSpec(30, 0.8)
    traj = th.simulate_trajectory(spec, 12, keep_distributions=True)
    replay = list(th.iter_distributions(spec, 12))
    assert len(replay) == 13
    for n, (p, q) in enumerate(zip(replay, markov_rows(spec, 12))):
        np.testing.assert_array_equal(p, traj.distributions[n])  # bit for bit
        assert p.tobytes() == q.tobytes()
    p0 = lin.steady_state(spec)
    custom = list(th.iter_distributions(spec, 0, p0=p0))
    assert len(custom) == 1 and custom[0] is not p0
    np.testing.assert_array_equal(custom[0], p0)
    with pytest.raises(ValueError):  # raised at the call, not at the first next()
        th.iter_distributions(spec, -1)


def test_trajectory_shannon_equals_von_neumann():
    # blocks stay pure from a localized pure start, so the position marginal
    # carries all the mixedness of the full quantum state
    spec = LinearWalkSpec(12, 0.7, unitaries=(X, H) * 5 + (X,))
    chan = lin.build_channel(spec)
    state = ch.BlockState.localized(12, 0, np.array([0.6, 0.8]))
    traj = th.simulate_trajectory(spec, 80)
    for n in range(1, 81):
        state = ch.step(chan, state)
        if n % 20 == 0:
            eigs = np.concatenate([np.linalg.eigvalsh(b) for b in state.blocks.values()])
            eigs = eigs[eigs > 1e-300]
            s_vn = float(-(eigs * np.log(eigs)).sum())
            assert s_vn == pytest.approx(traj.entropy[n], abs=1e-10)


def _block_rows(n):
    return max(1, th._BLOCK_BYTES // (8 * n))


def _steps_at(n, where):
    """Step count that puts the end of the run at a given place relative to the blocks."""
    rows = _block_rows(n)
    return {"inside": rows // 2, "one block": rows, "multiple": 3 * rows,
            "past": 2 * rows + rows // 3, "single rows": 7}[where] - 1


@pytest.mark.parametrize("n,where,custom_start,keep", [
    (64, "inside", False, False),           # steps + 1 < rows
    (64, "one block", False, False),        # steps + 1 == rows
    (64, "multiple", False, False),         # an exact multiple of rows
    (64, "past", False, False),             # a partial last block
    (40_000, "single rows", False, False),  # N so large that rows == 1
    (64, "past", True, False),              # a custom p0
    (64, "past", False, True),              # kept distributions across blocks
    (5, "past", True, True),               # both, at a small N
])
def test_trajectory_block_reductions_match_per_step(n, where, custom_start, keep, monkeypatch):
    steps = _steps_at(n, where)
    rows = _block_rows(n)
    assert (rows == 1) == (where == "single rows")
    spec = LinearWalkSpec(n, 0.6)
    p0 = None
    if custom_start:
        p0 = np.random.default_rng(n).random(n)
        p0[::3] = 0.0
        p0 /= p0.sum()
    # the series come from one _reduce_chain call, which reads the chain's
    # blocks at the series' height (one block of every step when kept) and
    # redoes only p_0, whose zeros lie inside its whole-row band, through
    # shannon_entropy
    reductions, blocks, redone = [], [], []
    reduce_chain, chain_blocks, reduce = tr._reduce_chain, tr._chain_blocks, th.shannon_entropy

    def reduce_counted(*args, **kwargs):
        reductions.append(kwargs)
        return reduce_chain(*args, **kwargs)

    def chain_counted(*args):
        for block in chain_blocks(*args):
            blocks.append(block[1].shape)
            yield block

    def redo_counted(block):
        redone.append(block.shape)
        return reduce(block)

    monkeypatch.setattr(tr, "_reduce_chain", reduce_counted)
    monkeypatch.setattr(tr, "_chain_blocks", chain_counted)
    monkeypatch.setattr(tr, "shannon_entropy", redo_counted)
    traj = th.simulate_trajectory(spec, steps, p0=p0, keep_distributions=keep)
    monkeypatch.undo()

    assert reductions == [dict(energy=True, mass=True, keep=keep)]
    assert len(blocks) == (1 if keep else math.ceil((steps + 1) / rows))
    assert redone == [(1, n)]
    if keep:
        assert traj.distributions.shape == (steps + 1, n)
    else:
        assert traj.distributions is None
    sites = np.arange(n)
    for k, p in enumerate(markov_rows(spec, steps, p0)):
        assert traj.entropy[k] == th.shannon_entropy(p)  # bit for bit
        assert abs(traj.entropy[k] - float(-xlogy(p, p).sum())) <= 1e-14
        assert traj.energy[k] == pytest.approx(float(p @ sites), rel=1e-15, abs=0.0)
        if keep:
            np.testing.assert_array_equal(traj.distributions[k], p)
    np.testing.assert_array_equal(traj.final_distribution, p)


def _exact_chain_series(spec, steps, p0=None):
    """S, E, T_est and S_gen reduced from the exact chain's rows in the same block shapes."""
    n = spec.n_nodes
    rows = _block_rows(n)
    sites = np.arange(n, dtype=float)
    chain = markov_rows(spec, steps, p0)
    ent, energy = [], []
    for start in range(0, steps + 1, rows):
        block = np.array([next(chain) for _ in range(min(rows, steps + 1 - start))])
        ent.append(th.shannon_entropy(block))
        energy.append(block @ sites)
    ent = np.concatenate(ent)
    energy = np.concatenate(energy) * spec.epsilon
    t_eq = eq.equilibrium_temperature(spec.omega, spec.epsilon)
    s_gen = ent.copy() if math.isinf(t_eq) else ent - energy / t_eq
    return ent, energy, th._temperature_estimate(energy, ent, 5), s_gen


def _localized(n, node):
    p0 = np.zeros(n)
    p0[node] = 1.0
    return p0


def _subnormal_start(n):
    """A start with interior zeros and subnormal entries at both ends and inside."""
    p0 = np.random.default_rng(n).random(n)
    p0[::3] = 0.0
    p0 /= p0.sum()
    p0[:4] = [3e-310, 0.0, 5e-320, 1e-308]
    p0[n // 2] = 7e-315
    p0[-3:] = [2e-311, 0.0, 4e-323]
    normal = p0 >= np.finfo(float).tiny
    p0[normal] /= p0[normal].sum()
    assert p0.min() == 0.0 and 0.0 < p0[p0 > 0].min() < np.finfo(float).tiny
    return p0


_STARTS = {"subnormal": _subnormal_start, "last": lambda n: _localized(n, n - 1),
           "uniform": lambda n: np.full(n, 1.0 / n)}


@pytest.mark.parametrize("n,omega,steps,start", [
    *[(2500, w, 5000, None) for w in (0.5625, 0.5875, 0.6125, 0.6375)],  # traj-long strata
    (200, 0.83, 1250, None),                 # traj-dump's size
    (1000, 0.9, 4000, None),                 # the left edge flushes
    (1000, 0.3, 4000, None),                 # drift toward node 0: the right edge flushes
    (300, 0.5, 2000, None),                  # no drift
    (500, 0.7, 1500, "subnormal"),           # interior zeros and subnormal entries
    (400, 0.2, 2000, "last"),                # the left edge moves from the first step
    (1000, 0.1, 1500, "uniform"),            # the right edge recedes ~0.8 sites a step
    (40_000, 0.6, 1600, None),               # rows == 1
    pytest.param(10_000, 0.6, 20_000, None, marks=pytest.mark.slow),
    pytest.param(100_000, 2 / 3, 3000, None, marks=pytest.mark.slow),
])
def test_band_chain_series_are_bit_identical_to_the_exact_chain(n, omega, steps, start):
    spec = LinearWalkSpec(n, omega)
    p0 = None if start is None else _STARTS[start](n)
    traj = th.simulate_trajectory(spec, steps, p0=p0)
    ent, energy, t_est, s_gen = _exact_chain_series(spec, steps, p0)
    np.testing.assert_array_equal(traj.entropy, ent)  # bit for bit
    np.testing.assert_array_equal(traj.energy, energy)
    np.testing.assert_array_equal(traj.temperature_estimate, t_est)
    np.testing.assert_array_equal(traj.entropy_generated, s_gen)
    # Each step adds at most two sites to the band, each flushed entry is
    # below DBL_MIN, and the stencil does not grow L1 differences.
    exact = lin.markov_evolve(spec, _localized(n, 0) if p0 is None else p0, steps)
    l1 = np.abs(traj.final_distribution - exact).sum()
    assert l1 <= (n + 2 * steps) * np.finfo(float).tiny


def test_band_chain_rows_are_zero_outside_their_band(monkeypatch):
    # every row handed to the reductions is zero outside its band and normal at
    # its edges, and that band is the one _chain_blocks yields for it (p_0's is
    # the whole row)
    spec = LinearWalkSpec(400, 0.9)
    tiny = np.finfo(float).tiny
    seen = []
    chain_blocks = tr._chain_blocks

    def checked(*args):
        for start, block, bands in chain_blocks(*args):
            for k, row in enumerate(block):
                band = np.flatnonzero(row)
                seen.append((band[0], band[-1]))
                assert row[band[0]] >= tiny and row[band[-1]] >= tiny
                assert bands[k] == ((0, 399) if start + k == 0 else seen[-1])
            yield start, block, bands

    monkeypatch.setattr(tr, "_chain_blocks", checked)
    traj = th.simulate_trajectory(spec, 3000)
    monkeypatch.undo()
    assert len(seen) == 3001
    assert seen[0] == (0, 0) and seen[-1][1] == 399
    lo = seen[-1][0]
    assert lo > 0  # the left edge has moved in, flushing entries the exact chain keeps
    assert (lin.markov_evolve(spec, _localized(400, 0), 3000)[:lo] > 0).any()
    assert traj.final_distribution[:lo].tolist() == [0.0] * lo


@st.composite
def _reducer_runs(draw):
    """A walk, its start, steps, a span of them, the quantities asked for, and a
    block height (None: the series' own, else 1..12 rows)."""
    n = draw(st.integers(2, 7) | st.integers(8, 128) | st.integers(129, 600)
             | st.integers(16_385, 17_000))        # the last: one row per block
    large = n > 16_384
    omega = draw(st.just(0.5) | st.floats(0.05, 0.95))
    start = draw(st.sampled_from(["first", "last", "subnormal"] if n >= 16 else ["first", "last"]))
    p0 = {"first": None, "last": _localized(n, n - 1), "subnormal": None}[start]
    if start == "subnormal":
        p0 = _subnormal_start(n)
    steps = draw(st.integers(0, 20 if large else 120))
    first = draw(st.integers(0, steps))
    span = range(first, draw(st.integers(first + 1, steps + 1)))
    height = None if large else draw(st.none() | st.integers(1, 12))
    spec = LinearWalkSpec(n, omega, draw(st.sampled_from([1.0, 2.5])))
    return (spec, steps, p0, span, height, draw(st.booleans()), draw(st.booleans()),
            draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(_reducer_runs())
@example((LinearWalkSpec(9, 0.3), 40, None, range(5, 29), 4, True, True, False))
@example((LinearWalkSpec(100, 0.7), 60, _localized(100, 99), range(7, 50), 8, True, False, True))
@example((LinearWalkSpec(17_000, 0.6), 12, None, range(3, 10), None, True, True, False))
def test_reducer_rows_are_the_full_row_reductions(run):
    # S and the mass of each step of the span are shannon_entropy and sum of its
    # row bit for bit; E is epsilon * (block @ sites) over the row's whole block
    # of the series' height, whose bits depend on that height.  shannon_entropy
    # redoes exactly the rows with an exact zero inside their own band.
    spec, steps, p0, span, height, energy, mass, keep = run
    n = spec.n_nodes
    p = lin._start(spec, steps, p0)
    redone = []
    reduce = tr.shannon_entropy

    def redo_counted(block):
        redone.append(len(block))
        return reduce(block)

    with pytest.MonkeyPatch.context() as patch:
        if height is not None:
            patch.setattr(tr, "_BLOCK_BYTES", 8 * n * height)
        patch.setattr(tr, "shannon_entropy", redo_counted)
        rows = max(1, tr._BLOCK_BYTES // (8 * n))
        got = tr._reduce_chain(spec, steps, p, span=span, energy=energy, mass=mass, keep=keep)
    assert height is None or rows == height
    floor = th._EXACT if keep else th._TINY
    chain = [(b[0].copy(), band[0])
             for _, b, band in tr._chain_blocks(p, spec.omega, steps, 1, floor)]
    if keep:
        exact = list(markov_rows(spec, steps, p0))
        assert all(row.tobytes() == q.tobytes() for (row, _), q in zip(chain, exact))
        np.testing.assert_array_equal(got.distributions, exact)
    else:
        assert got.distributions is None
    assert got.final.tobytes() == chain[-1][0].tobytes()
    assert (got.energy is None, got.mass is None) == (not energy, not mass)
    assert len(got.entropy) == len(span)
    assert sum(redone) == sum((chain[k][0][lo:hi + 1] == 0.0).any()
                              for k in span for lo, hi in [chain[k][1]])
    sites = np.arange(n, dtype=float)
    for i, k in enumerate(span):
        row = chain[k][0]
        assert got.entropy[i].tobytes() == np.float64(th.shannon_entropy(row)).tobytes()
        if mass:
            assert got.mass[i] == row.sum()
        if energy:
            block = k - k % rows
            e = np.array([r for r, _ in chain[block:block + rows]]) @ sites * spec.epsilon
            assert got.energy[i] == e[k - block]


def _assert_exact_rows(spec, steps, p0, rows):
    """The exact-floor band chain in blocks of `rows` steps gives markov_step's rows."""
    reference = markov_rows(spec, steps, p0)
    k = 0
    for start, block in th._exact_blocks(spec, steps, p0, rows):
        assert start == k and len(block) == min(rows, steps + 1 - start)
        for row in block:
            assert row.tobytes() == next(reference).tobytes()  # bit for bit, zeros' signs too
            k += 1
    assert k == steps + 1


_TINY = np.finfo(float).tiny


@st.composite
def _exact_chain_walks(draw):
    """A walk, its steps, a block height, and a start whose normal entries sit
    among interior zeros, -0.0 entries and subnormal entries."""
    n = draw(st.integers(2, 60))
    entry = (st.floats(0.01, 1.0) | st.sampled_from([0.0, -0.0])
             | st.floats(5e-324, _TINY, exclude_max=True))
    p0 = np.array(draw(st.lists(entry, min_size=n, max_size=n).filter(lambda w: max(w) >= 0.01)))
    normal = p0 >= _TINY
    p0[normal] /= p0[normal].sum()
    spec = LinearWalkSpec(n, draw(st.floats(0.01, 0.99)))
    return spec, draw(st.integers(0, 200)), p0, draw(st.integers(1, 40))


@settings(max_examples=100, deadline=None)
@given(_exact_chain_walks())
@example((LinearWalkSpec(12, 0.6), 40, np.r_[1.0, [-0.0] * 11], 7))
@example((LinearWalkSpec(9, 0.3), 30, np.r_[0.0, 5e-324, 1.0, -0.0, 0.0, 1e-310, 0.0, 0.0, 0.0], 1))
def test_exact_band_chain_is_the_markov_step_loop(walk):
    _assert_exact_rows(*walk)


@pytest.mark.parametrize("start", [None, "subnormal"])
def test_exact_band_chain_in_single_row_blocks(start):
    n = 40_000
    assert _block_rows(n) == 1                  # as at every N > 16384
    p0 = None
    if start is not None:
        p0 = _subnormal_start(n)
        zeros = np.flatnonzero(p0 == 0.0)
        p0[zeros[::2]] = -0.0
    _assert_exact_rows(LinearWalkSpec(n, 0.6), 300, p0, 1)


_WALKS = dict(n=st.integers(2, 400), omega=st.floats(0.05, 0.95), steps=st.integers(0, 1500))


@settings(max_examples=60, deadline=None)
@given(**_WALKS)
def test_trajectory_conserves_mass(n, omega, steps):
    assert th.simulate_trajectory(LinearWalkSpec(n, omega), steps).mass_drift <= 1e-12


@settings(max_examples=60, deadline=None)
@given(**_WALKS)
def test_trajectory_second_law(n, omega, steps):
    s_gen = th.simulate_trajectory(LinearWalkSpec(n, omega), steps).entropy_generated
    # the benchmark oracle's rule: S_gen never falls by more than its rounding
    assert (np.diff(s_gen) >= -1e-12 * np.maximum(1.0, np.abs(s_gen[1:]))).all()


@settings(max_examples=60, deadline=None)
@given(**_WALKS)
def test_trajectory_mirror_symmetry(n, omega, steps):
    # node m with omega is node N-1-m with 1-omega: S is unchanged and E -> (N-1) eps - E
    traj = th.simulate_trajectory(LinearWalkSpec(n, omega), steps)
    mirror = th.simulate_trajectory(LinearWalkSpec(n, 1.0 - omega), steps, p0=_localized(n, n - 1))
    np.testing.assert_allclose(mirror.entropy, traj.entropy, rtol=1e-13, atol=0.0)
    # E is compared at the scale of its range, (N-1) eps: early on E is near 0
    # and (N-1) eps - E there carries the rounding of (N-1) eps
    scale = (n - 1) * traj.spec.epsilon
    assert np.abs((scale - mirror.energy) - traj.energy).max() <= 1e-13 * scale


_U = 2.0 ** -53      # unit roundoff of a double


@st.composite
def _walks_with_starts(draw):
    """A walk on either side of omega = 1/2, its steps, and a start: node 0
    (None) or a random distribution."""
    n = draw(st.integers(2, 60))
    spec = LinearWalkSpec(n, draw(st.floats(0.01, 0.99)), draw(st.sampled_from([1.0, 0.3, 2.5])))
    weights = draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
                   .filter(lambda w: math.fsum(w) > 0.0))
    p0 = None if weights is None else np.array(weights) / math.fsum(weights)
    return spec, draw(st.integers(0, 300)), p0


@settings(max_examples=80, deadline=None)
@given(_walks_with_starts())
@example((LinearWalkSpec(30, 0.5), 200, None))
@example((LinearWalkSpec(30, 0.2), 200, None))
@example((LinearWalkSpec(40, 0.9, 2.5), 300, None))
def test_trajectory_first_law(walk):
    # E(n+1) - E(n) = eps [(2 omega - 1) M + lam p_n(0) - omega p_n(N-1)], the
    # exact first moment of the stencil, with the mass M = 1 up to rounding.
    # Bound, fixed from the arithmetic: each E is a dot product of N
    # nonnegative terms scaled by eps, within (gamma_N + u) E; a stencil entry
    # is two roundings, gamma_2 of E(n+1); the right side is some ten
    # roundings of terms whose magnitudes add to at most 2, and lam = 1 - omega
    # is rounded by u/2.  Together at most (2N + 24) u eps max(1, E/eps).
    spec, steps, p0 = walk
    n, omega, eps = spec.n_nodes, spec.omega, spec.epsilon
    energy = th.simulate_trajectory(spec, steps, p0=p0).energy
    p = np.array(list(th.iter_distributions(spec, steps, p0)))[:-1]
    mass = np.array([math.fsum(row) for row in p])
    balance = eps * ((2 * omega - 1) * mass + (1.0 - omega) * p[:, 0] - omega * p[:, -1])
    scale = np.maximum(1.0, np.maximum(energy[:-1], energy[1:]) / eps)
    assert (np.abs(np.diff(energy) - balance) <= (2 * n + 24) * _U * eps * scale).all()


def _log_z(n: int, x: float) -> float:
    """log sum_m exp(-x m), m = 0..n-1, shifted by its largest exponent."""
    top = max(0.0, -x * (n - 1))
    return top + math.log(math.fsum(math.exp(-x * m - top) for m in range(n)))


@settings(max_examples=80, deadline=None)
@given(_walks_with_starts())
@example((LinearWalkSpec(30, 0.5), 200, None))
@example((LinearWalkSpec(20, 0.3), 300, None))
@example((LinearWalkSpec(20, 0.8), 300, None))
def test_generated_entropy_is_bounded_by_log_z(walk):
    # D(p_n || pi) = log Z - S_gen(n) >= 0 for pi ~ exp(-x m) at any x, so the
    # bound holds at the x = eps/T_eq that S_gen uses.  The rounded chain
    # keeps the mass M_n = 1 only to rounding, and for p_n = M_n q,
    # S_gen(p_n) = M_n (log Z - D(q || pi) - log M_n) <= M_n (log Z - log M_n).
    # Bound, fixed from the arithmetic: gamma_(N+3) of S (N terms p log p),
    # gamma_N + 4u of x E/eps, and about 4u (|log Z| + N) from the exp, fsum
    # and log of the reference.
    spec, steps, p0 = walk
    n = spec.n_nodes
    traj = th.simulate_trajectory(spec, steps, p0=p0)
    mass = np.array([math.fsum(p) for p in th.iter_distributions(spec, steps, p0)])
    x = spec.epsilon / traj.equilibrium_temperature
    log_z = _log_z(n, x)
    heat = np.abs(x * traj.energy / spec.epsilon)
    tol = (n + 16) * _U * (1.0 + traj.entropy + heat + abs(log_z))
    assert (traj.entropy_generated <= mass * (log_z - np.log(mass)) + tol).all()


def test_trajectory_invariant_residuals():
    traj = th.simulate_trajectory(LinearWalkSpec(100, 2 / 3), 3000)
    assert 0.0 <= traj.mass_drift <= 1e-12
    assert traj.min_entropy_production_step >= -1e-12
    assert traj.min_entropy_production_step == np.diff(traj.entropy_generated).min()
    steady = lin.steady_state(LinearWalkSpec(100, 2 / 3))
    assert traj.final_l1_to_steady == np.abs(traj.final_distribution - steady).sum()


def test_trajectory_distance_to_steady_state_vanishes():
    spec = LinearWalkSpec(50, 0.7)
    l1 = [th.simulate_trajectory(spec, steps).final_l1_to_steady
          for steps in (100, 200, 400, 800, 1600)]
    assert l1[0] > 1.0
    assert all(b < a for a, b in zip(l1, l1[1:4]))
    # down to the rounding floor of the stencil's fixed point, where it stays
    assert l1[-1] <= l1[-2] <= 1e-14


@pytest.mark.parametrize("n,omega", [(30, 0.5), (100, 2 / 3)])  # pi sums to 1 - 1.1e-16 at N=100
def test_trajectory_residuals_vanish_at_the_steady_state(n, omega):
    spec = LinearWalkSpec(n, omega)
    traj = th.simulate_trajectory(spec, 0, p0=lin.steady_state(spec))
    assert traj.mass_drift == 0.0
    assert traj.min_entropy_production_step == 0.0
    assert traj.final_l1_to_steady == 0.0


# ---------------------------------------------------------------- shannon entropy

_SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2e-308)
_ENTRY = st.one_of(st.just(0.0), _SUBNORMAL, st.floats(min_value=1e-300, max_value=1.0))


def _distribution(entries):
    p = np.array(entries)
    normal = p >= 1e-300
    if normal.any():
        p[normal] /= p[normal].sum()
    return p


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_ENTRY, min_size=1, max_size=300))
def test_shannon_entropy_matches_xlogy(entries):
    p = _distribution(entries)
    s = th.shannon_entropy(p)
    assert type(s) is float
    reference = float(-xlogy(p, p).sum())
    assert abs(s - reference) <= 1e-15 * (1.0 + abs(reference))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), data=st.data())
def test_shannon_entropy_rows_equal_the_1d_results(rows, data):
    n = data.draw(st.integers(1, 200))
    block = np.array([_distribution(data.draw(st.lists(_ENTRY, min_size=n, max_size=n)))
                      for _ in range(rows)])
    got = th.shannon_entropy(block)
    assert got.shape == (rows,)
    for k in range(rows):
        assert got[k] == th.shannon_entropy(block[k])  # bit for bit


def test_shannon_entropy_empty_and_zero_rows():
    assert th.shannon_entropy(np.empty(0)) == 0.0
    assert th.shannon_entropy(np.zeros(7)) == 0.0
    np.testing.assert_array_equal(th.shannon_entropy(np.empty((3, 0))), np.zeros(3))
    block = np.zeros((3, 4))
    block[1] = 0.25
    np.testing.assert_array_equal(th.shannon_entropy(block), [0.0, math.log(4), 0.0])


def test_shannon_entropy_of_a_point_mass_is_plus_zero():
    # 0.0 - sum, not -sum: a point mass, an empty and an all-zero row give +0.0
    for p in (np.eye(1, 5)[0], np.array([1.0]), np.empty(0), np.zeros(7)):
        assert math.copysign(1.0, th.shannon_entropy(p)) == 1.0
    assert not np.signbit(th.shannon_entropy(np.eye(3))).any()
    for omega in (0.3, 0.5, 0.7):
        traj = th.simulate_trajectory(LinearWalkSpec(5, omega), 1)
        assert not np.signbit([traj.entropy[0], traj.entropy_generated[0]]).any()


# ---------------------------------------------------------------- temperature

def test_noneq_temperature_values():
    prof = th.GaussianProfile.for_omega(2 / 3)
    assert th.noneq_temperature_analytic(prof, 1.0, 100.0) == pytest.approx(200 / 3, rel=1e-14)
    assert th.noneq_temperature_analytic(prof, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        th.noneq_temperature_analytic(prof, 1.0, 0.0)
    # dE/dt over dS/dt of the free packet gives the same line
    t = 77.0
    eps = 2.0
    assert th.noneq_temperature_analytic(prof, eps, t) == pytest.approx(
        (eps * prof.velocity) / (1 / (2 * t)), rel=1e-12)


def test_temperature_estimate_approaches_equilibrium():
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 1000)
    t_eq = traj.equilibrium_temperature
    t2 = int(2 * th.thermalization_window(100, 2 / 3).t_end)  # = 846
    assert abs(traj.temperature_estimate[t2] - t_eq) / abs(t_eq) < 0.02
    for t in range(700, 861):
        assert abs(traj.temperature_estimate[t] - t_eq) / abs(t_eq) < 0.02


def test_temperature_estimate_sentinels_when_flat():
    # started in the steady state nothing moves: dS and dE both vanish
    spec = LinearWalkSpec(20, 0.7)
    traj = th.simulate_trajectory(spec, 10, p0=lin.steady_state(spec))
    assert np.isnan(traj.temperature_estimate).all()
    # deep in equilibrium the running trajectory hits the same sentinel
    long = th.simulate_trajectory(LinearWalkSpec(100, 2 / 3), 2000)
    assert not np.isfinite(long.temperature_estimate[1500:]).any()


def _temperature_estimate_loop(energy, ent, half_width):
    # the scalar definition the vectorized estimate must reproduce bit for bit
    n = len(ent)
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - half_width), min(n - 1, i + half_width)
        d_e, d_s = energy[hi] - energy[lo], ent[hi] - ent[lo]
        if abs(d_s) < th._FLAT_ENTROPY_TOL:
            out[i] = math.nan if abs(d_e) < th._FLAT_ENTROPY_TOL else math.copysign(math.inf, d_e)
        else:
            out[i] = d_e / d_s
    return out


@pytest.mark.parametrize("n,omega,steps,half_width", [
    (100, 2 / 3, 2000, 5),    # peak spike, finite values, nan deep in equilibrium
    (4, 0.5, 60, 5),          # flat entropy with moving energy: +inf
    (2, 0.7, 12, 5),          # both flat after one step: nan
    (30, 0.2, 0, 5),          # a single point
    (30, 0.8, 40, 0),         # zero half-width: every difference vanishes
    (30, 0.8, 40, 100),       # window wider than the series
])
def test_temperature_estimate_matches_loop_definition(n, omega, steps, half_width):
    traj = th.simulate_trajectory(LinearWalkSpec(n, omega), steps, t_est_half_width=half_width)
    expected = _temperature_estimate_loop(traj.energy, traj.entropy, half_width)
    np.testing.assert_array_equal(traj.temperature_estimate, expected)
    assert np.signbit(traj.temperature_estimate).tolist() == np.signbit(expected).tolist()


@pytest.mark.parametrize("half_width", [-1, 2.5])
def test_bad_half_width_is_refused_before_the_chain_runs(half_width, monkeypatch):
    def no_chain(*args):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(tr, "_chain_blocks", no_chain)
    with pytest.raises(ValueError, match=rf"^t_est_half_width must be a nonnegative "
                                         rf"integer, got {half_width}$"):
        th.simulate_trajectory(LinearWalkSpec(10, 0.7), 20, t_est_half_width=half_width)
    with pytest.raises(AssertionError, match="^the chain ran$"):  # the patch is the one called
        th.simulate_trajectory(LinearWalkSpec(10, 0.7), 20)


def test_temperature_estimate_signed_infinities():
    ent = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    energy = np.array([0.0, 1.0, -1.0, 2.0, 3.0, 3.0])
    got = th._temperature_estimate(energy, ent, 1)
    np.testing.assert_array_equal(got, _temperature_estimate_loop(energy, ent, 1))
    assert got[1] == -math.inf and got[4] == math.inf and math.isnan(got[5])


def test_temperature_estimate_spikes_at_entropy_peak():
    traj = th.simulate_trajectory(LinearWalkSpec(100, 2 / 3), 400)
    peak = int(np.argmax(traj.entropy))
    assert abs(traj.temperature_estimate[peak]) > 100.0


# ---------------------------------------------------------------- entropy production

@pytest.mark.parametrize("omega", [0.6, 2 / 3, 0.9])
def test_second_law(omega):
    spec = LinearWalkSpec(100, omega)
    traj = th.simulate_trajectory(spec, 3000)
    s_gen = traj.entropy_generated
    assert s_gen[0] == 0.0
    assert (s_gen >= -1e-10).all()
    assert (np.diff(s_gen) >= -1e-8).all()


def test_entropy_production_endpoint_closed_form():
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 3000)
    point = EnsemblePoint.from_omega(100, 2 / 3)
    expected = eq.entropy(point) - eq.mean_energy(point) / traj.equilibrium_temperature
    assert traj.entropy_generated[3000] == pytest.approx(expected, abs=1e-6)
    # which is just log Z: S_gen measures the total relative-entropy budget
    assert expected == pytest.approx(eq.log_partition_function(point), rel=1e-12)


def test_entropy_production_standalone_matches_record():
    spec = LinearWalkSpec(60, 0.8)
    traj = th.simulate_trajectory(spec, 500)
    np.testing.assert_array_equal(th.entropy_production(traj), traj.entropy_generated)


def test_entropy_production_infinite_temperature():
    # S - E/inf: the finite E >= 0 gives a zero heat term, so S_gen is S bit for bit
    for n in (2, 7, 40, 50):
        rng = np.random.default_rng(n)
        for p0 in (None, _localized(n, n - 1), rng.dirichlet(np.ones(n))):
            traj = th.simulate_trajectory(LinearWalkSpec(n, 0.5), 200, p0=p0)
            assert math.isinf(traj.equilibrium_temperature)
            assert traj.entropy_generated.tobytes() == traj.entropy.tobytes()
            assert traj.entropy_generated is not traj.entropy
            for t_eq in (None, math.inf, -math.inf):
                assert th.entropy_production(traj, t_eq).tobytes() == traj.entropy.tobytes()


# ---------------------------------------------------------------- error metrics

def test_error_metrics_degenerate_zero():
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 424)
    m = th.error_metrics(spec, traj, approx=lambda t: float(traj.entropy[t]))
    assert m.delta_max == 0.0
    assert m.delta_rel_max == 0.0
    assert m.mean_rel == 0.0
    assert m.delta_logn_max == 0.0
    assert m.mean_logn == 0.0


def test_error_metrics_requires_coverage():
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 100)
    with pytest.raises(ValueError) as exc:
        th.error_metrics(spec, traj)
    assert str(exc.value) == "trajectory covers 100 steps but the window ends at 423"
    # the window's last step is floor(t_end) = floor(423.47...): 422 steps fall
    # short, 423 cover it, and the metrics read exactly the steps 213..423
    with pytest.raises(ValueError, match="covers 422 steps but the window ends at 423"):
        th.error_metrics(spec, th.simulate_trajectory(spec, 422))
    seen = []
    th.error_metrics(spec, th.simulate_trajectory(spec, 423), approx=lambda t: seen.append(t) or 1.0)
    assert seen == list(range(213, 424))


def test_window_steps_is_one_lazy_range_checked_against_a_run():
    window = th.thermalization_window(100, 2 / 3)
    assert th._window_steps(window) == range(213, 424)
    assert th._window_steps(window, 423) == range(213, 424)
    with pytest.raises(ValueError) as exc:
        th._window_steps(window, -1)
    assert str(exc.value) == "steps must be nonnegative, got -1"
    with pytest.raises(ValueError) as exc:
        th._window_steps(window, 0)
    assert str(exc.value) == "trajectory covers 0 steps but the window ends at 423"
    # ~1e12 steps near omega = 1/2: a range, never an array of them
    far = th._window_steps(th.thermalization_window(100, 0.500001))
    assert isinstance(far, range) and len(far) > 10 ** 11


def test_error_metrics_regression_values():
    # frozen outputs of the default (tail-sum) and weighted-equilibrium
    # conventions at the two tabulated parameter points; guards numeric drift
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 424)
    m = th.error_metrics(spec, traj)
    assert m.delta_max == pytest.approx(0.6161, abs=2e-4)
    assert m.delta_rel_max == pytest.approx(0.4316, abs=2e-4)
    assert m.mean_rel == pytest.approx(0.1520, abs=2e-4)
    assert m.delta_logn_max == pytest.approx(0.1338, abs=2e-4)
    assert m.mean_logn == pytest.approx(0.0576, abs=2e-4)
    m2 = th.error_metrics(spec, traj, boltzmann="weighted-equilibrium")
    assert m2.delta_max == pytest.approx(0.1358, abs=2e-4)
    assert m2.delta_rel_max == pytest.approx(0.0725, abs=2e-4)
    assert m2.mean_rel == pytest.approx(0.0398, abs=2e-4)
    assert m2.delta_logn_max == pytest.approx(0.0295, abs=2e-4)
    assert m2.mean_logn == pytest.approx(0.0187, abs=2e-4)


@lru_cache(maxsize=4)
def _window_run(n):
    """Exact trajectory at omega = 2/3 up to the end of the thermalization window."""
    spec = LinearWalkSpec(n, 2 / 3)
    return spec, th.simulate_trajectory(spec, math.floor(th.thermalization_window(n, 2 / 3).t_end))


def _metrics_row(n, k_upper):
    spec, traj = _window_run(n)
    m = th.error_metrics(spec, traj, params=th.approx_entropy_params(n, 2 / 3, k_upper=k_upper))
    return m.delta_max, m.delta_rel_max, m.mean_rel, m.delta_logn_max, m.mean_logn


# delta_max, delta_rel_max, mean_rel, delta_logN_max, mean_logN (tail-sum,
# omega = 2/3) beyond the tabulated N = 100 and 500
PAPER_SCALE_ROWS = {
    (1_000, 4.0): (0.1028, 0.0696, 0.0139, 0.0149, 0.0049),
    (1_000, 2.0): (0.6221, 0.4211, 0.1356, 0.0901, 0.0419),
    (10_000, 4.0): (0.0979, 0.0645, 0.0106, 0.0106, 0.0030),
    (10_000, 2.0): (0.6258, 0.4124, 0.1269, 0.0679, 0.0338),
}


@pytest.mark.slow
@pytest.mark.parametrize("n,k_upper", sorted(PAPER_SCALE_ROWS))
def test_error_metrics_paper_scale_rows(n, k_upper):
    assert _metrics_row(n, k_upper) == pytest.approx(PAPER_SCALE_ROWS[n, k_upper], abs=2e-4)


@pytest.mark.slow
def test_log_n_error_falls_with_n():
    # the two-piece approximation gets relatively better as N grows
    errors = [_metrics_row(n, 4.0)[3] for n in (100, 500, 1_000, 10_000)]
    assert all(b < a for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------- dqc estimates

def test_dqc_paper_case():
    est = th.dqc_step_estimates(100, 2 / 3)
    assert est.n_steps == pytest.approx(300.0, rel=1e-14)
    assert round(est.n_start) == 213
    assert round(est.n_end) == 423


def test_dqc_fast_drift_case():
    est = th.dqc_step_estimates(100, 9 / 10)
    assert est.n_steps == pytest.approx(125.0, rel=1e-14)
    assert est.n_start == pytest.approx(100.0, abs=1e-9)
    assert est.n_end == pytest.approx(156.25, abs=1e-9)


def test_dqc_slow_drift_case():
    est = th.dqc_step_estimates(100, 0.51)
    assert est.n_steps == pytest.approx(5000.0, rel=1e-12)
    assert est.n_start < 5000 < est.n_end


def test_dqc_near_unit_drift_asymptotics():
    n = 10**4
    est = th.dqc_step_estimates(n, 0.999)
    assert est.n_steps == pytest.approx(n, rel=3e-3)
    # window collapses to O(sqrt(N)) around n_steps
    assert est.n_end - est.n_start < 5 * math.sqrt(n)


def test_dqc_rejects_nonpositive_drift():
    with pytest.raises(ValueError):
        th.dqc_step_estimates(100, 0.5)


@pytest.mark.parametrize("n, omega, n_steps, readout", [
    (100, 2 / 3, 300.0, 475), (500, 2 / 3, 1500.0, 1865), (200, 0.83, 303.03, 369),
    (1000, 2 / 3, 3000.0, 3505),
    pytest.param(10_000, 2 / 3, 30000.0, 31541, marks=pytest.mark.slow)])
def test_dqc_n_steps_is_before_the_readout_is_usable(n, omega, n_steps, readout):
    # n_steps is when the packet's centre arrives; the last-node mass comes
    # within 1e-3 of its steady value only after n_end
    spec = LinearWalkSpec(n, omega)
    pi = lin.steady_state(spec)
    last = pi[-1]
    first = next(k for k, p in enumerate(th.iter_distributions(spec, 10 * n))
                 if abs(p[-1] - last) <= 1e-3 * last)
    est = th.dqc_step_estimates(n, omega)
    assert est.n_start < est.n_steps < est.n_end < first
    assert est.n_steps == pytest.approx(n_steps, abs=0.01)
    assert first == readout
    # ... and no later than the chi^2 contraction bound allows: with
    # (p_k(N-1) - pi_(N-1))^2 / pi_(N-1) <= chi^2(p_k, pi) <= mu*^(2k) chi^2(delta_0, pi)
    # and chi^2(delta_0, pi) = 1/pi_0 - 1, the readout holds once
    # mu*^(2k) (1/pi_0 - 1) <= 1e-6 pi_(N-1).  pi_0 = (a - 1)/(a^N - 1) with
    # a = omega/(1 - omega) underflows at N = 1e4, so its log is taken in closed form
    mu = 2 * math.sqrt(omega * (1 - omega)) * math.cos(math.pi / n)
    a = omega / (1 - omega)
    log_pi0 = math.log(a - 1) - n * math.log(a) - math.log1p(-a ** -n)
    log_chi2 = math.log1p(-math.exp(log_pi0)) - log_pi0
    assert first <= math.ceil((log_chi2 - math.log(1e-6 * last)) / (-2 * math.log(mu)))


def test_dqc_estimates_refuse_disorder():
    for values in [(1.0, 3.0, 2.0), (2.0, 1.0, 3.0), (3.0, 2.0, 1.0)]:
        with pytest.raises(ValueError) as exc:
            th.DqcEstimates(*values)
        assert str(exc.value) == f"expected n_start <= n_steps <= n_end, got {values}"
    th.DqcEstimates(1.0, 1.0, 1.0)


# ---------------------------------------------------------------- refused inputs

@pytest.mark.parametrize("velocity", [1.0, -1.0, 1.5, math.nan])
def test_gaussian_profile_refuses_velocity_outside_the_interval(velocity):
    with pytest.raises(ValueError) as exc:
        th.GaussianProfile(velocity)
    assert str(exc.value) == f"velocity must lie in (-1, 1), got {velocity}"


def test_gaussian_profile_mean_and_std():
    profile = th.GaussianProfile.for_omega(0.7)
    assert profile.mean(10.0) == pytest.approx(4.0, rel=1e-15)
    assert profile.std(10.0) == math.sqrt(10.0)
    # the moments of the density it describes
    xs, dx = np.linspace(-60.0, 90.0, 30001, retstep=True)
    density = th.gaussian_probability(profile, xs, 10.0) * dx
    mean = (xs * density).sum()
    assert mean == pytest.approx(profile.mean(10.0), abs=1e-9)
    assert math.sqrt(((xs - mean) ** 2 * density).sum()) == pytest.approx(profile.std(10.0),
                                                                          rel=1e-9)


@pytest.mark.parametrize("t_start, t_end", [(5.0, 5.0), (6.0, 5.0), (-1.0, 5.0)])
def test_window_refuses_disorder(t_start, t_end):
    with pytest.raises(ValueError) as exc:
        th.ThermalizationWindow(t_start, t_end)
    assert str(exc.value) == f"need 0 <= t_start < t_end, got ({t_start}, {t_end})"


# ---------------------------------------------------------------- mismatched walks

_SPEC = LinearWalkSpec(100, 2 / 3)
_PAIRS = "(N, omega) = ({}, {}), not the spec's (100, 0.6666666666666666)"


@pytest.mark.parametrize("call", [
    lambda params: th.approx_entropy_components(_SPEC, 300.0, params=params),
    lambda params: th.approx_entropy(_SPEC, 300.0, params=params),
    lambda params: th.approx_entropy(_SPEC, np.arange(1, 400), params=params),
    lambda params: th.approx_probability(_SPEC, 300.0, [10.0, 99.0], params=params),
])
@pytest.mark.parametrize("n, omega", [(500, 0.6), (100, 0.6), (120, 2 / 3)])
def test_params_of_another_walk_are_refused(call, n, omega):
    with pytest.raises(ValueError) as exc:
        call(th.approx_entropy_params(n, omega))
    assert str(exc.value) == "params built for " + _PAIRS.format(n, omega)
    call(th.approx_entropy_params(100, 2 / 3))


@pytest.mark.parametrize("n, omega", [(120, 0.7), (100, 0.7), (101, 2 / 3)])
def test_trajectory_of_another_walk_is_refused(n, omega):
    trajectory = th.simulate_trajectory(LinearWalkSpec(n, omega), 600)
    with pytest.raises(ValueError) as exc:
        th.error_metrics(_SPEC, trajectory)
    assert str(exc.value) == "trajectory built for " + _PAIRS.format(n, omega)
    # epsilon does not enter the entropy series, so it is not compared
    th.error_metrics(_SPEC, th.simulate_trajectory(LinearWalkSpec(100, 2 / 3, 2.0), 600))
