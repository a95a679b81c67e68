"""Linear-walk construction, classical chain, and steady state."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from oqwalk import channel as ch
from oqwalk import linear as lin
from oqwalk import thermalization as th
from oqwalk.linear import LinearWalkSpec
from oqwalk.thermalization import thermalization_window

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE = np.diag([1.0, 1j]).astype(complex)


def e0(n):
    p = np.zeros(n)
    p[0] = 1.0
    return p


def brute_steady(n, omega):
    a = omega / (1.0 - omega)
    w = a ** np.arange(n)
    return w / w.sum()


# ---------------------------------------------------------------- spec

def test_spec_validation():
    with pytest.raises(ValueError):
        LinearWalkSpec(1, 0.5)
    with pytest.raises(ValueError):
        LinearWalkSpec(5, 0.0)
    with pytest.raises(ValueError):
        LinearWalkSpec(5, 1.0)
    with pytest.raises(ValueError):
        LinearWalkSpec(5, 0.5, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon must be finite, got inf"):
        LinearWalkSpec(10, 0.7, math.inf)
    with pytest.raises(ValueError, match="epsilon must be positive, got -inf"):
        LinearWalkSpec(10, 0.7, -math.inf)
    with pytest.raises(ValueError):
        LinearWalkSpec(3, 0.5, unitaries=(X,))  # needs N-1 = 2
    with pytest.raises(ValueError):
        LinearWalkSpec(2, 0.5, unitaries=(np.array([[1, 1], [0, 1]], dtype=complex),))
    spec = LinearWalkSpec(3, 0.5, unitaries=(X, H))
    assert spec.internal_dim == 2
    assert spec.lam == 0.5


# ---------------------------------------------------------------- channel build

def test_build_channel_n2_weights():
    chan = lin.build_channel(LinearWalkSpec(2, 2 / 3))
    assert set(chan.transitions) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    weights = {k: float(np.abs(op[0, 0])) for k, op in chan.transitions.items()}
    assert weights[(0, 0)] == pytest.approx(math.sqrt(1 / 3), rel=1e-15)
    assert weights[(0, 1)] == pytest.approx(math.sqrt(2 / 3), rel=1e-15)
    assert weights[(1, 0)] == pytest.approx(math.sqrt(1 / 3), rel=1e-15)
    assert weights[(1, 1)] == pytest.approx(math.sqrt(2 / 3), rel=1e-15)


def test_build_channel_n3_has_no_middle_self_loop():
    chan = lin.build_channel(LinearWalkSpec(3, 2 / 3))
    assert (1, 1) not in chan.transitions
    assert set(chan.transitions) == {(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)}


@pytest.mark.parametrize("omega", [0.1, 0.5, 2 / 3, 0.93])
@pytest.mark.parametrize("unitaries", [None, (X, H, PHASE, X)])
def test_built_channels_are_complete(omega, unitaries):
    spec = LinearWalkSpec(5, omega, unitaries=unitaries)
    report = ch.validate_channel(lin.build_channel(spec))
    assert report.ok
    assert max(report.defects.values()) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("d", [None, 1, 2, 6, ch._SUPEROP_MAX_DIM + 1])
def test_build_channel_keeps_the_mapping_constructors_arrays(n, d):
    # the mapping the channel was built from before it built its edge arrays;
    # the last d is the first on the matmul path
    rng = np.random.default_rng(n)
    unitaries = None
    if d is not None:
        g = rng.standard_normal((n - 1, d, d)) + 1j * rng.standard_normal((n - 1, d, d))
        unitaries = tuple(np.linalg.qr(g)[0])
    spec = LinearWalkSpec(n, 0.37, unitaries=unitaries)
    sw, sl, eye = math.sqrt(spec.omega), math.sqrt(spec.lam), np.eye(spec.internal_dim)
    transitions = {(0, 0): sl * eye, (n - 1, n - 1): sw * eye}
    for i in range(n - 1):
        transitions[(i, i + 1)] = sw * spec.unitary(i)
        transitions[(i + 1, i)] = sl * spec.unitary(i).conj().T
    built = lin.build_channel(spec)
    ref = ch.OqwChannel(n, spec.internal_dim, transitions)
    assert list(built.transitions) == list(ref.transitions)
    assert all(type(i) is int for key in built.transitions for i in key)
    matmul = d is not None and d > ch._SUPEROP_MAX_DIM
    assert (built.superop is None) == (ref.superop is None) == matmul
    assert (built._in_adj is None) == (ref._in_adj is None) == (not matmul)
    for name in ["src", "dst", "ops", "_in_src", "_in_op"] + (["_in_adj"] if matmul else ["superop"]):
        a, b = getattr(built, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert not a.flags.writeable
    for key, op in built.transitions.items():
        assert np.shares_memory(op, built.ops)
        assert op.tobytes() == ref.transitions[key].tobytes()
    assert dict(built.report.defects) == dict(ref.report.defects)


# ---------------------------------------------------------------- transition matrix

def test_transition_matrix_n3():
    t = lin.transition_matrix(LinearWalkSpec(3, 2 / 3))
    cols = [t[:, j] for j in range(3)]
    np.testing.assert_allclose(cols[0], [1 / 3, 2 / 3, 0], rtol=1e-15)
    np.testing.assert_allclose(cols[1], [1 / 3, 0, 2 / 3], rtol=1e-15)
    np.testing.assert_allclose(cols[2], [0, 1 / 3, 2 / 3], rtol=1e-15)


def test_transition_matrix_n2_half():
    t = lin.transition_matrix(LinearWalkSpec(2, 0.5))
    np.testing.assert_array_equal(t, np.full((2, 2), 0.5))


@pytest.mark.parametrize("omega", [0.07, 0.3, 0.5, 0.74, 0.99])
@pytest.mark.parametrize("n", [2, 3, 17])
def test_transition_matrix_columns_sum_exactly_to_one(n, omega):
    t = lin.transition_matrix(LinearWalkSpec(n, omega))
    assert (t.sum(axis=0) == 1.0).all()


# ---------------------------------------------------------------- evolution

def test_markov_evolve_zero_steps_identity():
    spec = LinearWalkSpec(4, 0.6)
    p0 = np.array([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_array_equal(lin.markov_evolve(spec, p0, 0), p0)


def test_every_chain_starts_from_positive_zeros():
    # -0.0 in a start is kept as +0.0, so no chain carries the sign of a zero:
    # a plain stencil loop from this start would keep 10, 9, 8, ... -0.0 entries
    spec = LinearWalkSpec(12, 0.6)
    p0 = np.r_[1.0, [-0.0] * 11]
    p = lin.markov_evolve(spec, p0, 0)
    assert p is not p0 and not np.signbit(p).any()
    np.testing.assert_array_equal(p, p0)
    assert np.signbit(p0[1:]).all()                 # the caller's array is left as it was
    for steps in (1, 2, 5):
        assert not np.signbit(lin.markov_evolve(spec, p0, steps)).any()
        assert not np.signbit(list(th.iter_distributions(spec, steps, p0))).any()


def test_markov_evolve_single_step():
    spec = LinearWalkSpec(3, 2 / 3)
    np.testing.assert_allclose(
        lin.markov_evolve(spec, e0(3), 1), [1 / 3, 2 / 3, 0], atol=1e-15)


def test_markov_evolve_converges_to_steady_state():
    spec = LinearWalkSpec(3, 2 / 3)
    # power-iteration oracle through the dense matrix
    t = lin.transition_matrix(spec)
    q = e0(3)
    for _ in range(500):
        q = t @ q
    np.testing.assert_allclose(q, [1 / 7, 2 / 7, 4 / 7], atol=1e-10)
    p = lin.markov_evolve(spec, e0(3), 500)
    assert np.abs(p - np.array([1 / 7, 2 / 7, 4 / 7])).sum() < 1e-8


def test_markov_evolve_matches_dense_matrix():
    spec = LinearWalkSpec(50, 0.61)
    rng = np.random.default_rng(7)
    p0 = rng.random(50)
    p0 /= p0.sum()
    t = lin.transition_matrix(spec)
    dense = p0.copy()
    for _ in range(20):
        dense = t @ dense
    np.testing.assert_allclose(lin.markov_evolve(spec, p0, 20), dense, atol=1e-13)


def test_markov_evolve_preserves_normalization():
    spec = LinearWalkSpec(200, 0.83)
    p = lin.markov_evolve(spec, e0(200), 1000)
    assert abs(p.sum() - 1.0) < 1e-12
    assert p.min() >= 0


def test_markov_evolve_input_checks():
    spec = LinearWalkSpec(4, 0.6)
    with pytest.raises(ValueError):
        lin.markov_evolve(spec, np.ones(3) / 3, 1)
    with pytest.raises(ValueError):
        lin.markov_evolve(spec, np.ones(4), 1)
    with pytest.raises(ValueError):
        lin.markov_evolve(spec, e0(4), -1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_check_rejects_non_finite(bad):
    # NaN passes both `min() < 0` and the sum check, so it is refused explicitly
    spec = LinearWalkSpec(4, 0.6)
    p0 = np.array([bad, 0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="non-finite"):
        lin.markov_evolve(spec, p0, 3)
    with pytest.raises(ValueError, match="non-finite"):
        th.simulate_trajectory(spec, 3, p0=p0)
    with pytest.raises(ValueError, match="non-finite"):
        th.iter_distributions(spec, 3, p0=p0)


def test_mirror_consistency_of_evolution():
    # evolving at omega from node 0 mirrors evolving at 1-omega from node N-1
    spec = LinearWalkSpec(12, 0.7)
    mirror = LinearWalkSpec(12, 0.3)
    start = np.zeros(12)
    start[-1] = 1.0
    p = lin.markov_evolve(spec, e0(12), 40)
    q = lin.markov_evolve(mirror, start, 40)
    np.testing.assert_allclose(p, q[::-1], atol=1e-14)


# ---------------------------------------------------------------- steady state

def test_steady_state_uniform_at_half():
    pi = lin.steady_state(LinearWalkSpec(30, 0.5))
    np.testing.assert_array_equal(pi, np.full(30, 1 / 30))


def test_steady_state_small_cases():
    np.testing.assert_allclose(
        lin.steady_state(LinearWalkSpec(3, 2 / 3)), [1 / 7, 2 / 7, 4 / 7], atol=1e-14)
    np.testing.assert_allclose(
        lin.steady_state(LinearWalkSpec(3, 1 / 3)), [4 / 7, 2 / 7, 1 / 7], atol=1e-14)


@pytest.mark.parametrize("omega", [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("n", [3, 50, 500])
def test_steady_state_is_fixed_point(n, omega):
    spec = LinearWalkSpec(n, omega)
    pi = lin.steady_state(spec)
    assert np.abs(lin.transition_matrix(spec) @ pi - pi).sum() <= 1e-12


@pytest.mark.parametrize("omega", [round(0.05 * k, 2) for k in range(1, 20)])
def test_steady_state_mirror_symmetry(omega):
    pi = lin.steady_state(LinearWalkSpec(64, omega))
    mirrored = lin.steady_state(LinearWalkSpec(64, 1.0 - omega))
    assert np.abs(pi - mirrored[::-1]).max() < 1e-12


def test_steady_state_log_domain_robustness():
    # a^N = 2^500 overflows doubles; the log-domain route must stay clean
    pi = lin.steady_state(LinearWalkSpec(500, 2 / 3))
    assert np.isfinite(pi).all()
    assert abs(pi.sum() - 1.0) < 1e-10
    for omega in (1e-6, 1 - 1e-6):
        big = lin.steady_state(LinearWalkSpec(10**6, omega))
        assert np.isfinite(big).all()
        assert abs(big.sum() - 1.0) < 1e-10


def test_steady_state_matches_brute_force():
    for n, omega in [(10, 0.35), (25, 0.8), (100, 0.55)]:
        np.testing.assert_allclose(
            lin.steady_state(LinearWalkSpec(n, omega)), brute_steady(n, omega), atol=1e-13)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 100_000),
       omega=st.floats(1e-6, 1 - 1e-6).filter(lambda omega: omega != 0.5))
@example(n=100_000, omega=2 / 3)
@example(n=100_000, omega=1e-6)
@example(n=100_000, omega=1 - 1e-6)
def test_steady_state_keeps_the_logsumexp_bits(n, omega):
    # the normalization is scipy's logsumexp, bit for bit, on the same exponents
    log_a = math.log(omega) - math.log1p(-omega)
    logs = (np.arange(n) - (n - 1 if log_a > 0 else 0)) * log_a
    np.testing.assert_array_equal(lin.steady_state(LinearWalkSpec(n, omega)),
                                  np.exp(logs - logsumexp(logs)))


# 1/2 (the uniform row), its two neighbouring doubles, and both ends of the
# documented range
EDGE_OMEGAS = [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1e-6, 1 - 1e-6]


def scalar_steady(n, omega):
    """One pi at a time, as steady_state computed it before steady_states."""
    if omega == 0.5:
        return np.full(n, 1.0 / n)
    log_a = math.log(omega) - math.log1p(-omega)
    anchor = n - 1 if log_a > 0 else 0
    logs = (np.arange(n) - anchor) * log_a
    rest = np.exp(logs)
    rest[anchor] = 0.0
    return np.exp(logs - np.log1p(rest.sum()))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 2500),   # K * N stays at most 20,000
       omegas=st.lists(st.sampled_from(EDGE_OMEGAS) | st.floats(1e-6, 1 - 1e-6),
                       min_size=1, max_size=8))
@example(n=4097, omegas=EDGE_OMEGAS)
def test_each_steady_states_row_is_the_one_omega_call(n, omegas):
    pis = lin.steady_states(n, omegas)
    assert pis.shape == (len(omegas), n)
    for omega, row in zip(omegas, pis):
        assert row.tobytes() == scalar_steady(n, omega).tobytes()
        assert row.tobytes() == lin.steady_state(LinearWalkSpec(n, omega)).tobytes()
    # a row depends on its omega only: reordered and repeated omegas give the same rows
    again = lin.steady_states(n, omegas[::-1] + omegas)
    assert again.tobytes() == np.concatenate([pis[::-1], pis]).tobytes()


def test_steady_states_checks_n_and_every_omega_in_order():
    with pytest.raises(ValueError, match=r"^n_nodes must be >= 2, got 1$"):
        lin.steady_states(1, [1.5])
    with pytest.raises(ValueError, match=r"^n_nodes must be an integer, got 12\.0$"):
        lin.steady_states(12.0, [0.5])
    for omegas, bad in (([0.3, 1.0, 1.5], "1.0"), ((0.2, 0.0), "0.0"),
                        (np.array([0.7, math.nan]), "nan")):
        message = rf"^omega must lie strictly inside \(0, 1\), got {bad}$"
        with pytest.raises(ValueError, match=message):
            lin.steady_states(10, omegas)
    assert lin.steady_states(10, []).shape == (0, 10)


# ---------------------------------------------------------------- boundary bound

def test_boundary_mass_bound_values():
    eta = lin.boundary_mass_bound(2 / 3)
    assert eta == pytest.approx(0.5, rel=1e-15)
    assert lin.steady_state(LinearWalkSpec(3, 2 / 3))[-1] >= eta - 1e-15

    eta9 = lin.boundary_mass_bound(0.9)
    assert eta9 == pytest.approx(8 / 9, rel=1e-14)
    assert lin.steady_state(LinearWalkSpec(100, 0.9))[-1] >= eta9 - 1e-14


def test_boundary_mass_bound_holds_for_any_n():
    for n in (2, 5, 20, 200, 2000):
        for omega in (0.55, 2 / 3, 0.9, 0.99):
            eta = lin.boundary_mass_bound(omega)
            assert lin.steady_state(LinearWalkSpec(n, omega))[-1] >= eta - 1e-12


def test_boundary_mass_bound_domain():
    with pytest.raises(ValueError):
        lin.boundary_mass_bound(0.5)
    with pytest.raises(ValueError):
        lin.boundary_mass_bound(0.3)
    assert lin.boundary_mass_bound(0.5 + 1e-7) == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------- internal blocks

def test_internal_state_identity_unitaries():
    spec = LinearWalkSpec(4, 0.6)
    psi = np.array([1.0])
    for m in range(4):
        np.testing.assert_allclose(
            lin.internal_state_at_node(spec, psi, m), [[1.0]], atol=1e-15)


def test_internal_state_basis_swap():
    spec = LinearWalkSpec(3, 0.6, unitaries=(X, H))
    got = lin.internal_state_at_node(spec, np.array([1.0, 0.0]), 1)
    np.testing.assert_allclose(got, [[0, 0], [0, 1]], atol=1e-15)


def test_internal_state_input_checks():
    spec = LinearWalkSpec(3, 0.6, unitaries=(X, H))
    with pytest.raises(ValueError):
        lin.internal_state_at_node(spec, np.array([1.0, 1.0]), 1)  # unnormalized
    with pytest.raises(ValueError):
        lin.internal_state_at_node(spec, np.array([1.0, 0.0]), 3)


def test_internal_state_matches_engine_blocks():
    # run the full engine and compare each trace-normalized block
    psi = np.array([0.6, 0.8j])
    spec = LinearWalkSpec(5, 0.7, unitaries=(X, H, PHASE, X @ H))
    chan = lin.build_channel(spec)
    state = ch.BlockState.localized(5, 0, psi)
    for _ in range(200):
        state = ch.step(chan, state)
    for node, block in state.blocks.items():
        tr = float(np.trace(block).real)
        if tr < 1e-14:
            continue
        predicted = lin.internal_state_at_node(spec, psi, node)
        np.testing.assert_allclose(block / tr, predicted, atol=1e-10)


# ---------------------------------------------------------------- stencil

def _markov_step_loop(p, omega):
    """The stencil site by site: the reference for markov_step."""
    lam = 1.0 - omega
    n = len(p)
    q = [lam * (p[0] + p[1])]
    q += [omega * p[i - 1] + lam * p[i + 1] for i in range(1, n - 1)]
    q.append(omega * (p[n - 2] + p[n - 1]))
    return np.array(q)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 60), omega=st.floats(0.01, 0.99), data=st.data())
def test_markov_step_range_matches_the_full_step(n, omega, data):
    p = np.random.default_rng(n).random(n)
    full = lin.markov_step(p, omega)
    np.testing.assert_array_equal(full, _markov_step_loop(p, omega))  # bit for bit
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    out = np.full(n, -7.0)
    assert lin.markov_step(p, omega, out, lo, hi) is out
    np.testing.assert_array_equal(out[lo:hi], full[lo:hi])
    assert (out[:lo] == -7.0).all() and (out[hi:] == -7.0).all()


# ---------------------------------------------------------------- convergence

@pytest.mark.parametrize("n,omega", [(50, 2 / 3), (100, 0.6), (200, 0.75)])
def test_l1_convergence_monotone_and_complete(n, omega):
    spec = LinearWalkSpec(n, omega)
    pi = lin.steady_state(spec)
    horizon = int(10 * thermalization_window(n, omega).t_end)
    p = e0(n)
    prev = np.abs(p - pi).sum()
    for _ in range(horizon):
        p = lin.markov_step(p, omega)
        dist = np.abs(p - pi).sum()
        assert dist <= prev + 1e-14
        prev = dist
    assert prev <= 1e-6


# ---------------------------------------------------------------- spec equality

@pytest.mark.parametrize("d", [1, 2])
def test_spec_equality_and_hash_by_value(d):
    u = np.eye(1, dtype=complex) if d == 1 else H
    spec = LinearWalkSpec(3, 0.7, unitaries=(u, u))
    same = LinearWalkSpec(3, 0.7, unitaries=(u.copy(), u.copy()))
    assert spec == same and not spec != same
    assert hash(spec) == hash(same)
    assert len({spec, same}) == 1
    others = [LinearWalkSpec(3, 0.7), LinearWalkSpec(3, 0.7, unitaries=(u, -u)),
              LinearWalkSpec(3, 0.6, unitaries=(u, u)),
              LinearWalkSpec(3, 0.7, 2.0, unitaries=(u, u))]
    for other in others:
        assert spec != other and other != spec
        hash(other)
    assert LinearWalkSpec(3, 0.7) == LinearWalkSpec(3, 0.7)
    assert spec != (3, 0.7)


def test_spec_refuses_a_unitary_of_another_shape():
    with pytest.raises(ValueError) as exc:
        LinearWalkSpec(3, 0.5, unitaries=(H, np.eye(3)))
    assert str(exc.value) == "unitary 1 has shape (3, 3), expected (2, 2)"


@pytest.mark.parametrize("unitaries, message", [
    ((1.0,), "unitary 0 has shape (), expected a square matrix"),
    ((np.ones(2),), "unitary 0 has shape (2,), expected a square matrix"),
    ((np.ones((2, 3)),), "unitary 0 has shape (2, 3), expected (2, 2)"),
    ((np.nan * np.eye(2),) * 2, "unitary 0 has non-finite entries"),
    ((X, np.array([[np.inf, 0], [0, 1]])), "unitary 1 has non-finite entries"),
])
def test_spec_refuses_non_finite_and_non_matrix_unitaries(unitaries, message):
    # NaN passed the unitarity check, and a 0-d operator raised IndexError
    with pytest.raises(ValueError) as exc:
        LinearWalkSpec(len(unitaries) + 1, 0.6, unitaries=unitaries)
    assert str(exc.value) == message


@pytest.mark.parametrize("unitaries, message", [
    ((X, 2 * H, np.nan * X, H), "operator 1 is not unitary"),
    ((X, np.nan * X, 2 * H, H), "unitary 1 has non-finite entries"),
    ((X, H, X, 1.5 * X), "operator 3 is not unitary"),
    ((X, H, np.diag([1.0, np.inf]), np.ones((3, 3))), "unitary 3 has shape (3, 3), expected (2, 2)"),
])
def test_spec_names_the_first_unitary_that_fails_a_check(unitaries, message):
    # the checks run on the stacked unitaries; the message names the first
    # failing unitary in index order, and its first failing check
    with pytest.raises(ValueError) as exc:
        LinearWalkSpec(len(unitaries) + 1, 0.6, unitaries=unitaries)
    assert str(exc.value) == message


def test_internal_state_refuses_psi_of_another_dimension():
    spec = LinearWalkSpec(3, 0.6, unitaries=(X, H))
    with pytest.raises(ValueError) as exc:
        lin.internal_state_at_node(spec, np.ones(3) / math.sqrt(3), 1)
    assert str(exc.value) == "psi has dim 3, expected 2"
