"""Generic channel engine: validation, stepping, marginals, coherence erasure."""

import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqwalk import channel as ch
from oqwalk import linear as lin
from oqwalk.channel import BlockState, OqwChannel
from oqwalk.linear import LinearWalkSpec

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
SHIFT3 = np.roll(np.eye(3, dtype=complex), 1, axis=0)
DFT3 = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / math.sqrt(3)


def linear_channel(n=3, omega=2 / 3, unitaries=None):
    return lin.build_channel(LinearWalkSpec(n, omega, unitaries=unitaries))


# ---------------------------------------------------------------- validation

def test_validate_linear_channel_ok():
    report = ch.validate_channel(linear_channel())
    assert report.ok
    assert report.offending_nodes() == {}


def test_validate_reports_scaled_transition():
    omega = 2 / 3
    chan = linear_channel(omega=omega)
    transitions = dict(chan.transitions)
    transitions[(0, 1)] = 1.01 * transitions[(0, 1)]
    bad = OqwChannel(3, 1, transitions)
    report = ch.validate_channel(bad)
    assert not report.ok
    assert set(report.offending_nodes()) == {0}
    assert report.defects[0] == pytest.approx(0.0201 * omega, abs=1e-12)


def test_wrong_dimension_is_structural_error():
    chan = linear_channel()
    transitions = dict(chan.transitions)
    transitions[(0, 1)] = np.eye(2, dtype=complex) * math.sqrt(2 / 3)
    with pytest.raises(ch.ChannelStructureError):
        OqwChannel(3, 1, transitions)


def test_structure_errors_distinct_from_completeness():
    with pytest.raises(ch.ChannelStructureError):
        OqwChannel(2, 1, {(0, 5): np.ones((1, 1))})
    with pytest.raises(ch.ChannelStructureError):
        OqwChannel(2, 1, {(0, 1): np.ones((1, 2))})


@pytest.mark.parametrize("key", [(0.5, 1), (1, 1.0), (np.float64(0.0), 1), (0,), (0, 1, 1),
                                 "01", 1])
def test_channel_refuses_non_integer_transition_keys(key):
    with pytest.raises(ch.ChannelStructureError, match=re.escape(repr(key))):
        OqwChannel(2, 1, {key: np.ones((1, 1))})


def test_channel_accepts_numpy_integer_keys():
    chan = OqwChannel(2, 1, {(np.int64(0), np.int32(1)): np.ones((1, 1)),
                             (np.intp(1), 1): np.ones((1, 1))})
    assert list(chan.transitions) == [(0, 1), (1, 1)]
    assert all(type(i) is int for key in chan.transitions for i in key)
    np.testing.assert_array_equal(chan.src, [0, 1])
    np.testing.assert_array_equal(chan.dst, [1, 1])


# ---------------------------------------------------------------- block states

@pytest.mark.parametrize("key", [1.7, 1.0, np.float64(1.0), "1", (1,)])
def test_block_state_refuses_non_integer_nodes(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        BlockState(3, {key: np.eye(1)})


def test_block_state_accepts_numpy_integer_nodes():
    state = BlockState(3, {np.int64(2): np.eye(1)})
    np.testing.assert_array_equal(ch.position_marginal(state), [0, 0, 1])


def test_block_state_validation():
    with pytest.raises(ValueError):
        BlockState(2, {0: np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)})  # not Hermitian
    with pytest.raises(ValueError):
        BlockState(2, {0: np.array([[1.5, 0], [0, -0.5]], dtype=complex)})  # not PSD
    with pytest.raises(ValueError):
        BlockState(2, {0: 0.7 * np.eye(2, dtype=complex)})  # trace 1.4
    # tiny negative eigenvalue within the roundoff floor is accepted
    eps = 5e-11
    BlockState(2, {0: np.diag([1.0 + eps, -eps]).astype(complex)})


def test_block_state_refuses_non_finite_entries():
    # NaN fails every comparison, so it passed the Hermitian, PSD and trace checks
    with pytest.raises(ValueError) as exc:
        BlockState.localized(3, 0, np.array([np.nan, 1.0]))
    assert str(exc.value) == "state block has non-finite entries"
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            BlockState(3, {0: 0.5 * np.eye(2), 2: bad})


def test_localized_state_marginal():
    state = BlockState.localized(5, 3)
    np.testing.assert_array_equal(ch.position_marginal(state), [0, 0, 0, 1, 0])


# ---------------------------------------------------------------- stepping

def test_single_step_from_origin():
    state = BlockState.localized(3, 0)
    out = ch.step(linear_channel(), state)
    np.testing.assert_allclose(ch.position_marginal(out), [1 / 3, 2 / 3, 0], atol=1e-15)


def test_step_refuses_incomplete_channel():
    chan = linear_channel()
    transitions = dict(chan.transitions)
    transitions[(0, 1)] = 1.01 * transitions[(0, 1)]
    bad = OqwChannel(3, 1, transitions)
    with pytest.raises(ch.ChannelCompletenessError, match="node"):
        ch.step(bad, BlockState.localized(3, 0))


def test_step_names_the_node_of_a_non_finite_operator():
    # a NaN defect passed `defect > STRUCTURAL_TOL`, so the message named no node
    transitions = dict(linear_channel().transitions)
    transitions[(1, 2)] = np.full((1, 1), np.nan)
    bad = OqwChannel(3, 1, transitions)
    assert not bad.report.ok
    assert list(bad.report.offending_nodes()) == [1]
    with pytest.raises(ch.ChannelCompletenessError) as exc:
        ch.step(bad, BlockState.localized(3, 0))
    assert str(exc.value) == "channel fails completeness at nodes [1]: 1: defect nan"


def test_long_run_reaches_steady_state():
    chan = linear_channel()
    state = BlockState.localized(3, 0)
    for _ in range(500):
        state = ch.step(chan, state)
    p = ch.position_marginal(state)
    assert np.abs(p - np.array([1 / 7, 2 / 7, 4 / 7])).sum() < 1e-8


def test_trace_preserved_each_step():
    psi = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
    chan = linear_channel(5, 0.7, unitaries=(X, H, X @ H, H @ X))
    state = BlockState.localized(5, 0, psi)
    for _ in range(200):
        new = ch.step(chan, state)
        assert abs(new.total_trace() - state.total_trace()) <= 1e-12
        state = new
    assert abs(state.total_trace() - 1.0) <= 1e-10


def test_output_blocks_stay_psd():
    chan = linear_channel(4, 0.8, unitaries=(H, X, H))
    state = BlockState.localized(4, 0, np.array([0.8, 0.6]))
    for _ in range(60):
        state = ch.step(chan, state)
        for block in state.blocks.values():
            assert np.linalg.eigvalsh(block).min() >= -1e-10


def test_purity_preserved_for_localized_pure_start():
    chan = linear_channel(5, 0.7, unitaries=(X, H, X, H))
    state = BlockState.localized(5, 0, np.array([0.6, 0.8]))
    for _ in range(50):
        state = ch.step(chan, state)
    for block in state.blocks.values():
        tr = float(np.trace(block).real)
        if tr < 1e-14:
            continue
        normalized = block / tr
        purity = float(np.trace(normalized @ normalized).real)
        assert purity == pytest.approx(1.0, abs=1e-10)


def test_engine_arrays_are_read_only():
    # read-only storage is what keeps the construction-time checks valid
    chan = linear_channel(4, 0.8, unitaries=(H, X, H))
    state = ch.step(chan, BlockState.localized(4, 0, np.array([0.8, 0.6])))
    with pytest.raises(ValueError, match="read-only"):
        chan.ops[0] = 0.0
    with pytest.raises(TypeError):
        chan.transitions[(0, 0)] = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        chan.transitions[(0, 0)][0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        chan.superop[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        state.rho[0] = 0.0
    with pytest.raises(TypeError):
        state.blocks[3] = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        state.blocks[1][0, 0] = 1.0
    # the stored completeness report is shared by every caller
    report = ch.validate_channel(chan)
    with pytest.raises(TypeError):
        report.defects[0] = 5.0
    assert ch.validate_channel(chan).offending_nodes() == {}
    assert pickle.loads(pickle.dumps(report)) == report
    # a pickled copy is rebuilt through the same checks, so it is read-only too
    clone = pickle.loads(pickle.dumps(state))
    np.testing.assert_array_equal(clone.rho, state.rho)
    assert not clone.rho.flags.writeable
    chan_clone = pickle.loads(pickle.dumps(chan))
    assert not chan_clone.ops.flags.writeable
    assert not chan_clone.superop.flags.writeable
    assert chan_clone.superop.tobytes() == chan.superop.tobytes()


@pytest.mark.parametrize("unitaries,psi", [(None, None), ((H, X), np.array([0.6, 0.8]))],
                         ids=["d1", "d2"])
def test_equality_is_identity_and_objects_hash(unitaries, psi):
    # dataclass equality compared the array mappings and raised for d >= 2
    chans = [linear_channel(3, 0.7, unitaries) for _ in range(2)]
    states = [BlockState.localized(3, 0, psi) for _ in range(2)]
    for a, b in (chans, states):
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, a, b}) == 2
    np.testing.assert_array_equal(states[0].rho, states[1].rho)
    np.testing.assert_array_equal(chans[0].ops, chans[1].ops)


def random_complete_channel(rng, n, d):
    """Ragged complete channel: in-degrees 0-4, node 0 never a target when n > 1.

    Each source gets one edge to a random target with room, then a few more;
    its operators are the d x d blocks of a random isometry, so that
    sum_j B[i,j]^dagger B[i,j] = I.  The edges are inserted in shuffled order.
    """
    targets = list(range(1, n)) or [0]
    indegree = dict.fromkeys(targets, 0)
    out = {i: [] for i in range(n)}
    for i in range(n):
        for extra in range(1 + rng.integers(0, 3)):
            room = [j for j in targets if indegree[j] < 4 and j not in out[i]]
            if not room or (extra and rng.random() < 0.3):
                break
            j = room[rng.integers(len(room))]
            out[i].append(j)
            indegree[j] += 1
    transitions = []
    for i, js in out.items():
        g = rng.standard_normal((len(js) * d, d)) + 1j * rng.standard_normal((len(js) * d, d))
        q = np.linalg.qr(g)[0].reshape(len(js), d, d)
        transitions += [((i, j), b) for j, b in zip(js, q)]
    order = rng.permutation(len(transitions))
    return OqwChannel(n, d, dict(transitions[k] for k in order))


def random_state(rng, n, d):
    occupied = rng.random(n) < 0.6
    occupied[rng.integers(n)] = True
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    blocks = {i: g[i] @ g[i].conj().T for i in np.flatnonzero(occupied)}
    total = sum(np.trace(b).real for b in blocks.values())
    return BlockState(n, {int(i): b / total for i, b in blocks.items()})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), d=st.integers(1, 6),
       steps=st.integers(1, 6))
@example(seed=0, n=7, d=ch._SUPEROP_MAX_DIM, steps=3)
@example(seed=1, n=7, d=ch._SUPEROP_MAX_DIM + 1, steps=3)
def test_step_keeps_the_complex_add_at_bits(seed, n, d, steps):
    # reference: the complex (E, d, d) scatter, edge by edge in index order, of
    # the terms of the path the channel steps through (d = 1..6 runs both)
    rng = np.random.default_rng(seed)
    chan = random_complete_channel(rng, n, d)
    clone = pickle.loads(pickle.dumps(chan))
    assert chan.report.ok

    def same_bits(a, b):
        return (np.array_equal(a, b) and np.array_equal(np.signbit(a.real), np.signbit(b.real))
                and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))

    for c in (chan, OqwChannel(n, d, {k: 1.01 * b for k, b in chan.transitions.items()})):
        acc = np.zeros((n, d, d), dtype=complex)
        np.add.at(acc, c.src, c.ops.conj().swapaxes(1, 2) @ c.ops)
        defects = np.abs(acc - np.eye(d)).max(axis=(1, 2))
        assert dict(c.report.defects) == dict(enumerate(defects.tolist()))

    state = random_state(rng, n, d)
    for _ in range(steps):
        blocks = state.rho[chan.src]
        if d <= ch._SUPEROP_MAX_DIM:
            terms = (chan.superop @ blocks.reshape(-1, d * d, 1)).reshape(-1, d, d)
        else:
            assert chan.superop is None
            terms = chan.ops @ blocks @ chan.ops.conj().swapaxes(1, 2)
        ref = np.zeros_like(state.rho)
        np.add.at(ref, chan.dst, terms)
        ref = 0.5 * (ref + ref.conj().swapaxes(1, 2))
        new = ch.step(chan, state)
        assert same_bits(new.rho, ref)
        assert same_bits(ch.step(clone, state).rho, ref)
        state = new


def haar_unitaries(rng, count, d):
    """Haar-random unitaries: QR of complex Ginibre matrices with the phases of R fixed."""
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def exact_step(chan, rho):
    """0.5 (S + S^dagger) with S[j] = sum_{i -> j} B rho[i] B^dagger, in exact rationals.

    Complex arrays are (real, imaginary) pairs of object arrays of Fractions,
    which hold every float input exactly.
    """
    exact = np.frompyfunc(Fraction, 1, 1)

    def mul(x, y):
        return x[0] @ y[0] - x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0]

    n, d = rho.shape[:2]
    s = [[np.full((d, d), Fraction(0), dtype=object) for _ in range(2)] for _ in range(n)]
    for i, j, b in zip(chan.src, chan.dst, chan.ops):
        b = exact(b.real), exact(b.imag)
        term = mul(mul(b, (exact(rho[i].real), exact(rho[i].imag))), (b[0].T, -b[1].T))
        s[j] = [s[j][0] + term[0], s[j][1] + term[1]]
    return [((re + re.T) / 2, (im - im.T) / 2) for re, im in s]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_step_is_accurate_against_exact_arithmetic(d):
    # Bound, per element, with u the unit roundoff and gamma_k = k u / (1 - k u).
    # A = sum over the m = 2 edges into the node of (|B| |rho[src]| |B|^T).
    # - The superoperator path (d <= 5) rounds each K entry, a complex product,
    #   by sqrt(2) gamma_2 relative.  Each term is then a complex inner product
    #   of d^2 entries: with real and imaginary parts summed as 2 d^2 real
    #   products, that adds at most sqrt(2) gamma_{2 d^2} A.
    # - The matmul path (d = 6) runs two such inner products of length d:
    #   2 sqrt(2) gamma_{2d} A.
    # - The scatter adds m terms per element, gamma_{m} relative.
    # Both paths stay inside 3 gamma_{2 d^2 + m + 6} A, where 3 > 2 sqrt(2)
    # also covers the rounding of A itself.  The symmetrisation 0.5 (S + S^H)
    # averages two such errors and rounds its sum once more: u |ref|.
    u = np.finfo(float).eps / 2
    gamma = lambda k: k * u / (1 - k * u)  # noqa: E731
    rng = np.random.default_rng(d)
    n, m = 4, 2
    unitaries = tuple(haar_unitaries(rng, n - 1, d))
    chan = lin.build_channel(LinearWalkSpec(n, 0.63, unitaries=unitaries))
    assert (chan.superop is None) == (d > ch._SUPEROP_MAX_DIM)
    state = random_state(rng, n, d)
    exact = np.frompyfunc(Fraction, 1, 1)
    for _ in range(3):
        ref = exact_step(chan, state.rho)
        a = np.zeros((n, d, d))
        for i, j, b in zip(chan.src, chan.dst, chan.ops):
            a[j] += np.abs(b) @ np.abs(state.rho[i]) @ np.abs(b).T
        new = ch.step(chan, state)
        err = np.array([np.hypot((exact(new.rho[j].real) - re).astype(float),
                                 (exact(new.rho[j].imag) - im).astype(float))
                        for j, (re, im) in enumerate(ref)])
        ref_abs = np.array([np.hypot(re.astype(float), im.astype(float)) for re, im in ref])
        bound = 3 * gamma(2 * d * d + m + 6) * a + u * ref_abs
        assert (err <= bound).all(), float((err / bound).max())
        state = new


@pytest.mark.parametrize("d", [2, 5, 6])
def test_trace_drift_over_ten_thousand_steps(d):
    # the same 1e-12 per-step bound as test_trace_preserved_each_step, on the
    # superoperator path at its smallest and largest d and on the matmul path
    rng = np.random.default_rng(10 + d)
    chan = lin.build_channel(LinearWalkSpec(5, 0.7, unitaries=tuple(haar_unitaries(rng, 4, d))))
    assert (chan.superop is None) == (d > ch._SUPEROP_MAX_DIM)
    state = random_state(rng, 5, d)
    traces = [state.total_trace()]
    for _ in range(10_000):
        state = ch.step(chan, state)
        traces.append(state.total_trace())
    assert np.abs(np.diff(traces)).max() <= 1e-12


def test_blocks_index_rho_on_first_read():
    # the mapping is indexed from the frozen rho, with the keys and views it had
    rng = np.random.default_rng(7)
    chans = [linear_channel(6, 0.7, unitaries=(X, H, X @ H, H, X)),
             random_complete_channel(rng, 7, 2)]
    states = [BlockState.localized(6, 0, np.array([0.6, 0.8])), random_state(rng, 7, 2)]
    for chan, state in zip(chans, states):
        for _ in range(4):
            state = ch.step(chan, state)
            expect = {int(i): state.rho[i] for i in np.flatnonzero(state.rho.any(axis=(1, 2)))}
            blocks = state.blocks
            assert list(dict(blocks)) == sorted(expect)
            assert len(blocks) == len(expect)
            assert list(blocks) == list(expect)
            for node, block in blocks.items():
                assert node in blocks
                np.testing.assert_array_equal(block, expect[node])
                assert np.shares_memory(block, state.rho)
                assert not block.flags.writeable
            assert state.node_count not in blocks
            assert state.blocks is blocks
            with pytest.raises(TypeError):
                blocks[0] = np.eye(2)
            with pytest.raises(TypeError):
                del blocks[next(iter(blocks))]
            clone = pickle.loads(pickle.dumps(state))
            assert list(clone.blocks) == list(blocks)
            for node in blocks:
                np.testing.assert_array_equal(clone.blocks[node], blocks[node])
                assert np.shares_memory(clone.blocks[node], clone.rho)


# ---------------------------------------------------------------- marginals

def test_position_marginal_sums_to_one():
    chan = linear_channel(6, 0.55)
    state = BlockState.localized(6, 2)
    for _ in range(37):
        state = ch.step(chan, state)
    p = ch.position_marginal(state)
    assert abs(p.sum() - 1.0) <= 1e-10
    assert (p >= -1e-12).all()


@pytest.mark.parametrize("n,steps,unitaries", [
    (2, 100, None),
    (5, 200, (X, H, X @ H, H)),
    (10, 200, (X, H) * 4 + (H,)),
    (20, 200, None),
    (50, 1000, None),
    (200, 200, (SHIFT3, DFT3) * 99 + (DFT3 @ SHIFT3,)),
])
def test_marginal_equals_classical_chain(n, steps, unitaries):
    # unitary-weighted Kraus families induce exactly the classical chain
    spec = LinearWalkSpec(n, 0.64, unitaries=unitaries)
    chan = lin.build_channel(spec)
    psi = {1: None, 2: np.array([0.6, 0.8j]), 3: np.array([0.6, 0.48j, 0.64])}[spec.internal_dim]
    state = BlockState.localized(n, 0, psi)
    p_classical = np.zeros(n)
    p_classical[0] = 1.0
    check_every = max(1, steps // 10)
    for k in range(1, steps + 1):
        state = ch.step(chan, state)
        p_classical = lin.markov_step(p_classical, spec.omega)
        if k % check_every == 0:
            p_engine = ch.position_marginal(state)
            assert np.abs(p_engine - p_classical).max() <= 1e-10


# ---------------------------------------------------------------- coherence erasure

def kron_walk_operator(b, source, target, n_nodes):
    """Full-space Kraus operator: internal block otimes |target><source|."""
    e = np.zeros((n_nodes, n_nodes), dtype=complex)
    e[target, source] = 1.0
    return np.kron(b, e)


def test_one_step_erases_graph_coherences():
    spec = LinearWalkSpec(2, 0.6, unitaries=(H,))
    chan = lin.build_channel(spec)
    dim, n = 2, 2

    # full density matrix on internal otimes graph with graph coherences
    rho00 = np.array([[0.3, 0.1], [0.1, 0.2]], dtype=complex)
    rho11 = np.array([[0.3, 0.0], [0.0, 0.2]], dtype=complex)
    rho01 = np.array([[0.05, 0.02j], [-0.01, 0.03]], dtype=complex)
    full = np.zeros((dim * n, dim * n), dtype=complex)
    graph = {}
    graph[(0, 0)], graph[(1, 1)] = rho00, rho11
    graph[(0, 1)], graph[(1, 0)] = rho01, rho01.conj().T
    for (i, j), blk in graph.items():
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        full += np.kron(blk, e)
    assert abs(np.trace(full) - 1.0) < 1e-12

    # brute-force Kraus sum over the full space
    out = np.zeros_like(full)
    for (i, j), b in chan.transitions.items():
        m = kron_walk_operator(b, i, j, n)
        out += m @ full @ m.conj().T

    # graph off-diagonal blocks vanish after a single application
    def graph_block(mat, i, j):
        return mat.reshape(dim, n, dim, n)[:, i, :, j]

    assert np.abs(graph_block(out, 0, 1)).max() < 1e-14
    assert np.abs(graph_block(out, 1, 0)).max() < 1e-14

    # and the diagonal blocks agree with the block-diagonal engine, which
    # never reads the coherences at all
    state = BlockState(n, {0: rho00, 1: rho11})
    stepped = ch.step(chan, state)
    for node in (0, 1):
        np.testing.assert_allclose(
            stepped.blocks[node], graph_block(out, node, node), atol=1e-14)


def test_zero_steps_is_identity():
    state = BlockState.localized(4, 1, np.array([0.6, 0.8]))
    # not stepping at all trivially preserves the state object
    np.testing.assert_array_equal(ch.position_marginal(state), [0, 1, 0, 0])


# ---------------------------------------------------------------- refused inputs

@pytest.mark.parametrize("node_count, internal_dim, name, value", [
    (0, 1, "node_count", 0), (-2, 1, "node_count", -2), (3, 0, "internal_dim", 0)])
def test_channel_refuses_empty_dimensions(node_count, internal_dim, name, value):
    with pytest.raises(ch.ChannelStructureError) as exc:
        OqwChannel(node_count, internal_dim, {})
    assert str(exc.value) == f"{name} must be >= 1, got {value}"


def test_block_state_refuses_no_blocks_and_nodes_out_of_range():
    with pytest.raises(ValueError) as exc:
        BlockState(3, {})
    assert str(exc.value) == "state needs at least one block"
    for node in (3, -1):
        with pytest.raises(ValueError) as exc:
            BlockState(3, {node: np.eye(1)})
        assert str(exc.value) == f"block node {node} outside 0..2"


@pytest.mark.parametrize("state", [BlockState.localized(4, 0),
                                   BlockState.localized(3, 0, np.array([0.6, 0.8]))])
def test_step_refuses_a_state_of_another_shape(state):
    channel = lin.build_channel(LinearWalkSpec(3, 0.7))
    with pytest.raises(ValueError) as exc:
        ch.step(channel, state)
    assert str(exc.value) == (f"state of shape {state.rho.shape} fed to channel on "
                              "3 nodes with internal dim 1")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_state_internal_dim(d):
    psi = np.zeros(d)
    psi[-1] = 1.0
    state = BlockState.localized(4, 2, psi)
    assert state.internal_dim == d
    assert ch.step(lin.build_channel(LinearWalkSpec(4, 0.7, unitaries=(np.eye(d),) * 3)),
                   state).internal_dim == d
