"""Generic channel engine: validation, stepping, marginals, coherence erasure."""

import math
import pickle

import numpy as np
import pytest

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


# ---------------------------------------------------------------- block states

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
        state.rho[0] = 0.0
    with pytest.raises(TypeError):
        state.blocks[3] = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        state.blocks[1][0, 0] = 1.0
    # a pickled copy is rebuilt through the same checks, so it is read-only too
    clone = pickle.loads(pickle.dumps(state))
    np.testing.assert_array_equal(clone.rho, state.rho)
    assert not clone.rho.flags.writeable
    assert not pickle.loads(pickle.dumps(chan)).ops.flags.writeable


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
