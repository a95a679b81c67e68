"""Generic channel engine: validation, stepping, marginals, coherence erasure."""

import dataclasses
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
from oqwalk import thermalization as th
from oqwalk.channel import BlockState, OqwChannel
from oqwalk.linear import LinearWalkSpec

from chain_reference import markov_rows

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
    # inf * 0 inside np.outer gave NaN and a RuntimeWarning before the refusal
    for psi in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError) as exc:
            BlockState.localized(3, 0, np.array(psi))
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
    with pytest.raises(ValueError, match="read-only"):
        state._coords[0] = 0.0
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


def check_superop(chan):
    """superop is the read-only einsum of ops at every d, and each entry is
    B_ij conj(B_lk) of np.kron(B, conj(B)) within two complex products' rounding."""
    d = chan.internal_dim
    sup = chan.superop
    einsum = np.einsum("eij,elk->eiljk", chan.ops, chan.ops.conj()).reshape(-1, d * d, d * d)
    assert sup.tobytes() == einsum.tobytes() and not sup.flags.writeable
    kron = np.stack([np.kron(b, b.conj()) for b in chan.ops])
    mag = np.stack([np.kron(abs(b), abs(b)) for b in chan.ops])
    assert (np.abs(sup - kron) <= 2 * math.sqrt(5) * U * mag).all()


def random_state(rng, n, d):
    occupied = rng.random(n) < 0.6
    occupied[rng.integers(n)] = True
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    blocks = {i: g[i] @ g[i].conj().T for i in np.flatnonzero(occupied)}
    total = sum(np.trace(b).real for b in blocks.values())
    return BlockState(n, {int(i): b / total for i, b in blocks.items()})


U = np.finfo(float).eps / 2
U_LONG = np.finfo(np.longdouble).eps / 2


def gamma(k, unit=U):
    """gamma_k = k u / (1 - k u), the bound on k roundings at unit roundoff u."""
    return k * unit / (1 - k * unit)


def edge_sum_reference(chan, rho):
    """S[j] = sum over the edges e into j of B_e rho[src] B_e^dagger, edge by edge
    in clongdouble, symmetrised as `step` does; and A[j] = sum_e |B_e| |rho[src]| |B_e|^T."""
    n, d = rho.shape[:2]
    s = np.zeros((n, d, d), dtype=np.clongdouble)
    a = np.zeros((n, d, d), dtype=np.longdouble)
    for i, j, b in zip(chan.src, chan.dst, chan.ops):
        b, x = b.astype(np.clongdouble), rho[i].astype(np.clongdouble)
        s[j] += b @ x @ b.conj().T
        a[j] += np.abs(b) @ np.abs(x) @ np.abs(b).T
    return 0.5 * (s + s.conj().swapaxes(1, 2)), a


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), d=st.integers(1, 6),
       steps=st.integers(1, 6))
@example(seed=0, n=7, d=ch._SUPEROP_MAX_DIM, steps=3)
@example(seed=1, n=7, d=ch._SUPEROP_MAX_DIM + 1, steps=3)
def test_step_matches_the_edge_sum_in_long_double(seed, n, d, steps):
    # Ragged channels (in-degrees 0-4, so padded slots), d = 1..6 on the
    # coordinate path and the examples on either side of the crossover.
    # Per element of node j, with m its in-degree and A, S from edge_sum_reference:
    # - coordinate path: each R entry is the real or imaginary part of one
    #   complex product or of a sum of two, within gamma_3 of its |B| |B| terms,
    #   and the node's fused sum is one real inner product of m d^2 nonzero
    #   terms (padded slots add exact zeros), gamma_{m d^2}.  As |a| + |b| <=
    #   sqrt(2) |X_jk| for a pair's two coordinates, the real and the imaginary
    #   part are each within sqrt(2) gamma_{m d^2 + 3} A: 2 gamma_{m d^2 + 3} A
    #   in modulus (gamma_{m + 2} A at d = 1, which has no pairs).  The start,
    #   built from blocks, holds their Hermitian part rounded once: u A more.
    #   All of it is within sqrt(2) gamma_{2 m d^2 + 3} A once m d^2 >= 4.
    # - matmul path: the blocks expand from the coordinates exactly; W = X B^dagger,
    #   inner length d, then [B_1 ... B_k] W, inner length m d, plus u A for the
    #   start's Hermitian part: within sqrt(2) gamma_{2 (m + 1) d + 1} A.  The
    #   Hermitian part of the result rounds once: u |S|, on an average of two errors.
    # - the reference itself, in long double (unit u'): two products of inner
    #   length d and m terms, sqrt(2) gamma'_{4d + m + 1} A, then u' |S|; A is
    #   computed in long double too, within gamma'_{2d + m + 3} relative.
    rng = np.random.default_rng(seed)
    chan = random_complete_channel(rng, n, d)
    clone = pickle.loads(pickle.dumps(chan))
    assert chan.report.ok

    def same_bits(a, b):
        return (np.array_equal(a, b) and np.array_equal(np.signbit(a.real), np.signbit(b.real))
                and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))

    # The report's defects: C_i^dagger C_i is a complex inner product of length
    # m_out d per element, sqrt(2) gamma_{2 m_out d} M with M = |C_i|^T |C_i|;
    # subtracting I and taking the modulus round twice more, 3 u |defect|.
    for c in (chan, OqwChannel(n, d, {k: 1.01 * b for k, b in chan.transitions.items()})):
        acc = np.zeros((n, d, d), dtype=np.clongdouble)
        mag = np.zeros((n, d, d), dtype=np.longdouble)
        for i, b in zip(c.src, c.ops):
            b = b.astype(np.clongdouble)
            acc[i] += b.conj().T @ b
            mag[i] += np.abs(b).T @ np.abs(b)
        ref = np.abs(acc - np.eye(d)).max(axis=(1, 2))
        m_out = np.bincount(c.src, minlength=n)
        tol = (math.sqrt(2) * (gamma(2 * m_out * d + 1) + gamma(2 * m_out * d + m_out + 1, U_LONG))
               * mag.max(axis=(1, 2)) + 3 * U * ref)
        got = np.array([c.report.defects[i] for i in range(n)], dtype=np.longdouble)
        assert list(c.report.defects) == list(range(n))
        assert (np.abs(got - ref) <= tol).all()

    m = np.bincount(chan.dst, minlength=n)[:, None, None]
    if d <= ch._SUPEROP_MAX_DIM:
        path = math.sqrt(2) * gamma(2 * m * d * d + 3)
    else:
        assert chan._in_adj is not None
        path = math.sqrt(2) * gamma(2 * (m + 1) * d + 1)
    check_superop(chan)
    state = random_state(rng, n, d)
    for _ in range(steps):
        ref, a = edge_sum_reference(chan, state.rho)
        new = ch.step(chan, state)
        bound = ((path * (1 + U) + math.sqrt(2) * gamma(4 * d + m + 1, U_LONG))
                 * a * (1 + gamma(2 * d + m + 3, U_LONG)) + (U + U_LONG) * np.abs(ref))
        err = np.abs(new.rho.astype(np.clongdouble) - ref)
        assert (err <= bound).all(), float((err / np.where(bound > 0, bound, 1)).max())
        assert np.array_equal(new.rho, new.rho.conj().swapaxes(1, 2))
        assert same_bits(ch.step(clone, state).rho, new.rho)
        state = new


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_position_marginal_sums_the_real_diagonal(d):
    # Bit-identical to the trace form np.trace(rho).real up to d = 3.  From
    # d = 4 numpy's complex reduction groups the interleaved real and imaginary
    # parts pairwise, so the two sums of the same d reals can differ by their
    # rounding, each within gamma_{d-1} sum |Re rho_ii|.  Up to d = 7 the
    # marginal is numpy's sum of the diagonal coordinates, bit for bit.
    rng = np.random.default_rng(40 + d)
    chan = random_complete_channel(rng, 8, d)
    for state in [random_state(rng, 8, d) for _ in range(20)]:
        for _ in range(3):
            trace_form = np.trace(state.rho, axis1=1, axis2=2).real
            got = ch.position_marginal(state)
            assert got.shape == (8,) and got.dtype == float
            if d <= 3:
                assert np.array_equal(got, trace_form)
            if d <= 7:
                assert got.tobytes() == state._coords[:, :d].sum(axis=1).tobytes()
            size = np.abs(np.diagonal(state.rho, axis1=1, axis2=2).real).sum(axis=1)
            assert (np.abs(got - trace_form) <= 2 * gamma(d - 1) * size).all()
            state = ch.step(chan, state)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), d=st.integers(1, 9),
       steps=st.integers(1, 4))
@example(seed=0, n=7, d=ch._SUPEROP_MAX_DIM, steps=2)
@example(seed=1, n=7, d=ch._SUPEROP_MAX_DIM + 1, steps=2)
def test_step_is_the_gather_and_product_written_out(seed, n, d, steps):
    # step's coordinates are, byte for byte, the gather through np.take and
    # the batched product(s) written out here; the marginal is numpy's sum of
    # the diagonal coordinates up to d = 7, signed zeros and subnormals included
    rng = np.random.default_rng(seed)
    chan = random_complete_channel(rng, n, d)
    state = random_state(rng, n, d)
    scale = rng.choice([1.0, 1e-310, 0.0, -0.0], size=(n, d * d))
    starts = [state, BlockState._trusted(rng.standard_normal((n, d * d)) * scale)]
    for state in starts:
        for _ in range(steps):
            c = state._coords
            if d <= ch._SUPEROP_MAX_DIM:
                x = np.take(c, chan._in_src, axis=0)
                expect = (chan._in_op @ x.reshape(n, -1, 1)).reshape(n, -1)
            else:
                x = np.take(ch._blocks(c), chan._in_src, axis=0)
                expect = ch._coords(chan._in_op @ (x @ chan._in_adj).reshape(n, -1, d))
            new = ch.step(chan, state)
            assert new._coords.tobytes() == expect.tobytes()
            for s in (state, new):
                marginal = ch.position_marginal(s)
                if d <= 7:
                    assert marginal.tobytes() == s._coords[:, :d].sum(axis=1).tobytes()
                else:
                    diagonal = s._coords[:, :d]
                    bound = gamma(d - 1) * np.abs(diagonal).sum(axis=1)
                    assert (np.abs(marginal - diagonal.sum(axis=1)) <= 2 * bound).all()
            state = new


@pytest.mark.parametrize("d", [1, 2, ch._SUPEROP_MAX_DIM + 1])
def test_position_marginal_is_a_new_writeable_array(d):
    rng = np.random.default_rng(d)
    chan = random_complete_channel(rng, 5, d)
    state = ch.step(chan, random_state(rng, 5, d))
    marginal = ch.position_marginal(state)
    assert marginal.flags.writeable and marginal.flags.owndata
    assert not np.shares_memory(marginal, state._coords)
    before = marginal.copy()
    marginal[:] = -1.0
    assert ch.position_marginal(state).tobytes() == before.tobytes()
    assert "rho" not in vars(state) and "blocks" not in vars(state)


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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
def test_step_is_accurate_against_exact_arithmetic(d):
    # Bound, per element, with u the unit roundoff and gamma_k = k u / (1 - k u).
    # A = sum over the m = 2 edges into the node of (|B| |rho[src]| |B|^T).
    # - The coordinate path (d <= 7) rounds each R entry, the real or imaginary
    #   part of one complex product or of a sum of two, by gamma_3 of its
    #   |B| |B| terms.  The node's m terms are then summed inside one real inner
    #   product of m d^2 entries, gamma_{m d^2}, on sum |R| |c| <= sqrt(2) A for
    #   the real and for the imaginary part: 2 gamma_{2 d^2 + 3} A in modulus.
    # - The matmul path (d = 8) expands the coordinates to blocks exactly, runs
    #   W = X B^dagger, an inner product of length d, then [B_1 ... B_m] W, one
    #   of length m d, which holds the edge sum: sqrt(2) (gamma_{2d} + gamma_{2 m d}) A.
    # The first step also reads the start's Hermitian part, rounded once: u A.
    # Both stay inside 3 gamma_{2 d^2 + m + 6} A for m = 2 and d <= 8, and the
    # slack covers the rounding of A itself and the second-order terms.  On the
    # matmul path the Hermitian part 0.5 (Y + Y^H) of the result averages two
    # such errors and rounds its sum once more: u |ref|.
    rng = np.random.default_rng(d)
    n, m = 4, 2
    unitaries = tuple(haar_unitaries(rng, n - 1, d))
    chan = lin.build_channel(LinearWalkSpec(n, 0.63, unitaries=unitaries))
    assert (chan._in_adj is None) == (d <= ch._SUPEROP_MAX_DIM)
    check_superop(chan)
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
        bound = 3 * gamma(2 * d * d + m + 6) * a + U * ref_abs
        assert (err <= bound).all(), float((err / bound).max())
        state = new


@pytest.mark.parametrize("d", [2, 5, 6, 7, 8])
def test_trace_drift_over_ten_thousand_steps(d):
    # the same 1e-12 per-step bound as test_trace_preserved_each_step, on the
    # coordinate path up to its largest d (7) and on the matmul path (8)
    rng = np.random.default_rng(10 + d)
    chan = lin.build_channel(LinearWalkSpec(5, 0.7, unitaries=tuple(haar_unitaries(rng, 4, d))))
    assert (chan._in_adj is None) == (d <= ch._SUPEROP_MAX_DIM)
    check_superop(chan)
    state = random_state(rng, 5, d)
    traces = [state.total_trace()]
    for _ in range(10_000):
        state = ch.step(chan, state)
        traces.append(state.total_trace())
    assert np.abs(np.diff(traces)).max() <= 1e-12


def engine_step_error(unitaries, d):
    """(rounding, eta) of one step of the linear walk's engine, as derived in
    test_engine_blocks_are_the_chain_times_the_transported_state.

    rounding bounds the step's rounding errors summed over every entry of every
    block, per unit trace norm of the state; eta is the largest
    ||U^dagger U - I||_2 of the unitaries, with the rounding of its own product.
    """
    eta = max(np.linalg.norm(u.conj().T @ u - np.eye(d), 2) for u in unitaries)
    eta += math.sqrt(2) * gamma(2 * d) * d
    if d <= ch._SUPEROP_MAX_DIM:
        c = math.sqrt(2) * (gamma(2) + gamma(4 * d * d))
    else:
        c = math.sqrt(2) * (gamma(2 * d) + gamma(4 * d))
    return (c + gamma(5)) * d * d + U * d, eta


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), d=st.integers(1, 8),
       omega=st.floats(0.05, 0.95), steps=st.integers(1, 300))
@example(seed=0, n=12, d=ch._SUPEROP_MAX_DIM, omega=0.63, steps=300)
@example(seed=1, n=12, d=8, omega=0.63, steps=300)
def test_engine_blocks_are_the_chain_times_the_transported_state(seed, n, d, omega, steps):
    # A right hop applies U_i and a left hop U_i^dagger, so from a pure start
    # psi at node 0 every block is p_n(m) phi_m phi_m^dagger, phi_m = U_{m-1}..U_0 psi.
    # Bound on sum_m max |rho_n[m] - p_n(m) Phi_m| (each max is at most that
    # block's trace norm), derived from the per-step bound, with m = 2 edges
    # into every node and eta the largest ||U^dagger U - I||_2 of the inputs:
    # - one step rounds node j's block by c A_j per element (c as in
    #   test_step_matches_the_edge_sum_in_long_double, with m = 2 and the
    #   coordinate path's 2 gamma_{2 d^2 + 3} within sqrt(2) (gamma_2 + gamma_{4 d^2});
    #   plus gamma_5 for rounding sqrt(w) U into B), and sum_ab A_j summed over
    #   j is at most d^2 ||rho||_1; the matmul path's Hermitian part adds
    #   u sum_ab |rho_ab| <= u d ||rho||_1;
    #   and with U^dagger U = I + eta, a left hop moves the transported state
    #   by at most 3 eta.  The map is CP with trace-norm gain (1 + u)(1 + eta)
    #   per step, so these add up over the n steps, on top of the start's
    #   rounding sqrt(2) gamma_2 d.
    # - the chain rows p_n (chain_reference) round by gamma_2 per step in L1;
    #   each |Phi_m| entry is at most ||P_m||^2 <= 2.
    # - internal_state_at_node forms Phi_m with m - 1 products of unitaries and
    #   two more with the rank-one psi psi^dagger, sqrt(2) gamma_{2d} d each in
    #   norm, and psi psi^dagger itself rounds by sqrt(2) gamma_2.
    # - forming p Phi and the difference round by u each.
    # The factor 2 covers every growth factor (1 + O(u + eta))^n and the state's
    # norm 1 + bound, while the bound stays below 1e-6, which is asserted too.
    rng = np.random.default_rng(seed)
    unitaries = haar_unitaries(rng, n - 1, d)
    psi = haar_unitaries(rng, 1, d)[0][:, 0]
    spec = LinearWalkSpec(n, omega, unitaries=tuple(unitaries))
    chan = lin.build_channel(spec)
    rounding, eta = engine_step_error(unitaries, d)
    per_step = rounding + 3 * eta + 2 * gamma(2)
    fixed = (math.sqrt(2) * gamma(2) * d + math.sqrt(2) * (2 * n * d * gamma(2 * d) + gamma(2))
             + 4 * U)
    phis = np.array([lin.internal_state_at_node(spec, psi, m) for m in range(n)])
    state = BlockState.localized(n, 0, psi)
    rows = markov_rows(spec, steps)
    next(rows)
    for k, p in enumerate(rows, start=1):
        state = ch.step(chan, state)
        bound = 2 * (k * per_step + fixed)
        assert bound < 1e-6
        err = np.abs(state.rho - p[:, None, None] * phis).max(axis=(1, 2)).sum()
        assert err <= bound, (k, err, bound)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_engine_entropy_is_the_chain_entropy_plus_the_start_entropy(d):
    # From a mixed sigma at node 0 every block is p_n(m) W_m sigma W_m^dagger,
    # W_m unitary, so the spectrum of rho_n is {p_n(m) s_j}, s that of sigma,
    # and S_vN(rho_n) = H(p_n) + S(sigma): the paper's Shannon entropy is the
    # quantum state's up to a constant, whatever the internal start.
    # Bound: the values that the three entropies read (the blocks' eigenvalues,
    # p_n and s) move from their exact values by at most `budget` in sum, and
    # x log x moves by at most its slope, 1 - log lo on [lo, 1], times that,
    # with lo the smallest value read less the budget.  The budget holds:
    # - the engine: a step's rounding, summed over every entry, is within
    #   `rounding` (engine_step_error), so within sqrt(d) times it in trace norm,
    #   and the unitaries' defect moves the state by 3 eta.  The exact map
    #   does not grow the trace norm, so these add up over the k steps, and the
    #   factor 2 covers every growth factor (1 + u)(1 + eta).  By Lidskii's
    #   inequality the spectra, and the traces p_n, then lie that close to
    #   {p_n(m) s_j} and p_n in l1.  This term dominates: after 200 steps the
    #   engine has moved a block's spectrum by about 20 u of p_n(m), eigvalsh
    #   by about 5 u.
    # - eigvalsh (LAPACK's heevd): the exact eigenvalues of A + E, with
    #   ||E||_2 of order d^2 u ||A||_2 from the Householder reduction, taken as
    #   gamma_{d^2} ||A||_F, for the d eigenvalues of each block and of sigma;
    # - position_marginal's sum of the d diagonal entries: gamma_{d-1} p_n(m).
    # Each entropy of K values rounds by gamma_{K+8} of itself, at most S_vN
    # (log within 4 ulp, a product and K - 1 additions), and sigma's trace t is 1 within
    # gamma_{d+1}, which moves the identity by |t log t| <= 2 |t - 1|.
    rng = np.random.default_rng(d)
    n, steps = 12, 200
    unitaries = haar_unitaries(rng, n - 1, d)
    chan = lin.build_channel(LinearWalkSpec(n, 0.7, unitaries=tuple(unitaries)))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sigma = g @ g.conj().T
    sigma = (sigma + sigma.conj().T) / (2 * np.trace(sigma).real)  # exactly Hermitian
    s = np.linalg.eigvalsh(sigma)
    rounding, eta = engine_step_error(unitaries, d)
    drift = 2 * (math.sqrt(d) * rounding + 3 * eta)
    state = BlockState(n, {0: sigma})
    for k in range(1, steps + 1):
        state = ch.step(chan, state)
        reached = state.rho.any(axis=(1, 2))  # the others are 0, in exact arithmetic too
        blocks = state.rho[reached]
        values = [np.linalg.eigvalsh(blocks).ravel(), ch.position_marginal(state)[reached], s]
        budget = (2 * k * drift + gamma(d - 1) * values[1].sum()
                  + d * gamma(d * d) * (np.linalg.norm(blocks, axis=(1, 2)).sum()
                                        + np.linalg.norm(sigma)))
        lo = min(v.min() for v in values) - budget
        assert lo > 0
        s_vn, h, s_sigma = (th.shannon_entropy(v) for v in values)
        bound = ((1 - math.log(lo)) * budget + 2 * gamma(d + 1)
                 + sum(gamma(len(v) + 8) for v in values) * s_vn)
        assert bound < 1e-6
        assert abs(s_vn - h - s_sigma) <= bound, (k, s_vn - h - s_sigma, bound)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), d=st.integers(1, 8),
       steps=st.integers(1, 4))
@example(seed=0, n=6, d=ch._SUPEROP_MAX_DIM, steps=2)
@example(seed=1, n=6, d=ch._SUPEROP_MAX_DIM + 1, steps=2)
def test_coordinates_round_trip_through_rho(seed, n, d, steps):
    # Any coordinates, signed zeros and subnormals included, give an exactly
    # Hermitian rho whose coordinates are the same bits.  So does every state
    # that step returns, and a pickled clone, rebuilt from blocks through the
    # checks, has the same coordinates and rho, bit for bit.
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, 1e-310, 0.0, -0.0], size=(n, d * d))
    for coords in (rng.standard_normal((n, d * d)) * scale, np.zeros((n, d * d))):
        rho = BlockState._trusted(coords.copy()).rho
        assert np.array_equal(rho, rho.conj().swapaxes(1, 2))
        assert ch._coords(rho).tobytes() == coords.tobytes()
    chan = random_complete_channel(rng, n, d)
    state = random_state(rng, n, d)
    for _ in range(steps):
        state = ch.step(chan, state)
        rho = state.rho
        assert np.array_equal(rho, rho.conj().swapaxes(1, 2))
        assert ch._coords(rho).tobytes() == state._coords.tobytes()
        clone = pickle.loads(pickle.dumps(state))
        assert clone._coords.tobytes() == state._coords.tobytes()
        assert clone.rho.tobytes() == rho.tobytes()


@pytest.mark.parametrize("d", [2, ch._SUPEROP_MAX_DIM + 1])
def test_step_leaves_rho_and_blocks_to_the_first_read(d):
    # step, position_marginal and total_trace work on the coordinates alone
    rng = np.random.default_rng(d)
    chan = lin.build_channel(LinearWalkSpec(5, 0.7, unitaries=tuple(haar_unitaries(rng, 4, d))))
    state = ch.step(chan, BlockState.localized(5, 0, haar_unitaries(rng, 1, d)[0][:, 0]))
    ch.step(chan, state)
    ch.position_marginal(state)
    state.total_trace()
    assert state.internal_dim == d
    assert "rho" not in vars(state) and "blocks" not in vars(state)
    rho = state.rho
    assert state.rho is rho and "blocks" not in vars(state)
    assert state.blocks is state.blocks


def test_channel_builds_transitions_and_defects_on_first_read():
    # both constructors leave the two mappings to their first read, which
    # gives the same keys, views and values as before
    mapping = dict(linear_channel(4, 0.8, unitaries=(H, X, H)).transitions)
    for chan in (linear_channel(4, 0.8, unitaries=(H, X, H)), OqwChannel(4, 2, mapping)):
        assert "transitions" not in vars(chan) and "defects" not in vars(chan.report)
        transitions = chan.transitions
        assert chan.transitions is transitions
        assert list(transitions) == list(zip(chan.src.tolist(), chan.dst.tolist()))
        for e, op in enumerate(transitions.values()):
            assert np.shares_memory(op, chan.ops) and op.tobytes() == chan.ops[e].tobytes()
        defects = chan.report.defects
        assert chan.report.defects is defects
        assert list(defects) == list(range(4)) and max(defects.values()) <= 1e-15
        assert all(type(v) is float for v in defects.values())


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


def _engine_objects():
    """One of each engine object, with the names of its lazy fields, none of them built yet."""
    chan, other = (linear_channel(4, 0.8, unitaries=(H, X, H)) for _ in range(2))
    return [(chan, ["transitions"]), (OqwChannel(4, 2, dict(other.transitions)), ["transitions"]),
            (chan.report, ["defects"]), (ch.ValidationReport(True, {0: 0.0}), []),
            (ch.step(chan, BlockState.localized(4, 0, np.array([0.8, 0.6]))), ["rho", "blocks"]),
            (BlockState.localized(4, 1), ["blocks"])]


def test_every_field_refuses_assignment_before_and_after_first_read():
    for obj, lazy in _engine_objects():
        names = [f.name for f in dataclasses.fields(obj)]
        for first_read in (False, True):
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, name)
            # a refused assignment neither builds a lazy field nor replaces it
            assert {name in vars(obj) for name in lazy} <= {first_read}, lazy
            if not first_read:
                values = [getattr(obj, name) for name in names]
        assert all(getattr(obj, name) is v for name, v in zip(names, values)), lazy


def test_report_equals_its_eager_copy():
    for chan in (linear_channel(4, 0.8, unitaries=(H, X, H)),
                 OqwChannel(3, 1, {(0, 0): np.eye(1), (1, 1): 2 * np.eye(1)})):
        report = chan.report
        assert "defects" not in vars(report)
        assert ch.ValidationReport(report.ok, dict(report.defects)) == report
        assert report == ch.ValidationReport(report.ok, dict(report.defects))
        assert ch.ValidationReport(not report.ok, dict(report.defects)) != report
    assert ch.ValidationReport(True) == ch.ValidationReport(True, {})


def test_report_hashes_by_value():
    # a frozen dataclass with value == hashed its fields, and a mapping proxy has no hash
    chan = linear_channel(4, 0.8, unitaries=(H, X, H))
    bad = OqwChannel(3, 1, {(0, 0): np.eye(1), (1, 1): 2 * np.eye(1)})
    reports = [chan.report, bad.report]
    copies = [ch.ValidationReport(r.ok, dict(r.defects)) for r in reports]
    clones = [pickle.loads(pickle.dumps(r)) for r in reports]
    for report, copy, clone in zip(reports, copies, clones):
        assert hash(report) == hash(copy) == hash(clone)
    assert len({*reports, *copies, *clones}) == 2
    assert {ch.ValidationReport(True), ch.ValidationReport(True, {})} == {ch.ValidationReport(True)}


@pytest.mark.parametrize("d", [2, 8])
def test_pickling_rebuilds_the_array_core_without_transitions(d):
    chan, other = (random_complete_channel(np.random.default_rng(d), 6, d) for _ in range(2))
    bad = OqwChannel(6, d, {**other.transitions, (0, 5): np.eye(d)})
    for c in (chan, bad):
        clone = pickle.loads(pickle.dumps(c))
        assert "transitions" not in vars(c) and "transitions" not in vars(clone)
        fields = ["src", "dst", "ops", "_in_src", "_in_op"] + (["_in_adj"] if d == 8 else [])
        assert (clone._in_adj is None) == (c._in_adj is None) == (d <= ch._SUPEROP_MAX_DIM)
        for name in fields:
            a, b = getattr(c, name), getattr(clone, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert not b.flags.writeable, name
        assert clone.report == c.report
    # the clone's report is recomputed, so an incomplete channel's clone still refuses step
    with pytest.raises(ch.ChannelCompletenessError, match=r"nodes \[0\]"):
        ch.step(pickle.loads(pickle.dumps(bad)), BlockState.localized(6, 0, np.eye(d)[0]))


@pytest.mark.parametrize("d", [1, 2, 8])
def test_state_pickles_its_rho_through_the_array_core(d):
    rng = np.random.default_rng(d)
    chan = random_complete_channel(rng, 6, d)
    built = random_state(rng, 6, d)
    skew = np.zeros((6, d, d), dtype=complex)
    skew[:, 0, -1] = 1e-14j  # within the Hermitian tolerance, kept as the state's rho
    skewed = BlockState(6, dict(enumerate(built.rho + skew)))
    for state in (built, skewed, ch.step(chan, built)):
        blob = pickle.dumps(state)
        clone = pickle.loads(blob)
        assert len(blob) < state.rho.nbytes + 1000
        assert "blocks" not in vars(state) and "blocks" not in vars(clone)
        assert clone.node_count == state.node_count
        assert clone.rho.tobytes() == state.rho.tobytes()
        assert clone._coords.tobytes() == state._coords.tobytes()
        assert not clone.rho.flags.writeable and not clone._coords.flags.writeable
    # a stepped state pickles the rho it would build without keeping it, in
    # the bytes it pickles once it has built it
    stepped = ch.step(chan, built)
    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    blobs = [pickle.dumps(stepped, protocol) for protocol in protocols]
    assert "rho" not in vars(stepped)
    assert stepped.rho.tobytes() == pickle.loads(blobs[-1]).rho.tobytes()
    assert [pickle.dumps(stepped, protocol) for protocol in protocols] == blobs
    # the pickle holds rho, which the clone checks as the mapping constructor does
    rebuild, (rho,) = built.__reduce__()
    assert rebuild(rho).rho.tobytes() == rho.tobytes()
    nan, asym, neg = rho.copy(), rho.copy(), np.zeros_like(rho)
    nan[1, 0, 0] = np.nan
    asym[1, 0, -1] += 1e-9j
    neg[0, 0, 0], neg[1, 0, 0] = 1.5, -0.5
    for bad, message in [(nan, "non-finite"), (asym, "not Hermitian"),
                         (neg, "not positive semidefinite"), (2 * rho, "traces sum to")]:
        with pytest.raises(ValueError, match=message):
            rebuild(bad)
        with pytest.raises(ValueError, match=message):
            BlockState(6, dict(enumerate(bad)))


def test_missing_attribute_probe_leaves_the_object_unchanged():
    for obj, lazy in _engine_objects():
        keys = list(vars(obj))
        assert getattr(obj, "size", None) is None, lazy
        assert not hasattr(obj, "nbytes")
        assert list(vars(obj)) == keys, lazy


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
