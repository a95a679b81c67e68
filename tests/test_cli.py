"""CLI harness: output formats, determinism, exit codes, config precedence."""

import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqwalk import equilibrium as eq
from oqwalk import linear as lin
from oqwalk import thermalization as th
from oqwalk import _numtext, cli
from oqwalk import _trajectory as tr
from oqwalk.cli import main
from oqwalk.equilibrium import EnsemblePoint
from oqwalk.linear import LinearWalkSpec

from chain_reference import markov_rows


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def column(rows, idx):
    return [r[idx] for r in rows]


# ---------------------------------------------------------------- steady-state

def test_steady_state_uniform(tmp_path):
    out = tmp_path / "pi.csv"
    assert main(["steady-state", "--n-nodes", "30", "--omega", "0.5",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["m", "pi"]
    assert len(rows) == 30
    assert all(r[1] == pytest.approx(1 / 30, rel=1e-15) for r in rows)


def test_steady_state_monotone_and_mirror(tmp_path):
    up, down = tmp_path / "up.csv", tmp_path / "down.csv"
    assert main(["steady-state", "--n-nodes", "30", "--omega", "0.6666666666666666",
                 "--out", str(up)]) == 0
    assert main(["steady-state", "--n-nodes", "30", "--omega", "0.3333333333333333",
                 "--out", str(down)]) == 0
    _, rows_up = read_csv(up)
    _, rows_down = read_csv(down)
    pi_up, pi_down = column(rows_up, 1), column(rows_down, 1)
    assert all(b > a for a, b in zip(pi_up, pi_up[1:]))  # positive exponential
    assert pi_down == pytest.approx(pi_up[::-1], rel=1e-10)
    assert sum(pi_up) == pytest.approx(1.0, abs=1e-10)


def test_steady_state_omega_range_long_format(tmp_path):
    out = tmp_path / "multi.csv"
    assert main(["steady-state", "--n-nodes", "5", "--omega", "0.3:0.7:0.2",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["omega", "m", "pi"]
    assert len(rows) == 15
    assert sorted(set(column(rows, 0))) == pytest.approx([0.3, 0.5, 0.7])


# ---------------------------------------------------------------- equilibrium

def test_equilibrium_sweep_columns_and_values(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["equilibrium", "--n-nodes", "500", "--omega", "0.05:0.95:0.05",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["omega", "beta", "T", "Z", "E", "varE", "S", "F", "Cv"]
    s_col = column(rows, 6)
    omegas = column(rows, 0)
    # entropy peaks exactly at omega = 1/2 with value log N
    imax = int(np.argmax(s_col))
    assert omegas[imax] == pytest.approx(0.5, abs=1e-12)
    assert s_col[imax] == pytest.approx(math.log(500), rel=1e-12)
    assert all(s <= s_col[imax] for s in s_col)


def test_equilibrium_energy_gap(tmp_path):
    lo, hi = tmp_path / "lo.csv", tmp_path / "hi.csv"
    assert main(["equilibrium", "--n-nodes", "100", "--omega", "0.000001", "--out", str(lo)]) == 0
    assert main(["equilibrium", "--n-nodes", "100", "--omega", "0.999999", "--out", str(hi)]) == 0
    _, rows_lo = read_csv(lo)
    _, rows_hi = read_csv(hi)
    assert rows_hi[0][4] - rows_lo[0][4] == pytest.approx(99.0, abs=1e-3)


def test_equilibrium_temperature_row(tmp_path):
    out = tmp_path / "row.csv"
    assert main(["equilibrium", "--n-nodes", "10", "--omega", "0.3333333333333333",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0][2] == pytest.approx(1.442695, abs=1e-5)


def test_equilibrium_divergence_sentinels(tmp_path):
    out = tmp_path / "inf.csv"
    assert main(["equilibrium", "--n-nodes", "10", "--omega", "0.5", "--out", str(out)]) == 0
    text = out.read_text()
    assert "inf" in text
    header, rows = read_csv(out)  # float('inf') / float('-inf') parse back
    assert rows[0][2] == math.inf
    assert rows[0][7] == -math.inf

    out_json = tmp_path / "inf.json"
    assert main(["equilibrium", "--n-nodes", "10", "--omega", "0.5",
                 "--format", "json", "--out", str(out_json)]) == 0
    records = json.loads(out_json.read_text())
    assert records[0]["T"] == "inf"
    assert records[0]["F"] == "-inf"
    assert records[0]["S"] == pytest.approx(math.log(10), rel=1e-12)


# ---------------------------------------------------------------- trajectory

def test_equilibrium_z_finite_below_the_largest_double(tmp_path):
    # log Z = 709.5: above the old 709.0 cut, below log(DBL_MAX) = 709.78
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--n-nodes", "2000", "--omega", "0.5876653604405353",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    z = rows[0][header.index("Z")]
    assert math.isfinite(z) and z > 1e308
    assert z == eq.partition_function(EnsemblePoint.from_omega(2000, 0.5876653604405353))


def test_equilibrium_rejects_one_node(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--n-nodes", "1", "--omega", "0.3:0.5:0.1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "oqwalk: error: n_nodes must be >= 2, got 1\n")
    assert not out.exists()


def test_trajectory_columns_and_second_law(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--n-nodes", "100", "--omega", "0.6666666666666666",
                 "--steps", "600", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n", "S", "E", "T_est", "S_gen"]
    assert len(rows) == 601
    s_gen = column(rows, 4)
    assert s_gen[0] == 0.0
    assert all(b >= a - 1e-8 for a, b in zip(s_gen, s_gen[1:]))
    # entropy decays after the window opens
    s = column(rows, 1)
    assert max(s) > s[-1]


@pytest.mark.parametrize("omega", ["0.3", "0.5", "0.7"])
def test_point_mass_start_writes_zero_entropy_without_a_sign(omega, capsys):
    # S(0) of the walker at node 0 is exactly 0, and so is S_gen(0) = S(0) - 0/T_eq
    argv = ["trajectory", "--n-nodes", "5", "--omega", omega, "--steps", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()[1].split(",")
    assert (first[1], first[4]) == ("0", "0")
    assert main(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    assert '"S": 0.0,' in text and '"S_gen": 0.0\n' in text and "-0.0" not in text


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the chain ran before the inputs were checked")


def _assert_chain_refused():
    """A valid table run reaches the patched _reduce_chain: the patch that a
    refusal test relies on is the one the CLI calls."""
    with pytest.raises(AssertionError, match="^the chain ran before"):
        main(["table", "--n-nodes", "100", "--omega", "0.7"])


@pytest.mark.parametrize("command", ["approx-entropy", "table"])
@pytest.mark.parametrize("omega", ["0.8536", "0.9", "0.99"])
def test_empty_boltzmann_tail_is_refused_naming_k_upper(command, omega, tmp_path, capsys,
                                                        monkeypatch):
    # at the default k_upper = 2, n_prime = N - 2 sigma_ss lies at or above the
    # last node from omega = (2 + sqrt 2)/4 on: the tail-sum S_a(t) would tend
    # to 0, not to S_eq, so the split is refused before any work
    monkeypatch.setattr(tr, "_reduce_chain", _refuse_to_run)
    out = tmp_path / "out.csv"
    assert main([command, "--n-nodes", "100", "--omega", omega, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oqwalk: error: the Boltzmann tail is empty")
    assert "k_upper" in captured.err
    assert not out.exists()
    _assert_chain_refused()


def test_trajectory_distribution_dump(tmp_path):
    out = tmp_path / "traj.csv"
    dump = tmp_path / "dist.csv"
    assert main(["trajectory", "--n-nodes", "8", "--omega", "0.7", "--steps", "5",
                 "--out", str(out), "--dump-distributions", str(dump)]) == 0
    header, rows = read_csv(dump)
    assert header == ["n", "m", "p"]
    assert len(rows) == 6 * 8
    by_step = {}
    for n, m, p in rows:
        by_step.setdefault(n, 0.0)
        by_step[n] += p
    assert all(total == pytest.approx(1.0, abs=1e-12) for total in by_step.values())


# ---------------------------------------------------------------- window / dqc

def test_window_values(tmp_path):
    out = tmp_path / "win.csv"
    assert main(["window", "--n-nodes", "100", "--omega", "0.6666666666666666",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n_nodes", "omega", "t_start", "t_end", "t_therm"]
    assert round(rows[0][2]) == 213
    assert round(rows[0][3]) == 423
    assert rows[0][4] == pytest.approx(rows[0][3] - rows[0][2], rel=1e-12)


def test_dqc_stdout_and_file(tmp_path, capsys):
    out = tmp_path / "dqc.csv"
    assert main(["dqc", "--n-nodes", "100", "--omega", "0.6666666666666666",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n_steps = 300.00" in text
    assert "n_start = 212.53" in text
    assert "n_end   = 423.47" in text
    header, rows = read_csv(out)
    assert header == ["n_nodes", "omega", "n_start", "n_steps", "n_end", "E_eq", "dE_domega"]
    assert rows[0][3] == pytest.approx(300.0, rel=1e-12)
    point = EnsemblePoint.from_omega(100, 2 / 3)
    assert rows[0][5] == pytest.approx(eq.mean_energy(point), rel=1e-12)
    assert rows[0][6] == pytest.approx(eq.energy_cost_domega(point), rel=1e-12)


def test_dqc_rejects_low_omega(capsys):
    assert main(["dqc", "--n-nodes", "100", "--omega", "0.4"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("omega", [0.4, 0.5])
def test_rightward_drift_rule_has_one_owner_and_one_message(omega, capsys):
    with pytest.raises(ValueError) as rule:
        eq._check_drift(omega)
    message = str(rule.value)
    assert "mirror map" in message
    refusals = [lambda: th.thermalization_window(100, omega),
                lambda: th.approx_entropy_params(100, omega),
                lambda: th.dqc_step_estimates(100, omega),
                lambda: lin.boundary_mass_bound(omega)]
    for refuse in refusals:
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value) == message
    for command in ("window", "dqc", "approx-entropy", "table"):
        assert main([command, "--n-nodes", "100", "--omega", str(omega)]) == 2
        assert capsys.readouterr() == ("", f"oqwalk: error: {message}\n")


def test_omega_of_one_is_refused_by_the_omega_rule():
    for refuse in (lambda: th.approx_entropy_params(100, 1.0),
                   lambda: lin.boundary_mass_bound(1.0),
                   lambda: th.thermalization_window(100, 1.0),
                   lambda: th.dqc_step_estimates(100, 1.0)):
        with pytest.raises(ValueError, match=r"^omega must lie strictly inside \(0, 1\)"):
            refuse()


# ---------------------------------------------------------------- approx-entropy / table

def test_approx_entropy_series(tmp_path):
    out = tmp_path / "sa.csv"
    assert main(["approx-entropy", "--n-nodes", "100", "--omega", "0.6666666666666666",
                 "--steps", "100", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "S_a", "S_G", "S_B", "w"]
    assert len(rows) == 100
    # early regime: pure Gaussian growth
    assert rows[49][1] == pytest.approx(th.entropy_gaussian_regime(50), abs=1e-6)
    ws = column(rows, 4)
    assert all(b >= a for a, b in zip(ws, ws[1:]))


def test_approx_entropy_bad_convention_writes_nothing(tmp_path, capsys):
    # the config file is the one way past argparse's choices
    config = tmp_path / "bad.cfg"
    config.write_text("boltzmann = bogus\n")
    out = tmp_path / "sa.csv"
    assert main(["approx-entropy", "--n-nodes", "100", "--omega", "0.7", "--steps", "10000",
                 "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("oqwalk: error: boltzmann must be tail-sum or "
                                       "weighted-equilibrium, got 'bogus'\n")
    assert not out.exists()


def test_table_refuses_a_bad_config_convention_before_the_chain(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tr, "_reduce_chain", _refuse_to_run)
    config = tmp_path / "bad.cfg"
    config.write_text("boltzmann = bogus\n")
    out = tmp_path / "metrics.csv"
    assert main(["table", "--n-nodes", "100", "--omega", "0.7", "--config", str(config),
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "oqwalk: error: boltzmann must be tail-sum or "
                                       "weighted-equilibrium, got 'bogus'\n")
    _assert_chain_refused()
    assert not out.exists()


def test_approx_entropy_memory_is_independent_of_steps(tmp_path):
    # 300k steps: the one-call series peaked at ~21 MB under tracemalloc
    tracemalloc.start()
    try:
        assert main(["approx-entropy", "--n-nodes", "100", "--omega", "0.7",
                     "--steps", "300000", "--out", str(tmp_path / "sa.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert (tmp_path / "sa.csv").read_text().count("\n") == 1 + 300000


@pytest.mark.parametrize("command", ["trajectory", "approx-entropy"])
def test_negative_steps_are_refused(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, "--n-nodes", "100", "--omega", "0.7", "--steps", "-5",
                 "--out", str(out)]) == 2
    assert "steps must be nonnegative, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trajectory", "approx-entropy", "table", "dqc"])
def test_single_omega_commands_refuse_a_range(command, capsys):
    steps = ["--steps", "10"] if command == "trajectory" else []
    assert main([command, "--n-nodes", "50", "--omega", "0.6:0.8:0.1"] + steps) == 2
    assert f"oqwalk: error: {command} takes a single omega" in capsys.readouterr().err


def test_table_matches_library(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert main(["table", "--n-nodes", "100", "--omega", "0.6666666666666666",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "delta_max" in stdout
    header, rows = read_csv(out)
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 423)
    report = th.error_metrics(spec, traj)
    assert rows[0][4] == pytest.approx(report.delta_max, rel=1e-12)
    assert rows[0][8] == pytest.approx(report.mean_logn, rel=1e-12)


def test_table_weighted_equilibrium_variant(tmp_path):
    out = tmp_path / "metrics.csv"
    assert main(["table", "--n-nodes", "100", "--omega", "0.6666666666666666",
                 "--boltzmann", "weighted-equilibrium", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    spec = LinearWalkSpec(100, 2 / 3)
    traj = th.simulate_trajectory(spec, 423)
    report = th.error_metrics(spec, traj, boltzmann="weighted-equilibrium")
    assert rows[0][4] == pytest.approx(report.delta_max, rel=1e-12)


# ---------------------------------------------------------------- plumbing

def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["equilibrium", "--n-nodes", "73", "--omega", "0.05:0.95:0.09"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip(tmp_path):
    out = tmp_path / "pi.json"
    assert main(["steady-state", "--n-nodes", "12", "--omega", "0.7",
                 "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 12
    assert sum(r["pi"] for r in records) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        [r["pi"] for r in records], lin.steady_state(LinearWalkSpec(12, 0.7)), rtol=1e-15)


def test_exit_code_validation(capsys):
    assert main(["steady-state", "--n-nodes", "30", "--omega", "1.2"]) == 2
    assert main(["steady-state", "--omega", "0.5"]) == 2  # missing --n-nodes
    assert main(["steady-state", "--n-nodes", "30", "--omega", "abc"]) == 2
    assert main(["window", "--n-nodes", "100", "--omega", "0.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["equilibrium", "steady-state"])
@pytest.mark.parametrize("omega", ["0.1:0.9:nan", "0.1:0.9:inf", "nan:0.9:0.1",
                                   "0.1:nan:0.1", "-inf:0.9:0.1", "0.1:inf:0.1"])
def test_non_finite_omega_range_is_rejected(command, omega, capsys):
    # each of these used to expand forever instead of failing
    assert main([command, "--n-nodes", "5", f"--omega={omega}"]) == 2
    assert f"bad omega range {omega!r}" in capsys.readouterr().err


@pytest.mark.parametrize("omega,count", [("0.1:0.9:1e-15", "about 8e+14"),
                                         ("0.1:0.9:5e-324", "about inf"),
                                         ("0.1:0.9:0.0000008", "1000001")])
def test_long_omega_range_is_refused(omega, count, capsys):
    # the first of these used to grow memory until it was killed
    assert main(["steady-state", "--n-nodes", "5", f"--omega={omega}"]) == 2
    err = capsys.readouterr().err
    assert f"omega range {omega!r} has {count} values, more than {cli._MAX_OMEGAS}" in err


def _omega_loop(start, stop, step):
    """The range expansion as a plain loop: the reference for _parse_omegas."""
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * step:
            break
        values.append(v)
        k += 1
    return values


@settings(max_examples=500, deadline=None)
@given(start=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0),
       step=st.floats(1e-5, 1.0), nudge=st.integers(-3, 3))
@example(start=0.0001, width=0.9998, step=0.00005, nudge=0)  # eq-sweep's 19997 points
@example(start=0.1, width=0.8, step=0.1, nudge=0)
def test_omega_range_matches_loop(start, width, step, nudge):
    # nudge != 0 puts stop a few ulp either side of the point where the last
    # value start + k*step meets stop + 1e-9*step, so rounding decides whether
    # that value is kept and the count estimated from the quotient can be off
    stop = start + width
    if nudge:
        stop = start + round(width / step) * step - 1e-9 * step
        for _ in range(abs(nudge)):
            stop = math.nextafter(stop, math.copysign(math.inf, nudge))
        if stop < start:
            return
    text = f"{start!r}:{stop!r}:{step!r}"
    expected = _omega_loop(start, stop, step)
    got = cli._parse_omegas(text)
    assert len(got) == len(expected)
    assert got == expected  # bit for bit
    assert all(type(v) is float for v in got)


@pytest.mark.parametrize("text,count", [
    ("0.6996:0.749369999999685:0.000315", 159),  # the quotient gives one value too few
    ("0.981:4.209119999923139:0.07686", 42),     # and here one too many
])
def test_omega_range_count_is_corrected_at_the_limit(text, count):
    start, stop, step = map(float, text.split(":"))
    assert int((stop + 1e-9 * step - start) / step + 1.0) != count
    assert cli._parse_omegas(text) == _omega_loop(start, stop, step)
    assert len(_omega_loop(start, stop, step)) == count


def _omega_count_loops(start, stop, step):
    """The range's length as the two count-adjusting loops found it, from the
    estimate (limit - start)/step + 1: the reference for the prefix cut."""
    limit = stop + 1e-9 * step
    count = int((limit - start) / step + 1.0)
    while count > 1 and start + (count - 1) * step > limit:
        count -= 1
    while start + count * step <= limit:
        count += 1
    return count


@settings(max_examples=300, deadline=None)
@given(start=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0),
       count=st.integers(1, 10 ** 6), stretch=st.floats(0.5, 2.0), nudge=st.integers(-3, 3))
@example(start=0.6996, width=0.749369999999685 - 0.6996, count=158, stretch=1.0, nudge=0)
@example(start=0.1, width=0.8, count=9, stretch=1.0, nudge=-1)
def test_omega_range_cut_matches_the_count_loops(start, width, count, stretch, nudge):
    # ranges of up to 1e6 values, with stop a few ulp off where a value meets
    # the limit; the prefix cut of one expansion gives the loops' count
    step = max(width, 1e-3) * stretch / count
    stop = start + width
    for _ in range(abs(nudge)):
        stop = math.nextafter(stop, math.copysign(math.inf, nudge))
    if not start <= stop:
        return
    expected = _omega_count_loops(start, stop, step)
    if expected > cli._MAX_OMEGAS:
        return
    got = cli._parse_omegas(f"{start!r}:{stop!r}:{step!r}")
    assert len(got) == expected
    assert got[-1] == start + (expected - 1) * step  # bit for bit


def test_exit_code_unknown_flag(capsys):
    assert main(["steady-state", "--no-such-flag", "1"]) == 2
    capsys.readouterr()


def test_exit_code_io_failure(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["steady-state", "--n-nodes", "5", "--omega", "0.5",
                 "--out", str(missing_dir)]) == 3
    assert "error" in capsys.readouterr().err


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep setup\n"
        "n-nodes = 30\n"
        "omega = 0.5\n"
        "format = csv\n"
    )
    out1 = tmp_path / "from_config.csv"
    assert main(["steady-state", "--config", str(cfg), "--out", str(out1)]) == 0
    _, rows = read_csv(out1)
    assert len(rows) == 30

    # explicit flag beats the config value
    out2 = tmp_path / "override.csv"
    assert main(["steady-state", "--config", str(cfg), "--n-nodes", "7",
                 "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    assert len(rows2) == 7


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["steady-state", "--config", str(cfg)]) == 2
    capsys.readouterr()


# Each subcommand takes exactly the flags that change its result: epsilon
# enters only the energies, which equilibrium, trajectory and dqc report.
_PLAIN = ["n-nodes", "omega", "format", "out", "config"]
_EPSILON = ["n-nodes", "omega", "epsilon", "format", "out", "config"]
SUBCOMMAND_FLAGS = {
    "steady-state": _PLAIN,
    "equilibrium": _EPSILON,
    "trajectory": ["n-nodes", "omega", "epsilon", "steps", "format", "out",
                   "dump-distributions", "config"],
    "window": _PLAIN,
    "approx-entropy": ["n-nodes", "omega", "steps", "format", "out", "boltzmann", "config"],
    "table": ["n-nodes", "omega", "format", "out", "boltzmann", "config"],
    "dqc": _EPSILON,
}
# per flag: the value under test, and another one for the precedence check
FLAG_VALUES = {
    "n-nodes": ("12", "9"), "omega": ("0.7", "0.8"), "epsilon": ("2.5", "1.5"),
    "steps": ("90", "80"), "format": ("json", "csv"), "out": ("o.txt", "p.txt"),
    "dump-distributions": ("d.txt", "e.txt"), "boltzmann": ("weighted-equilibrium", "tail-sum"),
}
# flags that change none of these subcommands' results, so they refuse them
REMOVED_FLAGS = ([(command, "jobs") for command in SUBCOMMAND_FLAGS]
                 + [(command, "epsilon") for command in ("steady-state", "window",
                                                         "approx-entropy", "table")]
                 + [("table", "steps")])


def test_each_subcommand_lists_its_flags_in_order(capsys):
    assert main(["--help"]) == 0
    assert f"{{{','.join(SUBCOMMAND_FLAGS)}}}" in capsys.readouterr().out
    for command, flags in SUBCOMMAND_FLAGS.items():
        assert main([command, "--help"]) == 0
        assert re.findall(r"^  --([\w-]+)", capsys.readouterr().out, re.M) == flags
    assert sum(map(len, SUBCOMMAND_FLAGS.values())) == 43


def _base_argv(command, skip):
    """The subcommand with its required flags, and --steps for trajectory, but `skip`."""
    needed = ["n-nodes", "omega"] + (["steps"] if command == "trajectory" else [])
    return [command] + [a for f in needed if f != skip for a in (f"--{f}", FLAG_VALUES[f][0])]


def _run(capsys, argv, config=None):
    """(exit code, stdout, stderr, written files) of one run in the working directory.

    The config text goes to run.cfg; every file is removed afterwards.
    """
    if config is not None:
        with open("run.cfg", "w") as fh:
            fh.write(config)
        argv = argv + ["--config", "run.cfg"]
    code = main(argv)
    captured = capsys.readouterr()
    files = {}
    for name in sorted(os.listdir()):
        with open(name, "rb") as fh:
            files[name] = fh.read()
        os.remove(name)
    files.pop("run.cfg", None)
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in SUBCOMMAND_FLAGS.items()
                                          for f in flags if f != "config"])
def test_config_line_matches_the_flag(command, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = _base_argv(command, flag)
    value, other = FLAG_VALUES[flag]
    from_flag = _run(capsys, base + [f"--{flag}", value])
    assert from_flag[0] == 0
    assert _run(capsys, base, f"{flag} = {value}\n") == from_flag
    # an explicit flag beats the config value for that flag
    assert _run(capsys, base + [f"--{flag}", value], f"{flag} = {other}\n") == from_flag


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in SUBCOMMAND_FLAGS.items()
                                          for f in FLAG_VALUES if f not in flags])
def test_config_key_of_another_subcommand_is_ignored(command, flag, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = _base_argv(command, None)
    plain = _run(capsys, base)
    assert plain[0] == 0
    assert _run(capsys, base, f"{flag} = {FLAG_VALUES[flag][0]}\n") == plain


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_removed_flag_is_an_unknown_argument(command, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err, files = _run(capsys, _base_argv(command, None) + [f"--{flag}", "3",
                                                                       "--out", "o.txt"])
    assert (code, out, files) == (2, "", {})
    assert err.endswith(f"oqwalk: error: unrecognized arguments: --{flag} 3\n")


@pytest.mark.parametrize("key", ["config", "handler", "parser", "command", "jobs"])
def test_config_refuses_keys_that_name_no_flag(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n-nodes = 5\n{key} = steady-state\n")
    assert main(["steady-state", "--omega", "0.5", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"oqwalk: error: {cfg}:2: unknown key {key!r}\n")


@pytest.mark.parametrize("argv", [["steady-state"], ["dqc", "--out", "dqc.csv"]])
def test_config_format_outside_choices_is_refused(argv, tmp_path, capsys, monkeypatch):
    # argparse checks --format's choices on the command line only
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("format = xml\n")
    assert main(argv + ["--n-nodes", "3", "--omega", "0.7", "--config", "run.cfg"]) == 2
    assert capsys.readouterr() == ("", "oqwalk: error: format must be csv or json, got 'xml'\n")
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_stdout_output(capsys):
    assert main(["steady-state", "--n-nodes", "3", "--omega", "0.5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "m,pi"
    assert len(lines) == 4


# ---------------------------------------------------------------- writer contract

def render_reference(fields, rows, fmt):
    """The output contract, written the slow obvious way: one value at a time."""
    def text(v):
        return str(v) if isinstance(v, int) else format(v, ".17g")

    if fmt == "csv":
        lines = [",".join(fields)] + [",".join(map(text, row)) for row in rows]
        return "".join(line + "\n" for line in lines)
    records = [{f: v if isinstance(v, int) or math.isfinite(v) else text(v)
                for f, v in zip(fields, row)} for row in rows]
    return json.dumps(records, indent=2) + "\n"


def as_rows(*columns):
    return [[v.item() if isinstance(v, np.generic) else v for v in row]
            for row in zip(*columns)]


def _steady_state_range(n_nodes, start, step, count):
    omegas = [start + k * step for k in range(count)]   # the CLI's start + k*step
    assert 0.5 in omegas                                 # the uniform row
    rows = [[omega, m, float(p)] for omega in omegas
            for m, p in enumerate(lin.steady_state(LinearWalkSpec(n_nodes, omega)))]
    return ["omega", "m", "pi"], rows


def _equilibrium(n_nodes, omegas):
    rows = []
    for omega in omegas:
        point = EnsemblePoint.from_omega(n_nodes, omega)
        tp = eq.thermo_point(point)
        rows.append([omega, point.beta, tp.T, tp.Z, tp.mean_E, tp.var_E, tp.S, tp.F, tp.C_V])
    return ["omega", "beta", "T", "Z", "E", "varE", "S", "F", "Cv"], rows


def _trajectory(n_nodes, omega, steps):
    traj = th.simulate_trajectory(LinearWalkSpec(n_nodes, omega), steps)
    return ["n", "S", "E", "T_est", "S_gen"], as_rows(
        range(steps + 1), traj.entropy, traj.energy,
        traj.temperature_estimate, traj.entropy_generated)


def _window(n_nodes, omegas):
    rows = []
    for omega in omegas:
        w = th.thermalization_window(n_nodes, omega)
        rows.append([n_nodes, omega, w.t_start, w.t_end, w.t_therm])
    return ["n_nodes", "omega", "t_start", "t_end", "t_therm"], rows


def _approx_entropy(n_nodes, omega, steps):
    spec = LinearWalkSpec(n_nodes, omega)
    params = th.approx_entropy_params(n_nodes, omega)
    parts = [th.approx_entropy_components(spec, t, params=params) for t in range(1, steps + 1)]
    return ["t", "S_a", "S_G", "S_B", "w"], [
        [t, c.total, c.gaussian, c.boltzmann, c.weight] for t, c in enumerate(parts, 1)]


def _table(n_nodes, omega):
    spec = LinearWalkSpec(n_nodes, omega)
    r = th.error_metrics(spec, th.simulate_trajectory(spec, math.floor(
        th.thermalization_window(n_nodes, omega).t_end)))
    return (["n_nodes", "omega", "t_start", "t_end", "delta_max", "delta_rel_max",
             "mean_rel", "delta_logn_max", "mean_logn"],
            [[r.n_nodes, r.omega, r.t_start, r.t_end, r.delta_max, r.delta_rel_max,
              r.mean_rel, r.delta_logn_max, r.mean_logn]])


def _dqc(n_nodes, omega):
    est = th.dqc_step_estimates(n_nodes, omega)
    point = EnsemblePoint.from_omega(n_nodes, omega)
    return (["n_nodes", "omega", "n_start", "n_steps", "n_end", "E_eq", "dE_domega"],
            [[n_nodes, omega, est.n_start, est.n_steps, est.n_end,
              eq.mean_energy(point), eq.energy_cost_domega(point)]])


OMEGA = 0.6666666666666666
WRITER_CASES = {
    "steady-state": (["steady-state", "--n-nodes", "30", "--omega", "0.7"],
                     lambda: (["m", "pi"], as_rows(
                         range(30), lin.steady_state(LinearWalkSpec(30, 0.7))))),
    "steady-state-range": (["steady-state", "--n-nodes", "7", "--omega", "0.1:0.9:0.2"],
                           lambda: _steady_state_range(7, 0.1, 0.2, 5)),
    # one block holds all 9 omegas at N = 100 and two omegas at N = 2000;
    # at N = 5000 each omega's rows span two blocks
    "steady-state-range-100": (["steady-state", "--n-nodes", "100", "--omega", "0.3:0.7:0.05"],
                               lambda: _steady_state_range(100, 0.3, 0.05, 9)),
    "steady-state-range-2000": (["steady-state", "--n-nodes", "2000", "--omega",
                                 "0.45:0.55:0.05"],
                                lambda: _steady_state_range(2000, 0.45, 0.05, 3)),
    "steady-state-range-5000": (["steady-state", "--n-nodes", "5000", "--omega",
                                 "0.48:0.52:0.02"],
                                lambda: _steady_state_range(5000, 0.48, 0.02, 3)),
    # omega = 0.5 gives beta = -0, T = inf and F = -inf
    "equilibrium-half": (["equilibrium", "--n-nodes", "10", "--omega", "0.5"],
                         lambda: _equilibrium(10, [0.5])),
    # 9999 rows: spans several formatting blocks
    "equilibrium-sweep": (["equilibrium", "--n-nodes", "500", "--omega", "0.0001:0.9999:0.0001"],
                          lambda: _equilibrium(500, [0.0001 + k * 0.0001 for k in range(9999)])),
    "trajectory": (["trajectory", "--n-nodes", "50", "--omega", "0.8", "--steps", "300"],
                   lambda: _trajectory(50, 0.8, 300)),
    "trajectory-inf": (["trajectory", "--n-nodes", "4", "--omega", "0.5", "--steps", "60"],
                       lambda: _trajectory(4, 0.5, 60)),
    "trajectory-nan": (["trajectory", "--n-nodes", "2", "--omega", "0.7", "--steps", "12"],
                       lambda: _trajectory(2, 0.7, 12)),
    "window": (["window", "--n-nodes", "100", "--omega", "0.55:0.95:0.1"],
               lambda: _window(100, [0.55 + k * 0.1 for k in range(5)])),
    "approx-entropy": (["approx-entropy", "--n-nodes", "100", "--omega", str(OMEGA),
                        "--steps", "200"], lambda: _approx_entropy(100, OMEGA, 200)),
    # 9000 rows: three blocks of t, the last one partial
    "approx-entropy-blocks": (["approx-entropy", "--n-nodes", "500", "--omega", str(OMEGA),
                               "--steps", "9000"], lambda: _approx_entropy(500, OMEGA, 9000)),
    "table": (["table", "--n-nodes", "100", "--omega", str(OMEGA)],
              lambda: _table(100, OMEGA)),
    "dqc": (["dqc", "--n-nodes", "100", "--omega", str(OMEGA)], lambda: _dqc(100, OMEGA)),
}


def _equilibrium_at(n_nodes, omegas, epsilon):
    rows = []
    for omega in omegas:
        point = EnsemblePoint.from_omega(n_nodes, omega, epsilon)
        tp = eq.thermo_point(point)
        rows.append([omega, point.beta, tp.T, tp.Z, tp.mean_E, tp.var_E, tp.S, tp.F, tp.C_V])
    return ["omega", "beta", "T", "Z", "E", "varE", "S", "F", "Cv"], rows


# Tables of at least 256 values per column, which the kernel formats in both
# styles: JSON's repr through scientific notation, subnormals, 0.0 and the
# quoted "inf"/"-inf".
WRITER_CASES.update({
    # pi falls through every decade to 13 subnormals and 2746 zeros
    "steady-state-scientific": (["steady-state", "--n-nodes", "3000", "--omega", "0.95"],
                                lambda: (["m", "pi"], as_rows(
                                    range(3000), lin.steady_state(LinearWalkSpec(3000, 0.95))))),
    # Z overflows to inf above omega ~ 0.59; T = inf and F = -inf at 0.5
    "equilibrium-overflow": (["equilibrium", "--n-nodes", "2000", "--omega", "0.3:0.7:0.001"],
                             lambda: _equilibrium(2000, [0.3 + k * 0.001 for k in range(401)])),
    "equilibrium-epsilon": (["equilibrium", "--n-nodes", "40", "--omega", "0.005:0.995:0.001",
                             "--epsilon", "2.5"],
                            lambda: _equilibrium_at(40, [0.005 + k * 0.001 for k in range(991)],
                                                    2.5)),
    # varE underflows to 0 while Cv stays finite
    "equilibrium-tiny-epsilon": (["equilibrium", "--n-nodes", "30", "--omega", "0.1:0.9:0.002",
                                  "--epsilon", "1e-300"],
                                 lambda: _equilibrium_at(30, [0.1 + k * 0.002 for k in range(401)],
                                                         1e-300)),
})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writer_bytes_match_reference(case, fmt, tmp_path, capsys):
    argv, build = WRITER_CASES[case]
    fields, rows = build()
    expected = render_reference(fields, rows, fmt)
    out = tmp_path / f"out.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
    if case not in ("table", "dqc"):        # these print a summary, not the table
        capsys.readouterr()
        assert main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == expected


def test_writer_reference_covers_the_sentinels():
    fields, rows = WRITER_CASES["equilibrium-half"][1]()
    assert "-0,inf" in render_reference(fields, rows, "csv")
    assert '"T": "inf"' in render_reference(fields, rows, "json")
    assert math.inf in column(WRITER_CASES["trajectory-inf"][1]()[1], 3)
    assert any(math.isnan(v) for v in column(WRITER_CASES["trajectory-nan"][1]()[1], 3))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_distribution_dump_is_bit_identical_to_trajectory(fmt, tmp_path):
    spec = LinearWalkSpec(40, 0.83)
    steps = 150
    dump = tmp_path / f"dump.{fmt}"
    assert main(["trajectory", "--n-nodes", "40", "--omega", "0.83", "--steps", str(steps),
                 "--format", fmt, "--out", str(tmp_path / "series"),
                 "--dump-distributions", str(dump)]) == 0
    if fmt == "csv":
        _, rows = read_csv(dump)
    else:
        rows = [[r["n"], r["m"], r["p"]] for r in json.loads(dump.read_text())]
    p = np.array(column(rows, 2)).reshape(steps + 1, 40)
    expected = th.simulate_trajectory(spec, steps, keep_distributions=True).distributions
    assert column(rows, 0) == np.repeat(np.arange(steps + 1), 40).tolist()
    assert column(rows, 1) == np.tile(np.arange(40), steps + 1).tolist()
    np.testing.assert_array_equal(p, expected)       # 17 digits round-trip exactly


# (N, omega, steps) of the --dump-distributions reference cases
DUMP_CASES = {
    "several-steps-per-block": (40, 0.83, 150),
    "step-spans-two-blocks": (5000, 0.7, 2),     # N > _BLOCK_ROWS
    "single-step": (3, 0.7, 0),
    "partial-last-block": (2, 0.7, 4100),        # 8202 rows: two full blocks and a partial
    "half": (7, 0.5, 50),
    "zeros-and-tails": (60, 0.9, 300),          # 0.0 ahead of the packet, tails to 4e-57
    "subnormal-tails": (300, 0.05, 260),        # 189 subnormal entries
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(DUMP_CASES))
def test_dump_bytes_match_reference(case, fmt, tmp_path):
    n_nodes, omega, steps = DUMP_CASES[case]
    rows = [[n, m, float(p[m])] for n, p in
            enumerate(markov_rows(LinearWalkSpec(n_nodes, omega), steps))
            for m in range(n_nodes)]
    dump = tmp_path / f"dump.{fmt}"
    assert main(["trajectory", "--n-nodes", str(n_nodes), "--omega", str(omega),
                 "--steps", str(steps), "--format", fmt, "--out", str(tmp_path / "series"),
                 "--dump-distributions", str(dump)]) == 0
    assert dump.read_bytes() == render_reference(["n", "m", "p"], rows, fmt).encode()


def grid_table(producer, n_nodes):
    """The (fields, chunks) of a grid table as its handler yields it, and its
    reference rows: a dump of 4 steps, or a steady-state range of 5 omegas."""
    if producer == "dump":
        argv = ["trajectory", "--omega", "0.7", "--steps", "4", "--dump-distributions", "d"]
        rows = [[n, m, float(p[m])] for n, p in
                enumerate(markov_rows(LinearWalkSpec(n_nodes, 0.7), 4)) for m in range(n_nodes)]
    else:
        argv = ["steady-state", "--omega", "0.1:0.9:0.2"]
        rows = [[omega, m, float(p)] for omega in cli._parse_omegas("0.1:0.9:0.2")
                for m, p in enumerate(lin.steady_state(LinearWalkSpec(n_nodes, omega)))]
    args = cli._build_parser().parse_args(argv + ["--n-nodes", str(n_nodes)])
    _, fields, chunks = list(cli._COMMANDS[args.command].handler(args))[-1]
    return fields, chunks, rows


# with 4-row blocks: two 2-node labels per block, one 3-node label per block,
# and a 9-node label in pieces of 4, 4 and 1 nodes
@pytest.mark.parametrize("n_nodes, most_rows", [(2, 4), (3, 3), (9, 4)])
@pytest.mark.parametrize("producer", ["dump", "omega-range"])
def test_dump_writes_at_most_block_rows_at_once(producer, n_nodes, most_rows, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    fields, chunks, rows = grid_table(producer, n_nodes)
    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    for fmt, row_end in (("csv", "\n"), ("json", "}")):
        writes, fh = [], Recorder()
        cli._write_table(fh, fields, chunks, fmt)
        assert fh.getvalue() == render_reference(fields, rows, fmt)
        body = writes[1:] if fmt == "csv" else writes[:-1]      # header / closing bracket
        assert max(text.count(row_end) for text in body) == most_rows
        if n_nodes <= 4:                                        # whole labels
            assert all(text.count(row_end) % n_nodes == 0 for text in body)


def test_dump_written_after_series_and_io_failure_exit(tmp_path, capsys):
    series = tmp_path / "series.csv"
    assert main(["trajectory", "--n-nodes", "20", "--omega", "0.7", "--steps", "10",
                 "--out", str(series),
                 "--dump-distributions", str(tmp_path / "no" / "dump.csv")]) == 3
    assert "cannot write" in capsys.readouterr().err
    _, rows = read_csv(series)
    assert len(rows) == 11


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308,
           1.7976931348623157e308, 0.1]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2 ** 62, 2 ** 62), finite_or_not, finite_or_not),
                     max_size=40),
       split=st.integers(0, 40))
@example(rows=[(k, v, -v) for k, v in enumerate(SPECIAL)], split=3)
@example(rows=[], split=0)
def test_row_formatter_matches_reference(rows, split):
    fields = ["k", "x", "y"]
    expected_rows = [list(r) for r in rows]
    columns = [np.array(c, dtype=dt) for c, dt in
               zip(zip(*rows) if rows else ([], [], []), (np.int64, float, float))]
    chunks = [tuple(c[:split] for c in columns), tuple(c[split:] for c in columns)]
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        cli._write_table(buf, fields, chunks, fmt)
        assert buf.getvalue() == render_reference(fields, expected_rows, fmt)


def test_dump_memory_is_independent_of_steps(tmp_path):
    # 5001 steps x 100 nodes = 500k rows; a (steps+1) x N array alone would be 4 MB
    tracemalloc.start()
    try:
        assert main(["trajectory", "--n-nodes", "100", "--omega", "0.7", "--steps", "5000",
                     "--out", str(tmp_path / "series.csv"),
                     "--dump-distributions", str(tmp_path / "dump.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert (tmp_path / "dump.csv").read_text().count("\n") == 1 + 5001 * 100


# Every subcommand once, on small inputs.
ALL_SUBCOMMANDS = [
    ["steady-state", "--n-nodes", "30", "--omega", "0.1:0.9:0.2"],
    ["equilibrium", "--n-nodes", "30", "--omega", "0.1:0.9:0.2"],
    ["trajectory", "--n-nodes", "30", "--omega", "0.7", "--steps", "50",
     "--dump-distributions", "dump.csv"],
    ["window", "--n-nodes", "30", "--omega", "0.6:0.9:0.1"],
    ["approx-entropy", "--n-nodes", "100", "--omega", "0.7"],
    ["table", "--n-nodes", "100", "--omega", "0.7"],
    ["dqc", "--n-nodes", "100", "--omega", "0.7"],
]


EPSILON_SUBCOMMANDS = [argv for argv in ALL_SUBCOMMANDS if "epsilon" in SUBCOMMAND_FLAGS[argv[0]]]


@pytest.mark.parametrize("argv", EPSILON_SUBCOMMANDS, ids=[a[0] for a in EPSILON_SUBCOMMANDS])
def test_infinite_epsilon_is_refused(argv, tmp_path, capsys, monkeypatch):
    # inf passed the positivity check and died in 1/beta with a traceback
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--epsilon", "inf", "--out", "out.csv"]) == 2
    assert capsys.readouterr() == ("", "oqwalk: error: epsilon must be finite, got inf\n")
    assert os.listdir(tmp_path) == []


TINY_EPSILON = [
    (["equilibrium", "--n-nodes", "3"], "beta must be finite, got -inf"),
    (["trajectory", "--n-nodes", "3", "--steps", "3"], "beta must be finite, got -inf"),
    (["dqc", "--n-nodes", "3"], "beta must be finite, got -inf"),
]


@pytest.mark.parametrize("argv, message", TINY_EPSILON, ids=[a[0] for a, _ in TINY_EPSILON])
def test_beta_overflowing_at_a_tiny_epsilon_is_refused_once(argv, message, tmp_path, capsys,
                                                            monkeypatch):
    # -log(omega/(1-omega))/epsilon overflows to -inf: one refusal, no
    # RuntimeWarning (the suite makes one an error), and no chain run
    monkeypatch.setattr(tr, "_reduce_chain", _refuse_to_run)
    monkeypatch.chdir(tmp_path)
    argv = argv + ["--omega", "0.7", "--epsilon", "1e-320", "--out", "out.csv"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"oqwalk: error: {message}\n")
    assert os.listdir(tmp_path) == []
    _assert_chain_refused()


# dqc takes omega > 1/2 only, so it has no beta = 0 case
@pytest.mark.parametrize("argv", [a for a, _ in TINY_EPSILON[:2]],
                         ids=["equilibrium", "trajectory"])
def test_tiny_epsilon_runs_at_omega_one_half(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--omega", "0.5", "--epsilon", "1e-320", "--out", "out.csv"]) == 0
    with open(tmp_path / "out.csv") as f:
        assert len(list(csv.reader(f))) > 1


def test_subcommands_run_without_scipy(tmp_path):
    # A None entry in sys.modules makes every `import scipy...` raise
    # ImportError, so a scipy import anywhere in the package, lazy or not, fails.
    assert {argv[0] for argv in ALL_SUBCOMMANDS} == {
        name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    script = f"""
import sys
sys.modules["scipy"] = None
from oqwalk.cli import main
for argv in {ALL_SUBCOMMANDS!r}:
    assert main(argv + ["--out", argv[0] + ".csv"]) == 0, argv
assert not any(name.startswith("scipy") for name in sys.modules if sys.modules[name])
"""
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*.csv"))) == len(ALL_SUBCOMMANDS) + 1


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_runs_as_a_script(capsys):
    # python -m oqwalk.cli goes through the __main__ guard and entrypoint
    env = _src_env()
    script = [sys.executable, "-m", "oqwalk.cli", "steady-state", "--n-nodes", "3"]
    done = subprocess.run(script + ["--omega", "0.5"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert main(["steady-state", "--n-nodes", "3", "--omega", "0.5"]) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    refused = subprocess.run(script + ["--omega", "1.5"], env=env, capture_output=True,
                             text=True, timeout=120)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr == "oqwalk: error: omega must lie strictly inside (0, 1), got 1.5\n"


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


HELP = [["--help"], ["table", "--help"]]


@pytest.mark.parametrize("argv", ALL_SUBCOMMANDS + HELP,
                         ids=[argv[0] for argv in ALL_SUBCOMMANDS] + ["help", "table-help"])
def test_unwritable_stdout_is_one_line_and_exit_3(argv, tmp_path, capsys, monkeypatch):
    # a table through _emit, table's and dqc's print lines and argparse's help
    # alike; this stdout has no descriptor to point at the null device
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(argv) == 3
    assert capsys.readouterr().err == ("oqwalk: error: cannot write stdout: "
                                       f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv, sink", [
    (["window", "--n-nodes", "10", "--omega", "0.7"], "/dev/full"),
    (["trajectory", "--n-nodes", "300", "--omega", "0.7", "--steps", "500"], "closed pipe"),
    *[(argv, sink) for argv in HELP for sink in ("/dev/full", "closed pipe")],
])
def test_unwritable_stdout_of_a_process_exits_3(argv, sink):
    # the process's own last flush of stdout, after main returns, must not
    # fail again ("Exception ignored ...") or change the exit code
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("no /dev/full on this system")
    if sink == "closed pipe":
        read, out = os.pipe()
        os.close(read)
        code = errno.EPIPE
    else:
        out = os.open(sink, os.O_WRONLY)
        code = errno.ENOSPC
    try:
        done = subprocess.run([sys.executable, "-m", "oqwalk.cli", *argv], env=_src_env(),
                              stdout=out, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(out)
    assert done.returncode == 3
    assert done.stderr == f"oqwalk: error: cannot write stdout: [Errno {code}] {os.strerror(code)}\n"


@pytest.mark.parametrize("argv, config, code, message", [
    (["steady-state", "--config", "missing.cfg"], None, 3,
     "cannot read config missing.cfg: [Errno 2] No such file or directory: 'missing.cfg'"),
    (["steady-state", "--config", "run.cfg"], "n-nodes = 3\nomega 0.5\n", 2,
     "run.cfg:2: expected `key = value`"),
    (["steady-state", "--omega", "0.5", "--config", "run.cfg"], "n-nodes = abc\n", 2,
     "run.cfg:1: bad value for n-nodes"),
    (["trajectory", "--n-nodes", "5", "--omega", "0.5", "--config", "run.cfg"],
     "# steps\nsteps = 2.5\n", 2, "run.cfg:2: bad value for steps"),
    (["equilibrium", "--n-nodes", "30", "--omega", "0.5:1.5:0.5"], None, 2,
     "omega must lie strictly inside (0, 1), got 1.0"),
    (["equilibrium", "--n-nodes", "30", "--omega", "0:0.5:0.25"], None, 2,
     "omega must lie strictly inside (0, 1), got 0.0"),
    (["equilibrium", "--n-nodes", "3", "--omega", "0.5", "--epsilon", "0"], None, 2,
     "epsilon must be positive, got 0.0"),
    (["trajectory", "--n-nodes", "100", "--omega", "0.7", "--steps", "10", "--epsilon", "0"],
     None, 2, "epsilon must be positive, got 0.0"),
    # main checks epsilon before the subcommand runs
    (["dqc", "--n-nodes", "100", "--omega", "0.7", "--epsilon", "nan"], None, 2,
     "epsilon must be positive, got nan"),
    # omega >= 1 passes the drift rule, and the omega rule refuses it
    (["window", "--n-nodes", "10", "--omega", "1.5"], None, 2,
     "omega must lie strictly inside (0, 1), got 1.5"),
    (["window", "--n-nodes", "10", "--omega", "1.0"], None, 2,
     "omega must lie strictly inside (0, 1), got 1.0"),
    (["window", "--n-nodes", "10", "--omega", "0.6:1.2:0.2"], None, 2,
     "omega must lie strictly inside (0, 1), got 1.0"),
    # a range has exactly three parts
    (["steady-state", "--n-nodes", "3", "--omega", "0.1:0.2"], None, 2,
     "cannot parse omega '0.1:0.2'"),
    (["steady-state", "--n-nodes", "3", "--omega", "0.1:0.2:0.3:0.4"], None, 2,
     "cannot parse omega '0.1:0.2:0.3:0.4'"),
])
def test_refused_invocation_prints_one_line_and_writes_nothing(argv, config, code, message,
                                                               tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    before = sorted(os.listdir(tmp_path))
    assert main(argv + ["--out", "out.csv"]) == code
    assert capsys.readouterr() == ("", f"oqwalk: error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv", [
    ["trajectory", "--n-nodes", "10", "--omega", "0.7", "--steps", "1000000000000"],
    ["table", "--n-nodes", "100", "--omega", "0.7"],
])
@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 21.8 TiB for an array with shape (3, 1000000000001) "
                "and data type float64"),
    MemoryError(),
], ids=["numpy", "bare"])
def test_run_too_large_for_memory_prints_one_line(argv, error, tmp_path, capsys, monkeypatch):
    # Whether numpy can allocate the series of a trajectory of ~1e12 steps
    # depends on the host's overcommit policy, so the allocation is made to
    # fail here instead.  table's chain stops at its window's last step.
    calls = []

    def reduce_chain(spec, steps, *args, **kwargs):
        calls.append(steps)
        raise error

    monkeypatch.setattr(tr, "_reduce_chain", reduce_chain)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out.csv"]) == 2
    window = th.thermalization_window(100, 0.7)
    assert calls == [10**12 if argv[0] == "trajectory" else math.floor(window.t_end)]
    detail = str(error) or "MemoryError"
    assert capsys.readouterr() == ("", f"oqwalk: error: not enough memory for this run: "
                                       f"{detail}\n")
    assert os.listdir(tmp_path) == []


# table at omega = 2/3: the window's steps, the five metrics as stdout prints
# them, and the --out row, as written before the table's chain stopped
# reducing rows outside its window
_TABLE_BYTES = {
    (100, "tail-sum"): (
        "213, 423", "0.616073 0.431591 0.151971 0.133778 0.057584",
        "100,0.66666666666666663,212.52962501251838,423.47037498748176,0.61607271685959031,"
        "0.4315910634160281,0.15197072241005552,0.13377849069163225,0.057584273217028248"),
    (100, "weighted-equilibrium"): (
        "213, 423", "0.135771 0.072523 0.039812 0.029482 0.018668",
        "100,0.66666666666666663,212.52962501251838,423.47037498748176,0.13577090693664395,"
        "0.07252347876042306,0.039812191990641878,0.029482277842792198,0.018667500077776102"),
    (500, "tail-sum"): (
        "1285, 1751", "0.620331 0.424038 0.139192 0.099818 0.045336",
        "500,0.66666666666666663,1284.9249048053396,1751.0750951946609,0.62033091140835517,"
        "0.42403765838565627,0.13919216274991106,0.099818186695609837,0.045336345690193069"),
    (500, "weighted-equilibrium"): (
        "1285, 1751", "0.203714 0.050388 0.031085 0.032780 0.015113",
        "500,0.66666666666666663,1284.9249048053396,1751.0750951946609,0.203714255824333,"
        "0.050388491203113069,0.031085131501308191,0.032779903832721717,0.015113129148696804"),
    (1000, "tail-sum"): (
        "2689, 3347", "0.622146 0.421092 0.135608 0.090065 0.041925",
        "1000,0.66666666666666663,2688.8738843543415,3347.1261156456608,0.62214616776361553,"
        "0.42109178425002053,0.13560818610399666,0.090064882532330998,0.041925365386612019"),
    (1000, "weighted-equilibrium"): (
        "2689, 3347", "0.227690 0.053533 0.030386 0.032961 0.014810",
        "1000,0.66666666666666663,2688.8738843543415,3347.1261156456608,0.22768985650351947,"
        "0.05353284250281299,0.030386489757573885,0.032961482754940583,0.014809760461032613"),
    (10_000, "tail-sum"): (
        "28979, 31057", "0.625799 0.412433 0.126856 0.067945 0.033797",
        "10000,0.66666666666666663,28978.613642575594,31057.386357424428,0.62579933104649221,"
        "0.41243319231489917,0.12685593551812718,0.067945299063059475,0.033796699549200122"),
    (10_000, "weighted-equilibrium"): (
        "28979, 31057", "0.287070 0.057916 0.030410 0.031168 0.014021",
        "10000,0.66666666666666663,28978.613642575594,31057.386357424428,0.28707020917435777,"
        "0.057915629293340466,0.03041002515846012,0.031168251940808956,0.014021059181500818"),
}


@pytest.mark.parametrize("n, boltzmann", [
    pytest.param(n, b, marks=[pytest.mark.slow] if n == 10_000 else [])
    for n, b in _TABLE_BYTES])
def test_table_bytes_are_the_reference(n, boltzmann, tmp_path, capsys):
    steps, printed, row = _TABLE_BYTES[n, boltzmann]
    out = tmp_path / "metrics.csv"
    assert main(["table", "--n-nodes", str(n), "--omega", "0.6666666666666666",
                 "--boltzmann", boltzmann, "--out", str(out)]) == 0
    labels = ["delta_max", "delta_rel_max", "mean_rel", "delta_logN_max", "mean_logN"]
    assert capsys.readouterr().out == (
        f"error metrics for N={n}, omega=0.66666666666666663 over steps [{steps}]:\n"
        + "".join(f"  {label:<15} {value}\n" for label, value in zip(labels, printed.split())))
    assert out.read_bytes() == ("n_nodes,omega,t_start,t_end,delta_max,delta_rel_max,"
                                f"mean_rel,delta_logn_max,mean_logn\n{row}\n").encode()


# ---------------------------------------------------------------- CSV number kernel

_REFERENCE_ROWS = {}


def test_table_refuses_a_void_split_before_its_chain(tmp_path, capsys, monkeypatch):
    # at omega = 0.500001 the window ends near 4/v^2 ~ 1e12 steps, and the split
    # n_prime = N - 2 sigma_ss lies far below 0: it is refused before the chain
    monkeypatch.setattr(tr, "_reduce_chain", _refuse_to_run)
    monkeypatch.chdir(tmp_path)
    assert main(["table", "--n-nodes", "100", "--omega", "0.500001", "--out", "out.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("oqwalk: error: n_prime = -4")
    assert "outside (0, 100)" in err
    assert os.listdir(tmp_path) == []
    _assert_chain_refused()


def reference_rows(kind, case):
    """The (fields, rows) of a WRITER_CASES or DUMP_CASES case, built once."""
    if (kind, case) not in _REFERENCE_ROWS:
        if kind == "writer":
            _REFERENCE_ROWS[kind, case] = WRITER_CASES[case][1]()
        else:
            n_nodes, omega, steps = DUMP_CASES[case]
            spec = LinearWalkSpec(n_nodes, omega)
            _REFERENCE_ROWS[kind, case] = (["n", "m", "p"], [
                [n, m, float(p[m])] for n, p in enumerate(markov_rows(spec, steps))
                for m in range(n_nodes)])
    return _REFERENCE_ROWS[kind, case]


def table_output(kind, case, tmp_path, fmt="csv"):
    out = tmp_path / f"out.{fmt}"
    if kind == "writer":
        assert main(WRITER_CASES[case][0] + ["--format", fmt, "--out", str(out)]) == 0
    else:
        n_nodes, omega, steps = DUMP_CASES[case]
        assert main(["trajectory", "--n-nodes", str(n_nodes), "--omega", str(omega),
                     "--steps", str(steps), "--format", fmt,
                     "--out", str(tmp_path / f"series.{fmt}"),
                     "--dump-distributions", str(out)]) == 0
    return out.read_bytes()


KERNEL_CASES = ([("writer", case) for case in sorted(WRITER_CASES)]
                + [("dump", case) for case in sorted(DUMP_CASES)])


# "fallback": a rounding bound that no value meets, so CPython formats every
# nonzero value; "kernel": the kernel also for arrays too short to pay for it
@pytest.mark.parametrize("mode", ["fallback", "kernel"])
@pytest.mark.parametrize("kind, case", KERNEL_CASES, ids=[c for _, c in KERNEL_CASES])
def test_csv_bytes_do_not_depend_on_who_formats(kind, case, mode, tmp_path, monkeypatch):
    monkeypatch.setattr(_numtext, "_SMALL", 0)
    if mode == "fallback":
        monkeypatch.setattr(_numtext, "_REL_ERR", 1.0)
    fields, rows = reference_rows(kind, case)
    assert table_output(kind, case, tmp_path) == render_reference(fields, rows, "csv").encode()


@pytest.mark.parametrize("mode", ["fallback", "kernel"])
@pytest.mark.parametrize("kind, case", KERNEL_CASES, ids=[c for _, c in KERNEL_CASES])
def test_json_bytes_do_not_depend_on_who_formats(kind, case, mode, tmp_path, monkeypatch):
    monkeypatch.setattr(_numtext, "_SMALL", 0)
    if mode == "fallback":
        monkeypatch.setattr(_numtext, "_REL_ERR", 1.0)
    fields, rows = reference_rows(kind, case)
    assert (table_output(kind, case, tmp_path, "json")
            == render_reference(fields, rows, "json").encode())


def test_small_chunks_are_written_in_full_blocks(monkeypatch):
    # 99999 omegas of 2 nodes each: one 2-row chunk per omega
    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    writes, out = [], Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["steady-state", "--n-nodes", "2", "--omega", "0.00001:0.99999:0.00001"]) == 0
    omegas = [0.00001 + k * 0.00001 for k in range(99999)]
    rows = [[omega, m, float(p)] for omega in omegas
            for m, p in enumerate(lin.steady_state(LinearWalkSpec(2, omega)))]
    assert out.getvalue() == render_reference(["omega", "m", "pi"], rows, "csv")
    assert len(writes) == 1 + math.ceil(len(rows) / cli._BLOCK_ROWS)


def test_small_json_chunks_are_written_in_full_blocks(monkeypatch):
    # the JSON twin of the CSV test above: "[" rides on the first block and
    # the closing bracket is one more write
    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    writes, out = [], Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["steady-state", "--n-nodes", "2", "--omega", "0.00001:0.99999:0.00001",
                 "--format", "json"]) == 0
    omegas = [0.00001 + k * 0.00001 for k in range(99999)]
    rows = [[omega, m, float(p)] for omega in omegas
            for m, p in enumerate(lin.steady_state(LinearWalkSpec(2, omega)))]
    assert out.getvalue() == render_reference(["omega", "m", "pi"], rows, "json")
    assert len(writes) == 1 + math.ceil(len(rows) / cli._BLOCK_ROWS)


@pytest.mark.parametrize("fmt, row_end", [("csv", "\n"), ("json", "}")])
def test_one_long_chunk_is_written_in_blocks(fmt, row_end, monkeypatch):
    # eq-sweep's shape: one chunk of 19,997 rows goes out as 5 blocks, one
    # write each, besides the CSV header or the closing JSON bracket
    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    writes, out = [], Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["equilibrium", "--n-nodes", "50", "--omega", "0.0001:0.9999:0.00005",
                 "--format", fmt]) == 0
    body = writes[1:] if fmt == "csv" else writes[:-1]
    assert [text.count(row_end) for text in body] == [cli._BLOCK_ROWS] * 4 + [3613]
    if fmt == "json":
        assert len(json.loads(out.getvalue())) == 19_997


def test_steady_state_memory_does_not_grow_with_the_omega_count(tmp_path):
    peaks = []
    for stop in ("0.0099", "0.0999"):           # 99 and 999 omegas of 2000 nodes
        tracemalloc.start()
        try:
            assert main(["steady-state", "--n-nodes", "2000", "--omega", f"0.0001:{stop}:0.0001",
                         "--out", str(tmp_path / "pi.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # holding every pi took 31.5 MB at 999 omegas against 3.6 MB at 99
    assert peaks[1] < 1.25 * peaks[0]


def test_steady_state_range_with_a_bad_omega_writes_nothing(tmp_path, capsys):
    out = tmp_path / "pi.csv"
    assert main(["steady-state", "--n-nodes", "10", "--omega", "0.5:1.5:0.25",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "oqwalk: error: omega must lie strictly inside (0, 1), got 1.0\n")
    assert not out.exists()
