"""Checks of the benchmark itself:  python3 -m pytest bench

- BENCHMARK.json names exactly the workloads and metrics that run.py emits;
- a smoke-size run of every workload emits every metric with its unit;
- each workload's check fails a deliberately corrupted output;
- per-layer self times add up to the root span, also with concurrent spans;
- host normalisation scales by the reference kernel's median time.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calib
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    record = json.loads(
        (ROOT / ".bench_out" / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["workload"] == workload
    assert {"git_commit", "seed", "nproc", "cpu_model", "python", "numpy", "scipy"} \
        <= set(record["manifest"])
    # every timed run carries the reference-kernel times its times are scaled by
    assert all(len(sample["kernel_s"]) == 2 * calib.REPEATS for sample in record["samples"])


def _produce(job):
    """Run the job in-process, as the worker would, to get a genuine output."""
    sys.path.insert(0, SRC)
    try:
        from oqwalk import channel, cli, linear
    finally:
        sys.path.remove(SRC)
    if job.kind == "cli":
        assert cli.main(job.argv) == 0
        return
    e = job.engine
    inputs = np.load(e["inputs"])
    spec = linear.LinearWalkSpec(e["n_nodes"], e["omega"], unitaries=tuple(inputs["unitaries"]))
    chan = linear.build_channel(spec)
    state, marginals = channel.BlockState.localized(e["n_nodes"], 0, inputs["psi"]), []
    for _ in range(e["steps"]):
        state = channel.step(chan, state)
        marginals.append(channel.position_marginal(state))
    np.save(e["out"], np.array(marginals))


def _scale_csv_value(path, row, col, factor):
    lines = Path(path).read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines))


def _drop_last_line(path):
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:-1]))


def _scale_sweep_value(path, row, key, factor):
    records = json.loads(Path(path).read_text())
    records[row][key] *= factor
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def _scale_marginal(path, step, node, factor):
    p = np.load(path)
    p[step, node] *= factor
    np.save(path, p)


CORRUPTIONS = {
    "traj-long": [lambda o: _scale_csv_value(o["series"], 120, 1, 1 + 1e-6),
                  lambda o: _scale_csv_value(o["series"], 150, 4, 1 - 1e-3),
                  lambda o: _drop_last_line(o["series"])],
    "traj-dump": [lambda o: _scale_csv_value(o["dump"], 22, 2, 1 + 1e-6),
                  lambda o: _drop_last_line(o["dump"])],
    "eq-sweep": [lambda o: _scale_sweep_value(o["sweep"], 19, "varE", 1 + 1e-6),
                 lambda o: _scale_sweep_value(o["sweep"], 0, "Z", 1 + 1e-6)],
    "kraus-engine": [lambda o: _scale_marginal(o["marginals"], 10, 3, 1 + 1e-6)],
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_fails_check(workload, tmp_path):
    wl = WORKLOADS[workload]
    job = wl.make(5, tmp_path, "smoke")[0]
    oracle = wl.oracle(job)
    for corrupt in CORRUPTIONS[workload]:
        _produce(job)
        verdict = wl.check(job, oracle)
        assert verdict.ok, verdict.detail
        corrupt(job.outputs)
        assert not wl.check(job, oracle).ok


def test_self_times_share_concurrent_spans():
    # root [0, 10]; two calls from different threads overlap on [2, 4]
    trace = [(1, 0, "linear.markov_step", 1.0, 4.0, 0, 0),
             (2, 0, "equilibrium.thermo_point", 2.0, 6.0, 0, 0),
             (3, 2, "channel.step", 5.0, 5.5, 0, 0),
             (0, None, "cli.main", 0.0, 10.0, 0, 0)]
    got = spans.self_times(trace)
    assert got["cli"] == pytest.approx(5.0)
    assert got["linear"] == pytest.approx(2.0)
    assert got["equilibrium"] == pytest.approx(2.5)
    assert got["channel"] == pytest.approx(0.5)
    assert sum(got.values()) == pytest.approx(10.0)


def test_host_factor_scales_by_median_kernel_time():
    ref = calib.REFERENCE_S
    assert calib.host_factor([ref, ref, ref]) == pytest.approx(1.0)
    # a host twice as slow halves the factor; one outlier kernel time does not move it
    assert calib.host_factor([2 * ref, 2 * ref, 50 * ref]) == pytest.approx(0.5)
