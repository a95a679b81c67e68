"""oqwalk benchmark: closed-loop runs of a workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload traj-long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25    # each in turn

Each run spawns a fresh single-threaded worker (bench/worker.py) that imports
oqwalk from this checkout's src/ and makes one timed call: `oqwalk.cli.main`
for the CLI workloads, a loop of engine steps for kraus-engine.  Runs go back
to back, one at a time (closed loop, one client).  A seeded workload has one
input per omega stratum (workloads.omega_strata); a cycle runs each input
once; cycles repeat, at least MIN_CYCLES whole ones, and runs go on (the last
cycle may be cut short) until the next run would overrun --seconds.
Every run's outputs are checked against its input's oracle, computed once per
invocation before any run.

--trace 0 reports the end-to-end metrics (all from untraced runs):
  setup_s       median time from spawning the worker until it is ready to run
                (interpreter, `import oqwalk`, and for kraus-engine building
                the channel and the initial state)
  run_s         median time of the timed call, per input; the mean of those
                medians over the inputs (strata)
Both are host-normalised: each sample is scaled by calib.REFERENCE_S over the
median time of a fixed reference kernel that the same worker runs right
before and after its timed call, because the shared host's speed drifts by
up to 75% over minutes (see calib.py).  The raw medians are printed and kept
in the result record.
  work_per_s    the workload's work units divided by run_s
  peak_rss_mb   median peak resident memory of the worker
  max_rel_err   largest normwise relative error against the oracle (floored,
                see workloads.ERR_FLOOR)
  success_rate  share of attempted runs that exited 0 and passed the check;
                the error rate is failed/attempted in the result line
--trace 1 alternates untraced and traced runs and reports per-layer metrics
from the traced ones (see spans.py), plus the tracing overhead.

The last line of stdout is the JSON result (with --workload all, each
workload's result line ends its report); a fuller record (manifest, every
sample, per-layer breakdown) goes to .bench_out/results/, and the spans of
traced runs beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import calib
import spans
from workloads import ERR_FLOOR, WORKLOADS, Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

WORKER_TIMEOUT_S = 60.0      # a single run never takes more than a few seconds
INVOCATION_CAP_S = 140.0     # stop starting runs after this, whatever --seconds says
MIN_CYCLES = 2
MIN_SETUPS = 9               # setup_s is a median over at least this many spawns

END_TO_END = {
    "setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB",
    "max_rel_err": "ratio", "success_rate": "ratio",
}
PER_LAYER = {
    "cli.self_s": "s", "cli.rows_out": "rows", "cli.bytes_out": "B",
    "thermalization.self_s": "s", "thermalization.simulate_trajectory_s": "s",
    "thermalization.shannon_entropy_s": "s", "thermalization.shannon_entropy_calls": "count",
    "thermalization.entropy_bytes_computed": "B",
    "linear.self_s": "s", "linear.markov_step_s": "s", "linear.markov_step_calls": "count",
    "linear.site_updates": "count", "linear.bytes_moved_computed": "B",
    "equilibrium.self_s": "s", "equilibrium.thermo_point_s": "s",
    "equilibrium.thermo_point_calls": "count",
    "channel.self_s": "s", "channel.step_s": "s", "channel.step_calls": "count",
    "channel.validate_channel_s": "s", "channel.validate_channel_calls": "count",
    "channel.validate_per_step": "ratio", "channel.position_marginal_s": "s",
    "bench.self_s": "s",
    "trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Sample:
    stratum: int
    traced: bool
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_kb: int | None = None
    kernel_s: list[float] = field(default_factory=list)   # calib.kernel times
    ok: bool = False
    max_rel_err: float = math.inf
    detail: str = ""
    layers: dict = field(default_factory=dict)
    spans: dict | None = None        # the traced run's raw span record

    @property
    def host_factor(self) -> float:
        return calib.host_factor(self.kernel_s)


def _worker_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job: Job, work: Path, traced: bool, run_id: str, command: str,
          stratum: int = 0) -> Sample:
    """Start a worker and time its set-up; then, by `command`, its timed call
    ("go"), the reference kernel alone ("cal") or nothing ("stop")."""
    spec = {"kind": job.kind, "argv": job.argv, "engine": job.engine, "trace": traced,
            "run_id": run_id, "spans_path": str(work / "spans.json")}
    sample = Sample(stratum, traced)
    err_path = work / "worker-stderr.txt"
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(spec)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, env=_worker_env(), text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if proc.stdout.readline().strip() == "ready":
                sample.setup_s = perf_counter() - t0
                try:
                    proc.stdin.write(command + "\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    pass
                line = proc.stdout.readline() if command != "stop" else ""
                if line:
                    reply = json.loads(line)
                    sample.kernel_s = reply["kernel_s"]
                    if command == "go":
                        sample.run_s, sample.peak_rss_kb = reply["run_s"], reply["peak_rss_kb"]
                        sample.detail = f"main returned {reply['rc']}" if reply["rc"] else ""
            proc.stdin.close()
            rc = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if rc != 0 and not sample.detail:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        sample.detail = f"worker exit {rc}: {' '.join(tail)}"
    return sample


def run_once(wl, job: Job, oracle: dict, work: Path, traced: bool, run_id: str,
             stratum: int) -> Sample:
    sample = spawn(job, work, traced, run_id, "go", stratum)
    if sample.run_s is None or sample.detail:
        return sample
    verdict = wl.check(job, oracle)
    sample.ok, sample.max_rel_err, sample.detail = verdict.ok, verdict.max_rel_err, verdict.detail
    if traced:
        with open(work / "spans.json") as fh:
            sample.spans = json.load(fh)
        layers = spans.layer_metrics([tuple(s) for s in sample.spans["spans"]])
        # times on the same host-normalised scale as run_s
        sample.layers = {k: v * sample.host_factor if k.endswith("_s") else v
                         for k, v in layers.items()}
        sample.layers["cli.rows_out"] = float(verdict.rows_out)
        sample.layers["cli.bytes_out"] = float(verdict.bytes_out)
    return sample


def highest_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it (None below n=20)."""
    q = math.floor(100 * (1 - 10 / n)) if n else 0
    return q if q >= 50 else None


def manifest(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def _median(values):
    return statistics.median(values) if values else math.nan


def stratified(samples: list[Sample], value) -> float:
    """Mean over strata of the per-stratum median of value(sample)."""
    by_stratum: dict[int, list[float]] = {}
    for s in samples:
        by_stratum.setdefault(s.stratum, []).append(value(s))
    return statistics.fmean(_median(v) for v in by_stratum.values())


def end_to_end(job: Job, samples: list[Sample], setups: list[Sample]) -> dict[str, float]:
    timed = [s for s in samples if not s.traced and s.run_s is not None]
    run_s = stratified(timed, lambda s: s.run_s * s.host_factor)
    errs = [s.max_rel_err if math.isfinite(s.max_rel_err) else 1.0
            for s in samples if s.run_s is not None]
    return {
        "setup_s": _median([s.setup_s * s.host_factor for s in setups]),
        "run_s": run_s,
        "work_per_s": job.work_units / run_s,
        "peak_rss_mb": _median([s.peak_rss_kb for s in timed]) / 1024.0,
        "max_rel_err": max([ERR_FLOOR] + errs),
        "success_rate": sum(s.ok for s in samples) / len(samples),
    }


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in samples if s.layers]
    out = {name: stratified(traced, lambda s: s.layers[name])
           for name in PER_LAYER if name in traced[0].layers}
    out["trace.untraced_run_s"] = stratified(
        [s for s in samples if not s.traced and s.run_s is not None],
        lambda s: s.run_s * s.host_factor)
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return {name: out[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oqwalk" / "__init__.py").is_file():
        print(f"bench: no oqwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args) for name in names)


def run_workload(name: str, args: argparse.Namespace) -> int:
    """Measure one workload; print its report and, last, its JSON result line."""
    began = perf_counter()
    wl = WORKLOADS[name]
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    work = out_dir / "work" / stem
    results = out_dir / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)

    jobs = wl.make(args.seed, work, args.size)
    job = jobs[0]
    t0 = perf_counter()
    oracles = [wl.oracle(j) for j in jobs]
    oracle_s = perf_counter() - t0

    # One untimed spawn first, so that byte-compiling a fresh checkout is not timed.
    setups: list[Sample] = []
    spawn(job, work, False, f"{stem}-warmup", "stop")

    samples: list[Sample] = []
    kinds = (False, True) if args.trace else (False,)
    start = perf_counter()
    slots = 0                        # inputs run so far (a traced pair counts once)
    while True:
        elapsed = perf_counter() - start
        if slots >= MIN_CYCLES * len(jobs) and elapsed * (slots + 1) / slots > args.seconds:
            break
        if perf_counter() - began > INVOCATION_CAP_S:
            break
        k = slots % len(jobs)
        for traced in kinds:
            sample = run_once(wl, jobs[k], oracles[k], work, traced,
                              f"{stem}-run{len(samples)}", k)
            samples.append(sample)
            if not sample.traced and sample.setup_s is not None and sample.kernel_s:
                setups.append(sample)
        slots += 1
    cycles = slots / len(jobs)
    while not args.trace and len(setups) < MIN_SETUPS and perf_counter() - began < INVOCATION_CAP_S:
        extra = spawn(job, work, False, f"{stem}-setup{len(setups)}", "cal")
        if extra.setup_s is None or not extra.kernel_s:
            break
        setups.append(extra)
    measured_s = perf_counter() - began

    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    if not any(s.run_s is not None and not s.traced for s in samples) or \
            (args.trace and not any(s.layers for s in samples)):
        for s in samples:
            print(f"bench: run failed: {s.detail}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(samples), PER_LAYER
    else:
        metrics, units = end_to_end(job, samples, setups), END_TO_END

    plain = [s for s in samples if not s.traced and s.run_s is not None]
    untraced = sorted(s.run_s * s.host_factor for s in plain)
    q = highest_percentile(len(untraced))
    print(f"workload {name} (seed {args.seed}, trace {args.trace}): "
          f"{attempted} runs, {failed} failed, error_rate {failed / attempted:.4g}; "
          f"oracle {oracle_s:.2f} s, total {measured_s:.1f} s")
    omegas = ", ".join(f"{j.params['omega']:.5f}" for j in jobs if "omega" in j.params)
    print(f"  work per run: {job.work_units:.0f} {job.unit}; {cycles:.3g} cycles over "
          f"{len(jobs)} inputs {job.params}" + (f", omegas {omegas}" if omegas else ""))
    print(f"  run_s over {len(untraced)} untraced runs (host-normalised): "
          f"median {_median(untraced):.6g} s, "
          + (f"p{q} {untraced[math.ceil(q / 100 * len(untraced)) - 1]:.6g} s"
             if q else "no percentile above the median has ten samples beyond it")
          + f", max {untraced[-1]:.6g} s")
    kernel = [t for s in plain for t in s.kernel_s]
    print(f"  raw (not normalised): run_s median {_median([s.run_s for s in plain]):.6g} s"
          + (f", setup_s median {_median([s.setup_s for s in setups]):.6g} s" if setups else "")
          + f"; reference kernel median {_median(kernel) * 1e3:.4g} ms "
          f"(REFERENCE_S {calib.REFERENCE_S * 1e3:.4g} ms)")
    for s in samples:
        if not s.ok:
            print(f"  FAILED run: {s.detail}")
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    if args.trace:
        total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        print(f"  layer self times sum to {total:.6g} s of traced run_s "
              f"{metrics['trace.run_s']:.6g} s (medians of different runs)")
    info = manifest(args.seed)
    print("  manifest: " + ", ".join(f"{k} {v}" for k, v in info.items()))

    record = {
        "manifest": info, "args": vars(args), "workload": name,
        "why": wl.why, "params": [j.params for j in jobs], "work_units": job.work_units,
        "work_unit": job.unit, "oracle_s": oracle_s, "reference_s": calib.REFERENCE_S,
        "setups_s": [s.setup_s for s in setups], "setups_kernel_s": [s.kernel_s for s in setups],
        "samples": [{k: v for k, v in asdict(s).items() if k != "spans"} for s in samples],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        traces = [s.spans for s in samples if s.spans]
        (results / f"{stem}-spans.json").write_text(json.dumps(traces) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
