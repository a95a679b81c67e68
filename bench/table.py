"""Print the baseline table (workload, time, where the time goes) from result files.

    python3 bench/table.py [RESULT.json ...]

Takes the --trace 1 records that bench/run.py writes (default: every
.bench_out/results/*-trace1.json).  Each row gives the untraced run_s and
the layers' shares of the traced run, from that record alone.
"""

import json
import sys
from pathlib import Path

from spans import LAYERS

ROOT = Path(__file__).resolve().parent.parent
CALLS = ("thermalization.shannon_entropy", "linear.markov_step",
         "equilibrium.thermo_point", "channel.validate_channel")


def row(record: dict) -> str:
    m = {k: v["value"] for k, v in record["metrics"].items()}
    total = m["trace.run_s"]
    shares = sorted(((m[f"{layer}.self_s"] / total, layer) for layer in LAYERS), reverse=True)
    where = ", ".join(f"{share:.0%} {layer}" for share, layer in shares if share >= 0.01)
    calls = [(m[f"{c}_s"] / total, c.split(".")[1]) for c in CALLS]
    inner = ", ".join(f"{share:.0%} in {name}" for share, name in calls if share >= 0.01)
    if inner:
        where += f" ({inner})"
    p = record["params"][0]
    size = ", ".join(f"{k}={v}" for k, v in p.items() if k != "omega")
    return (f"| `{record['workload']}` ({size}; {len(record['params'])} inputs) "
            f"| {m['trace.untraced_run_s']:.3g} s | {where}; tracing overhead "
            f"{m['trace.overhead_s'] / m['trace.untraced_run_s']:+.0%} |")


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted((ROOT / ".bench_out" / "results").glob("*-trace1.json"))
    if not files:
        print("no --trace 1 result files found", file=sys.stderr)
        return 1
    records = [json.loads(f.read_text()) for f in files]
    man = records[0]["manifest"]
    print(f"Machine: {man['nproc']} cores, {man['cpu_model']}; Python {man['python']}, "
          f"numpy {man['numpy']}, scipy {man['scipy']}; commit {man['git_commit']}, "
          f"seed {man['seed']}.\n")
    print("| Workload | Time (run_s, host-normalised median) | Where the time goes (layer self time) |")
    print("|---|---|---|")
    for record in records:
        print(row(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
