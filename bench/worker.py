"""One benchmark run in a fresh, single-threaded process.

Protocol on stdin/stdout, one line each way:
  worker -> "ready"            after imports and per-run set-up are done
  parent -> "go"               start the timed call
  worker -> {"rc": ..., "run_s": ..., "peak_rss_kb": ..., "kernel_s": [...]}
                               after it returns
  parent -> "cal"              (instead of "go") time only the reference kernel
  worker -> {"kernel_s": [...]}
  parent -> "stop"             (instead of "go") exit at once
"kernel_s" are times of calib.kernel, taken right before and right after the
timed call, that tell how fast the host ran meanwhile (see calib.py).
The job is the JSON in argv[1].  The package is imported from the checkout's
src/, never from an installed copy.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    proto = sys.stdout
    sys.stdout = sys.stderr          # keep the program's own prints off the protocol

    import numpy as np
    import oqwalk
    from oqwalk import channel, cli, linear

    if Path(oqwalk.__file__).resolve().parent != src / "oqwalk":
        raise SystemExit(f"imported oqwalk from {oqwalk.__file__}, not from {src}")

    if job["kind"] == "engine":
        e = job["engine"]
        inputs = np.load(e["inputs"])
        spec = linear.LinearWalkSpec(e["n_nodes"], e["omega"],
                                     unitaries=tuple(inputs["unitaries"]))
        chan = linear.build_channel(spec)
        state0 = channel.BlockState.localized(e["n_nodes"], 0, inputs["psi"])
        marginals = []

        def call():
            state = state0
            for _ in range(e["steps"]):
                state = channel.step(chan, state)
                marginals.append(channel.position_marginal(state))
            return 0
        root_name = "bench.engine_loop"
    else:
        def call():
            return cli.main(job["argv"])
        root_name = "cli.main"

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer(job["run_id"])
        tracer.install()

    import calib

    print("ready", file=proto, flush=True)
    command = sys.stdin.readline().strip()
    if command in ("go", "cal"):
        calib.kernel()               # the first call pays for page faults and caches
    if command == "cal":
        print(json.dumps({"kernel_s": calib.measure(2 * calib.REPEATS)}), file=proto, flush=True)
    if command != "go":
        return 0                     # a set-up-only spawn
    kernel_s = calib.measure()
    if tracer is None:
        t0 = perf_counter()
        rc = call()
        run_s = perf_counter() - t0
    else:
        with tracer.root(root_name):
            rc = call()
        run_s = tracer.spans[-1][4] - tracer.spans[-1][3]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kernel_s += calib.measure()

    if job["kind"] == "engine":
        np.save(job["engine"]["out"], np.array(marginals))
    if tracer is not None:
        with open(job["spans_path"], "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps({"rc": rc, "run_s": run_s, "peak_rss_kb": peak_kb, "kernel_s": kernel_s}),
          file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
