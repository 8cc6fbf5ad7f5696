"""Benchmark of weylforge through its public API.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 36 --trace 0

Run from the repository root; weylforge is imported from ./src.  One
workload per process, driven by a single closed-loop caller: the next
operation starts only when the previous one has returned, and no thread
or process is started.  Each run repeats one round of inputs made from
--seed until --seconds have passed, checks every output against
reference.py, prints its metrics, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 wraps the public
functions of each weylforge module and reports per-layer metrics per
operation instead, and writes its spans to perfbench/out/.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

# The load is one caller on one core.  numpy's BLAS pool would otherwise
# add threads that spin on the second core of a 2-core host, doubling
# the CPU used for no gain in throughput.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from tracing import Tracer  # noqa: E402  (imports numpy)
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# set-up is timed this many times per run and its median reported
SETUP_REPEATS = 5
# input seed of the warm-up operation, the same for every run so that
# set-up times of runs with different seeds compare
WARMUP_SEED = 0


def _fresh_weylforge():
    """Import weylforge and its cli from ./src as if for the first time."""
    for name in [k for k in sys.modules if k == "weylforge" or k.startswith("weylforge.")]:
        del sys.modules[name]
    wf = importlib.import_module("weylforge")
    importlib.import_module("weylforge.cli")
    return wf


def _setup(workload, warm_item):
    """Median time of import plus one warm-up operation, and problems
    found in the warm-up outputs."""
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wf = _fresh_weylforge()
        out = workload.op(wf, warm_item)
        times.append(time.perf_counter() - start)
        problems += workload.check(warm_item, out)
    return wf, statistics.median(times), problems


def _report(label, value, unit):
    print(f"  {label:<44} {value:>12.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weylforge", "__init__.py")):
        print(f"error: no weylforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    items = workload.inputs(args.seed)
    wf, setup_s, problems = _setup(workload, workload.inputs(WARMUP_SEED)[0])

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # whole rounds only; another round starts when it should end within
    # --seconds, judged by the last one
    times = []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for item in items:
            if tracer:
                tracer.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.op(wf, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation {attempted - 1} failed: {exc!r}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            problems += workload.check(item, out)
            if first is None and item is items[0]:
                first = out
        now = time.perf_counter()
        loop_s = now - start
        if loop_s + (now - round_start) > args.seconds:
            break
    if tracer:
        tracer.op = -1
    if first is not None:
        problems += workload.once(wf, items[0], first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(times) < 2:
        print("error: fewer than two operations completed", file=sys.stderr)
        return 1

    ops_per_s = len(times) / sum(times)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"attempted {attempted}  failed {failed}  correct {not problems}  "
        f"loop {loop_s:.1f} s"
    )
    if tracer:
        metrics = tracer.per_op(attempted - failed)
        print(f"  (traced ops_per_s {ops_per_s:.6g} op/s)")
        print("  per operation:            function      calls       self_ms")
        for name in sorted(k[:-6] for k in metrics if k.endswith(".calls")):
            calls = metrics[f"{name}.calls"][0]
            if calls:
                print(f"  {name:>44} {calls:>10.3f} {metrics[f'{name}.self_ms'][0]:>13.4f}")
        for key in ("synth.spe_params.candidates", "synth.synthesize.feasible_ratio"):
            _report(key, *metrics[key])
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "op/s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(times, n=10)[8], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for key, (value, unit) in metrics.items():
            _report(key, value, unit)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer:
        tracer.write(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
