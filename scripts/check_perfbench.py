#!/usr/bin/env python3
"""Gate the per-layer perf of the repository benchmark against a baseline.

Usage:
    scripts/check_perfbench.py BENCH_perfbench.json RUN.txt [RUN.txt ...]

Each RUN.txt is the standard output of one traced run,
`python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace 1`.
The gate reads its `workload` and `context` lines and its last line, the
JSON result. Per workload it takes the median of each metric over the
runs and compares it with the baseline value. A metric fails when it is
more than 20% worse, in the direction BENCHMARK.json's `per_layer[].better`
gives for it. Every metric the baseline lists is checked; one missing from
a run fails, so a rename cannot turn its gate off.

A workload whose runs differ from the baseline in affinity_cores,
service_threads, simd_level or build_type is skipped: numbers from another
machine shape are another experiment, not a regression.

The last line printed is the current medians in the baseline's format, so
a baseline is regenerated by saving it (see docs/BENCHMARKS.md).

Exit status: 0 when every checked metric is within 20%, 1 on a regression,
a missing metric or a baseline workload without runs, 2 on malformed input.
"""

import json
import os
import statistics
import sys

THRESHOLD = 0.2
KEYED_CONTEXT = ("affinity_cores", "service_threads", "simd_level",
                 "build_type")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "BENCHMARK.json")


def fail_input(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail_input(f"cannot read {path}: {e}")


def read_run(path):
    """(workload, context, {metric: value}) of one run's standard output."""
    try:
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
        workload = next(line.split()[1] for line in lines
                        if line.startswith("workload "))
        context = next(json.loads(line[len("context "):]) for line in lines
                       if line.startswith("context "))
        metrics = json.loads(lines[-1])["metrics"]
        return workload, context, {k: v["value"] for k, v in metrics.items()}
    except (OSError, ValueError, StopIteration, IndexError, KeyError,
            TypeError) as e:
        fail_input(f"{path} is not perfbench output: {e!r}")


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load_json(argv[1]).get("workloads", {})
    better = {m["name"]: m["better"]
              for m in load_json(BENCHMARK_JSON)["per_layer"]}
    runs = {}
    for path in argv[2:]:
        workload, context, metrics = read_run(path)
        runs.setdefault(workload, []).append((context, metrics))

    failed = False
    current = {}
    for workload, base in sorted(baseline.items()):
        if workload not in runs:
            print(f"FAIL {workload}: no run of this workload")
            failed = True
            continue
        contexts = [context for context, _ in runs[workload]]
        medians = {}
        for name in sorted(base["metrics"]):
            values = [m[name] for _, m in runs[workload] if name in m]
            if len(values) == len(contexts):
                medians[name] = statistics.median(values)
        current[workload] = {"context": contexts[0], "runs": len(contexts),
                             "metrics": medians}
        mismatch = sorted({k for k in KEYED_CONTEXT for c in contexts
                           if c.get(k) != base["context"].get(k)})
        if mismatch:
            print(f"skip {workload}: context differs from the baseline in "
                  + ", ".join(f"{k} ({base['context'].get(k)} -> "
                              f"{contexts[0].get(k)})" for k in mismatch))
            continue
        for name, base_value in sorted(base["metrics"].items()):
            if name not in medians:
                print(f"FAIL {workload} {name}: missing from a run")
                failed = True
                continue
            if name not in better or base_value <= 0:
                fail_input(f"{workload} {name}: no direction in "
                           f"BENCHMARK.json or baseline {base_value} <= 0")
            value = medians[name]
            # Relative change, signed so that positive is an improvement.
            change = (value - base_value) / base_value
            if better[name] == "lower":
                change = -change
            status = "FAIL" if change < -THRESHOLD else "ok  "
            failed |= change < -THRESHOLD
            print(f"{status} {workload} {name}: {base_value:.4g} -> "
                  f"{value:.4g} ({change:+.1%}, median of {len(contexts)})")
    for workload in sorted(set(runs) - set(baseline)):
        print(f"new  {workload}: no baseline, not checked")

    print(json.dumps({"workloads": current}, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
