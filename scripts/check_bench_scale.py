#!/usr/bin/env python3
"""Gate on the scale-section perf trajectory of the ext_* benches.

Compares the `scale` array of a freshly produced bench JSON against the
committed baseline (BENCH_*.json). Every scale entry carries one canonical
`scale_metric` object:

    {"name": "...", "value": <number>, "higher_is_better": <bool>}

and may carry `extra_scale_metrics`, a list of additional objects of the
same shape (e.g. per-phase latency quantiles). Every metric is gated.

Metrics are matched across files by the entry's axes — the generator draw
count and exponent (from `shape`) plus whichever bench axis the entry
carries (`hot_set` for ext_service, `candidates` for ext_batch;
ext_intersect and ext_snapshot are fully identified by the shape), the
entry's `simd_level` when present (numbers from different ISA levels are
different experiments, not regressions of each other) — plus the metric
name. The check fails when a matched metric regresses by more
than the threshold in the direction `higher_is_better` declares; metric
names ending in `_p99_seconds` are always gated lower-is-better, whatever
the file claims — a latency quantile that "improves" by growing is a bug
in the emitter, not a better number. Sub-microsecond `_p99_seconds`
values sit at the noise floor of the clock and the histogram's log
buckets (a handful of ~100 ns samples flips buckets freely), so when both
sides are under 1 us the delta is reported but never fails the gate; a
regression that drags the quantile past 1 us still does.

A baseline entry the current run does not produce at all is skipped: the
committed baselines deliberately carry larger scale points (10^6+) than
the CI smoke run produces. But a baseline metric missing from a current
entry with the same axes fails — otherwise renaming a metric would
silently turn its gate off. Metrics only the current run has are
reported as new.

Usage:
    scripts/check_bench_scale.py BASELINE.json CURRENT.json [--threshold=0.2]

Exit status: 0 when every matched metric is within the threshold,
1 on regression or missing entry, 2 on malformed input.
"""

import json
import signal
import sys

# Die quietly when piped into head & co. instead of tracebacking.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def entry_axes(entry):
    """Axes identifying a scale entry across runs of the same bench."""
    shape = entry.get("shape", {})
    return (
        shape.get("draws"),
        shape.get("exponent"),
        entry.get("hot_set"),
        entry.get("candidates"),
        # SIMD level is an axis, not noise: a baseline recorded on an
        # AVX-512 machine must not gate a scalar-only runner (the numbers
        # differ by an order of magnitude by design). Mismatched levels
        # fall out as skip/new entries instead of false regressions.
        entry.get("simd_level"),
    )


def entry_metrics(entry, path):
    """The entry's gated metrics: scale_metric plus extra_scale_metrics."""
    metric = entry.get("scale_metric")
    if not metric or "value" not in metric:
        print(f"error: scale entry without scale_metric in {path}",
              file=sys.stderr)
        sys.exit(2)
    metrics = [metric]
    for extra in entry.get("extra_scale_metrics", []):
        if "name" not in extra or "value" not in extra:
            print(f"error: malformed extra_scale_metrics in {path}",
                  file=sys.stderr)
            sys.exit(2)
        metrics.append(extra)
    return metrics


def load_scale(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    entries = {}
    for entry in doc.get("scale", []):
        axes = entry_axes(entry)
        for metric in entry_metrics(entry, path):
            entries[axes + (metric.get("name"),)] = metric
    return doc.get("bench", path), entries


def describe(key):
    draws, exponent, hot_set, candidates, simd_level, _name = key
    parts = [f"draws={draws}", f"exp={exponent}"]
    if hot_set is not None:
        parts.append(f"hot_set={hot_set}")
    if candidates is not None:
        parts.append(f"candidates={candidates}")
    if simd_level is not None:
        parts.append(f"simd={simd_level}")
    return " ".join(parts)


def is_higher_better(metric):
    name = metric.get("name") or ""
    if name.endswith("_p99_seconds"):
        return False
    return bool(metric.get("higher_is_better", True))


def main(argv):
    threshold = 0.2
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    bench, baseline = load_scale(paths[0])
    _, current = load_scale(paths[1])
    current_axes = {key[:-1] for key in current}

    if not baseline:
        print(f"{bench}: baseline has no scale section; nothing to check")
        return 0

    failed = False
    for key, base_metric in sorted(baseline.items(), key=str):
        label = describe(key)
        if key not in current:
            if key[:-1] in current_axes:
                print(f"FAIL {bench} [{label}] {key[-1]}: missing from the "
                      "current entry with these axes")
                failed = True
            else:
                print(f"skip {bench} [{label}] {key[-1]}: entry not in "
                      "current run")
            continue
        cur_metric = current[key]
        base_value = float(base_metric["value"])
        cur_value = float(cur_metric["value"])
        if base_value == 0:
            print(f"skip {bench} [{label}] {key[-1]}: zero baseline")
            continue
        # Signed relative change, oriented so positive = improvement.
        change = (cur_value - base_value) / abs(base_value)
        if not is_higher_better(base_metric):
            change = -change
        below_noise_floor = (
            (key[-1] or "").endswith("_p99_seconds")
            and max(base_value, cur_value) < 1e-6
        )
        failing = change < -threshold and not below_noise_floor
        status = "FAIL" if failing else "ok  "
        print(f"{status} {bench} [{label}] {base_metric['name']}: "
              f"{base_value:.4g} -> {cur_value:.4g} ({change:+.1%})")
        if failing:
            failed = True

    new_keys = set(current) - set(baseline)
    for key in sorted(new_keys, key=str):
        print(f"new  {bench} [{describe(key)}] {key[-1]}: "
              "no baseline, skipped")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
