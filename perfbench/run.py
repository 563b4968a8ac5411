#!/usr/bin/env python3
"""The repository benchmark: one closed-loop workload of the query service.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hub_release --seed 1 --seconds 10 \
        --trace 0

Builds perfbench/driver.cc together with the library in src/ (Release,
into $CARGO_TARGET_DIR or .bench_build), runs the driver, checks its
answers, and prints every metric by name and unit. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ledger with --trace 1. The exit code is 0 only when every correctness
check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("hub_release", "hot_set_read", "durable_mixed")
KERNELS = ("scalar_merge", "galloping", "bitmap_and", "probe_bitmap",
           "bitmap_probe")
# Phases that run on the submitting thread, one after another: their wall
# times plus "unaccounted" make up the serving wall time.
SERIAL_PHASES = ("admission", "wal_fsync", "release", "plan", "execute",
                 "checkpoint")
# Phases that run inside a serial phase on every pool thread, reported as
# thread-seconds over the pool size.
POOL_PHASES = ("release_build", "post_process")
BIAS_Z_LIMIT = 4.0
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def self_test():
    """Runs the statistics self-tests; False when any fails."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    return result.wasSuccessful()


def build(build_dir):
    """Configures and builds the driver (incrementally after the first
    run); returns its path. Compiler temporaries stay under build_dir."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   env=env, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   env=env, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, args, build_dir):
    cache_dir = os.path.join(build_dir, "edge-cache")
    work_dir = os.path.join(build_dir, "runs",
                            f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    out = os.path.join(work_dir, "result.json")
    proc = subprocess.run(
        [driver, f"--workload={args.workload}", f"--seed={args.seed}",
         f"--seconds={args.seconds}", f"--trace={args.trace}",
         f"--cache-dir={cache_dir}", f"--work-dir={work_dir}",
         f"--out={out}"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(d):
    """The end-to-end metrics of an untraced run, plus report-only extras."""
    w, acc = d["window"], d["accuracy"]
    tail = stats.tail_percentile(w["op_ms"])
    if tail is None:
        raise RuntimeError(f"only {len(w['op_ms'])} submits in the window")
    errors = acc["errors"]
    answered_total = acc["answered"] + acc["warmup_answered"]
    metrics = {
        "qps": metric(w["answered"] / w["busy_s"], "answers/s"),
        "submit_p50_ms": metric(stats.median(w["op_ms"]), "ms"),
        "submit_tail_ms": metric(tail[1], "ms"),
        "setup_s": metric(stats.median(d["setup_s"]), "s"),
        "peak_rss_mb": metric(w["peak_rss_mb"], "MB"),
        "mae": metric(sum(abs(e) for e in errors) / len(errors),
                      "neighbours"),
        "eps_per_answer": metric(acc["total_spent"] / answered_total, "eps"),
        "answered_share": metric(acc["answered"] / acc["submitted"],
                                 "ratio"),
    }
    extras = {
        "submit_samples": metric(len(w["op_ms"]), "count"),
        "submit_tail_percentile": metric(tail[0], "percentile"),
        "budget_rejected_share": metric(
            acc["rejected_budget"] / acc["submitted"], "ratio"),
        "ops_attempted": metric(w["submitted"], "queries"),
        "ops_failed": metric(w["rejected_other"] + d["failed_answers"],
                             "queries"),
        "window_wall_s": metric(w["wall_s"], "s"),
        "accuracy_answers": metric(len(errors), "count"),
    }
    if w["recovery_s"]:
        extras["recovery_s"] = metric(stats.median(w["recovery_s"]), "s")
    return metrics, extras


def bias_check(d):
    """Mean signed error of independent answers within BIAS_Z_LIMIT
    standard errors of 0 (OneR and MultiR-DS are unbiased)."""
    errors = d["accuracy"]["independent_errors"]
    if len(errors) < 30:
        return {"name": "unbiased", "ok": False,
                "detail": f"only {len(errors)} independent answers"}
    z = stats.mean_z(errors)
    return {"name": "unbiased", "ok": abs(z) <= BIAS_Z_LIMIT,
            "detail": f"z = {z:.2f} over {len(errors)} answers that share "
                      f"no vertex (limit {BIAS_Z_LIMIT})"}


def submit_phases(trace_path):
    """Wall seconds of the direct children of every "submit" span of the
    submitting thread, by name — the time accounting of
    scripts/check_trace_json.py."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    totals = {}
    submit_us = 0.0
    stacks = {}
    for e in events:
        end = e["ts"] + e["dur"]
        stack = stacks.setdefault(e["tid"], [])
        while stack and e["ts"] >= stack[-1][0] - 1e-9:
            stack.pop()
        if stack and stack[-1][1] == "submit":
            totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"]
        if e["name"] == "submit":
            submit_us += e["dur"]
        stack.append((end, e["name"]))
    return {k: v * 1e-6 for k, v in totals.items()}, submit_us * 1e-6


def per_layer(d, untraced_qps):
    """The per-layer ledger of a traced run; returns (metrics, checks)."""
    t = d["traced"]
    r = t["replays"]
    threads = t["threads"]
    checks = []
    hist = {k: v["total_s"] for k, v in t["phases"].items()}
    counts = {k: v["count"] for k, v in t["phases"].items()}

    csr_s = stats.median(t["csr_build_s"])
    m = {
        "graph.csr_build_s": metric(csr_s, "s"),
        "graph.csr_edges_per_s": metric(t["edges"] / csr_s, "edges/s"),
        "graph.set_ops.pairs": metric(t["set_op_pairs"], "count"),
        "graph.set_ops.ns_per_pair": metric(
            r["set_ops_replay_ns"] / max(1, r["set_ops_replay_pairs"]), "ns"),
    }
    for k in KERNELS:
        m[f"graph.set_ops.kernel.{k}.pairs"] = metric(
            t["kernel_pairs"].get(k, 0), "count")
    unknown = set(t["kernel_pairs"]) - set(KERNELS)
    checks.append({"name": "known_kernels", "ok": not unknown,
                   "detail": f"unlisted kernels: {sorted(unknown)}"})

    charges = t["releases"] + (2 * t["answered"] if t["multir_ds"] else 0)
    m.update({
        "ldp.rr.releases": metric(t["releases"], "count"),
        "ldp.rr.members": metric(t["uploaded_edges"], "count"),
        "ldp.rr.ns_per_member": metric(
            r["rr_replay_ns"] / max(1, r["rr_replay_members"]), "ns"),
        "ldp.rr.bitmap_share": metric(
            r["rr_bitmap_views"] / max(1, r["rr_views"]), "ratio"),
        "ldp.ledger.charges": metric(charges, "count"),
        "ldp.ledger.refusals": metric(t["rejected_budget"], "count"),
        "ldp.ledger.ns_per_charge": metric(
            r["ledger_replay_ns"] / max(1, r["ledger_replay_charges"]), "ns"),
        "core.post_process.queries": metric(t["answered"], "count"),
        "core.post_process.ns_per_query": metric(
            r["post_process_replay_ns"]
            / max(1, r["post_process_replay_queries"]), "ns"),
        "service.view_store.lookups": metric(t["lookups"], "count"),
        "service.view_store.hit_ratio": metric(
            t["cache_hits"] / max(1, t["lookups"]), "ratio"),
        "service.view_store.uploaded_edges": metric(t["uploaded_edges"],
                                                    "count"),
    })

    # The serving wall time: every Submit and Checkpoint call, measured
    # around the call by the benchmark.
    wall = t["busy_s"]
    children, submit_s = submit_phases(t["trace_json"])
    serial = {p: children.get(p, 0.0) for p in SERIAL_PHASES}
    serial["checkpoint"] = sum(t["checkpoint_s"])
    ok, shares = stats.check_shares(serial, wall)
    checks.append({
        "name": "layer_shares_sum_to_1", "ok": ok and
        r.get("trace_events_dropped", 0) == 0,
        "detail": f"serial phases cover {1 - shares.get('unaccounted', 1):.3f}"
                  f" of {wall:.3f} s; submit spans {submit_s:.3f} s; "
                  f"{r.get('trace_events_dropped', 0)} trace events dropped"})
    pool = {
        "release_build": hist.get("release_build", 0.0) / threads,
        # post_process clocks one query in eight; scale by the answers.
        "post_process": (hist.get("post_process", 0.0)
                         / max(1, counts.get("post_process", 0))
                         * t["answered"] / threads),
    }
    for p in SERIAL_PHASES:
        m[f"service.{p}.s"] = metric(serial[p], "s")
        m[f"service.{p}.share"] = metric(shares.get(p, 0.0), "ratio")
    for p in POOL_PHASES:
        m[f"service.{p}.s"] = metric(pool[p], "s")
        m[f"service.{p}.share"] = metric(pool[p] / wall, "ratio")
    m["service.unaccounted.share"] = metric(shares.get("unaccounted", 1.0),
                                            "ratio")
    release = serial["release"]
    m["service.release.pool_efficiency"] = metric(
        pool["release_build"] / release if release > 0 else 0.0, "ratio")

    persistent = t["persistent"]
    syncs = r.get("wal_replay_syncs", 0)
    m.update({
        # One authorization record per release, one per charge, one seal
        # per submit.
        "store.wal.records": metric(
            t["releases"] + charges + t["submits"] if persistent else 0,
            "count"),
        "store.wal.syncs": metric(t["submits"] if persistent else 0, "count"),
        "store.wal.sync_ms": metric(
            r["wal_replay_sync_s"] / syncs * 1e3 if syncs else 0.0, "ms"),
    })
    cp_s = stats.median(t["checkpoint_s"]) if t["checkpoint_s"] else 0.0
    cp_mb = stats.median(t["checkpoint_mb"]) if t["checkpoint_mb"] else 0.0
    rec_s = stats.median(t["recovery_s"]) if t["recovery_s"] else 0.0
    m.update({
        "store.checkpoint.s": metric(cp_s, "s"),
        "store.checkpoint.mb": metric(cp_mb, "MB"),
        "store.checkpoint.mb_per_s": metric(cp_mb / cp_s if cp_s else 0.0,
                                            "MB/s"),
        "store.recovery.s": metric(rec_s, "s"),
        "store.recovery.wal_records": metric(
            stats.median(t["recovery_wal_records"])
            if t["recovery_wal_records"] else 0, "count"),
        "store.recovery.mb_per_s": metric(
            t["snapshot_mb"] / t["snapshot_read_s"]
            if t["snapshot_read_s"] else 0.0, "MB/s"),
    })
    traced_qps = t["answered"] / t["busy_s"]
    m["obs.trace_overhead"] = metric(traced_qps / untraced_qps - 1.0, "ratio")
    return m, checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not self_test():
        log("perfbench: statistics self-tests failed; not reporting")
        return 2
    root = os.path.dirname(HERE)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    started = time.monotonic()
    try:
        driver = build(build_dir)
        log(f"perfbench: build ready in {time.monotonic() - started:.1f} s")
        d = run_driver(driver, args, build_dir)
    except (subprocess.SubprocessError, OSError, RuntimeError) as e:
        log(f"perfbench: {e}")
        return 2

    checks = list(d["checks"])
    checks.append(bias_check(d))
    metrics, extras = end_to_end(d)
    if args.trace:
        metrics, layer_checks = per_layer(d, metrics["qps"]["value"])
        checks.extend(layer_checks)
    correct = all(c["ok"] for c in checks)

    ctx = d["context"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("context  " + json.dumps(ctx, sort_keys=True))
    for c in checks:
        print(f"check    {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: "
              f"{c['detail']}")
    for name, v in list(metrics.items()) + list(extras.items()):
        print(f"metric   {name:40s} {v['value']:>18.6g} {v['unit']}")

    attempted = extras["ops_attempted"]["value"]
    failed = extras["ops_failed"]["value"]
    if not correct:
        failed = max(failed, 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
