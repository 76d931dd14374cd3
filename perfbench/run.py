#!/usr/bin/env python3
"""The Amber benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sor|churn|serve --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.result.json B.result.json

Builds perfbench/ (which compiles ../src) into .bench_build, runs the
workload in its own single-threaded process, checks its outputs, prints
every metric by name with its unit, and ends with one JSON line. With
--trace 1 it makes a second, traced run of the same seed and prints the
per-layer metrics instead. See perfbench/README.md."""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

# The paper's numbers (Table 1, ms; Figure 2, 8Nx4P speedup).
PAPER = {
    "speedup": 25.0,
    "create_ms": 0.18,
    "local_invoke_ms": 0.012,
    "remote_invoke_ms": 8.32,
    "move_ms": 12.43,
    "thread_start_join_ms": 1.33,
}
LATENCY_LIMIT_MS = 20.0  # serve: p99 limit of the ladder search
RTRACE_SHARES = ("queue", "compute", "migration", "rpc", "join")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then rebuilds the benchmark binary when sources change."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "runtime.h")):
        log("perfbench: Amber sources (src/) not found next to perfbench/; nothing to build")
        sys.exit(2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    with open(logpath, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", bdir, "--target", "amber_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                with open(logpath) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed")
                sys.exit(2)
    return os.path.join(bdir, "amber_perfbench")


def run_process(binary, args, traced):
    """One workload process; returns its raw record (and spans if traced)."""
    rdir = os.path.join(build_dir(), "results")
    os.makedirs(rdir, exist_ok=True)
    stem = os.path.join(rdir, f"{args.workload}-seed{args.seed}-t{int(traced)}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--out", stem + ".record.json"]
    if traced:
        cmd += ["--spans", stem + ".spans.json"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=170)
    if proc.returncode not in (0, 1) or not os.path.exists(stem + ".record.json"):
        log(f"perfbench: workload process failed with status {proc.returncode}")
        sys.exit(2)
    with open(stem + ".record.json") as f:
        record = json.load(f)
    spans = None
    if traced:
        with open(stem + ".spans.json") as f:
            spans = json.load(f)
    return record, spans


# --- End-to-end metrics ----------------------------------------------------------

def served_ms(run):
    return [x / 1e6 for x in run["latency_ns"] if x >= 0]


def serve_runs(record):
    runs = {r["label"]: r for r in record["serve"]}
    ladder = [r for r in record["serve"] if r["label"].startswith("r")]
    return runs, ladder


def host_ops_per_s(record):
    return sum(record["round_ops"]) / sum(record["round_ns"]) * 1e9


def paper_err_pct(fid):
    measured = dict(fid)
    measured["speedup"] = fid["sequential_ns"] / fid["parallel_ns"]
    errs = {k: (measured[k] - v) / v * 100.0 for k, v in PAPER.items()}
    return statistics.mean(abs(e) for e in errs.values()), measured, errs


def end_to_end(record):
    runs, ladder = serve_runs(record)
    err, _, _ = paper_err_pct(record["fidelity"])
    m = {
        "setup_s": (statistics.median(record["setup_ns"]) / 1e9, "s"),
        "host_ops_per_s": (host_ops_per_s(record), "1/s"),
        "peak_rss_mb": (record["peak_rss_first_round_bytes"] / 2**20, "MiB"),
        "paper_err_pct": (err, "%"),
        "virt_s": (record["virt_s"], "virt_s"),
    }
    for label in ("lo", "hi"):
        lat = served_ms(runs[label])
        m[f"virt_p50_ms.{label}"] = (benchlib.percentile(lat, 50), "virt_ms")
        m[f"virt_p99_ms.{label}"] = (benchlib.percentile(lat, 99), "virt_ms")
    rungs = [(r["offered_per_s"], r["arrival_ns"], r["latency_ns"]) for r in ladder]
    m["virt_max_rate_per_s"] = (benchlib.max_rate(rungs, LATENCY_LIMIT_MS * 1e6), "req/s")
    return m


# --- Per-layer metrics -----------------------------------------------------------

def span_durations(spans):
    """Inclusive and self durations by span name, plus per-request sums."""
    names = spans["names"]
    rows = spans["spans"]
    selfs = benchlib.self_times([(r[1], r[3], r[4]) for r in rows])
    incl, self_by = {}, {}
    for r, s in zip(rows, selfs):
        incl.setdefault(names[r[0]], []).append(r[4] - r[3])
        self_by.setdefault(names[r[0]], []).append(s)
    # StartThread + Join host time per request (serve) or per started thread.
    per_request = {}
    starts, joins = [], []
    for r in rows:
        name = names[r[0]]
        if name in ("StartThread", "Join"):
            if r[2]:
                per_request[r[2]] = per_request.get(r[2], 0) + r[4] - r[3]
            else:
                (starts if name == "StartThread" else joins).append(r[4] - r[3])
    start_join = list(per_request.values()) + [a + b for a, b in zip(starts, joins)]
    return incl, self_by, start_join


def pct_or_zero(values, p):
    return benchlib.percentile(values, p) if values else 0.0


def per_layer(untraced, traced, spans):
    c = untraced["counts"]
    ops = untraced["first_round_ops"]
    prof = traced["selfprof"]
    wall = prof["enabled_ns"]
    incl, _, start_join = span_durations(spans)
    runs, _ = serve_runs(untraced)
    setup = untraced.get("setup_counts", c)
    m = {
        "sim.events_per_op": (c["events"] / ops, "count"),
        "sim.dispatches_per_op": (c["dispatches"] / ops, "count"),
        "sim.preemptions": (c["preemptions"], "count"),
        "sim.host_ns_per_event": (wall / max(1, prof["events"]), "ns"),
        "sim.fiber_run_share": (prof["fiber_run_ns"] / wall, "ratio"),
        "sim.event_loop_share": (prof["event_loop_ns"] / wall, "ratio"),
        "core.fanout_share": (prof["observer_fanout_ns"] / wall, "ratio"),
        "core.threads_started_per_op": (c["threads_started"] / ops, "count"),
        "core.start_join_ns.p50": (pct_or_zero(start_join, 50), "ns"),
        "core.start_join_ns.p99": (pct_or_zero(start_join, 99), "ns"),
        "core.invoke_local_ns.p50": (pct_or_zero(incl.get("Ref::Call.local", []), 50), "ns"),
        "core.invoke_local_ns.p99": (pct_or_zero(incl.get("Ref::Call.local", []), 99), "ns"),
        "core.invoke_remote_ns.p50": (pct_or_zero(incl.get("Ref::Call.remote", []), 50), "ns"),
        "core.invoke_remote_ns.p99": (pct_or_zero(incl.get("Ref::Call.remote", []), 99), "ns"),
        "core.move_ns.p50": (pct_or_zero(incl.get("MoveTo", []), 50), "ns"),
        "core.thread_migrations_per_op": (c["thread_migrations"] / ops, "count"),
        "core.objects_moved": (c["objects_moved"], "count"),
        "core.objects_created": (setup["objects_created"], "count"),
        "core.new_ns.p50": (pct_or_zero(incl.get("New", []), 50), "ns"),
        "core.new_ns.p99": (pct_or_zero(incl.get("New", []), 99), "ns"),
        "kernel.lookups_per_op": (c["lookups"] / ops, "count"),
        "kernel.forward_hops": (c["forward_hops"], "count"),
        "kernel.hops_per_move": (c["forward_hops"] / c["objects_moved"]
                                 if c["objects_moved"] else 0.0, "count"),
        "mem.allocs_per_op": (c["allocations"] / ops, "count"),
        "mem.alloc_bytes": (setup["live_bytes"], "B"),
        "net.messages_per_op": (c["messages"] / ops, "count"),
        "net.bytes_per_op": (c["bytes"] / ops, "B"),
        "net.fragments": (c["fragments"], "count"),
        "net.delivery_share": (prof["net_delivery_ns"] / wall, "ratio"),
        "rpc.roundtrips": (c["roundtrips"], "count"),
        "rpc.travels": (c["travels"], "count"),
        "rpc.retries": (c["retries"], "count"),
        "rpc.timeouts": (c["timeouts"], "count"),
        "rpc.retry_ratio": (c["retries"] / (c["roundtrips"] + c["travels"])
                            if c["roundtrips"] + c["travels"] else 0.0, "ratio"),
    }
    churn = untraced.get("churn")
    m["mem.rss_per_object_b"] = (
        (churn["rss_after_setup"] - churn["rss_before_setup"]) / churn["objects"]
        if churn else 0.0, "B")
    for label in ("lo", "hi"):
        lag = [x / 1e6 for x in runs[label]["lag_ns"] if x >= 0]
        m[f"load.lag_ms.p99.{label}"] = (benchlib.percentile(lag, 99), "virt_ms")
    hi = runs["hi"]
    for cat in RTRACE_SHARES:
        m[f"rtrace.{cat}_share.hi"] = (hi["rtrace_ns"].get(cat, 0) / hi["rtrace_latency_ns"],
                                       "ratio")
    untraced_rate = host_ops_per_s(untraced)
    m["trace_overhead_pct"] = ((untraced_rate - host_ops_per_s(traced)) / untraced_rate * 100.0,
                               "%")
    led = traced["ledger"]
    explained_ns = (c["events"] * led["sync_roundtrip_ns"] + c["lookups"] * led["lookup_ns"] +
                    c["allocations"] * led["alloc_free_ns"] +
                    c["messages"] * led["rpc_send_ns"]) / ops
    m["ledger.explained_pct"] = (explained_ns * untraced_rate / 1e9 * 100.0, "%")
    rss = untraced["rss_after_round"]
    m["mem.host_growth_kb_per_round"] = ((rss[-1] - rss[0]) / (len(rss) - 1) / 1024
                                         if len(rss) > 1 else 0.0, "KiB")
    m["fail_ratio"] = (fail_ratio(untraced), "ratio")
    m["host.cpu_s"] = (untraced["host"]["cpu_user_s"] + untraced["host"]["cpu_sys_s"], "s")
    m["host.involuntary_csw"] = (untraced["host"]["involuntary_csw"], "count")
    return m


def fail_ratio(record):
    """serve: refused or timed-out requests at the fixed rates over offered;
    elsewhere: ops of rounds whose correctness gates failed."""
    if record["workload"] == "serve":
        runs, _ = serve_runs(record)
        offered = sum(len(runs[k]["latency_ns"]) for k in ("lo", "hi"))
        bad = sum(sum(1 for x in runs[k]["latency_ns"] if x < 0) + runs[k]["counts"]["timeouts"]
                  for k in ("lo", "hi"))
        return bad / offered
    return 0.0 if all(c["ok"] for c in record["checks"]) else 1.0


# --- Checks ----------------------------------------------------------------------

def deterministic_part(record):
    """Every virtual-time result and exact count of a record."""
    keys = ("virt_s", "first_round_ops", "counts", "setup_counts", "fidelity", "serve")
    return {k: record.get(k) for k in keys}


def check_same(a, b, what):
    if deterministic_part(a) != deterministic_part(b):
        return [{"name": f"same_seed.{what}", "ok": False,
                 "detail": "virtual-time results or exact counts differ"}]
    return [{"name": f"same_seed.{what}", "ok": True, "detail": ""}]


# --- Provenance ------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


# --- Report ----------------------------------------------------------------------

def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")


def print_report(record, metrics):
    runs, ladder = serve_runs(record)
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{len(record['round_ns'])} rounds  {sum(record['round_ops'])} ops  "
          f"{len(record['setup_ns'])} set-ups")
    for label in ("lo", "hi"):
        lat = served_ms(runs[label])
        p, v, n = benchlib.tail_percentile(lat)
        print(f"  serve {label}: {runs[label]['offered_per_s']:.0f} offered/s, n={n} served, "
              f"p50 {benchlib.percentile(lat, 50):.3f} ms, tail p{p:g} {v:.3f} ms")
    passing = [r["offered_per_s"] for r in ladder if benchlib.rung_meets_limit(
        r["arrival_ns"], r["latency_ns"], LATENCY_LIMIT_MS * 1e6)]
    print(f"  ladder: {len(ladder)} rungs {ladder[0]['offered_per_s']:.0f}.."
          f"{ladder[-1]['offered_per_s']:.0f}/s, passing {len(passing)}, "
          f"limit p99 <= {LATENCY_LIMIT_MS} ms")
    _, measured, errs = paper_err_pct(record["fidelity"])
    print("  paper error: " + ", ".join(f"{k} {measured[k]:.4g} ({errs[k]:+.1f}%)"
                                        for k in PAPER))
    h = record["host"]
    print(f"  host: cpu {h['cpu_user_s'] + h['cpu_sys_s']:.2f} s, wall {h['wall_s']:.2f} s, "
          f"involuntary csw {h['involuntary_csw']}, build {record['build_type']}")
    print_metrics("end-to-end:", metrics)


def print_spans(spans):
    incl, self_by, _ = span_durations(spans)
    print("spans (host ns):        count    incl p50    self p50")
    for name in sorted(incl):
        print(f"  {name:<20} {len(incl[name]):>8} {benchlib.percentile(incl[name], 50):>11.0f} "
              f"{benchlib.percentile(self_by[name], 50):>11.0f}")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    try:
        benchlib.check_comparable(a, b)
    except benchlib.ComparisonRefused as e:
        log(f"perfbench: refusing to compare: {e}")
        return 3
    for name, entry in a["metrics"].items():
        va, vb = entry["value"], b["metrics"][name]["value"]
        delta = (vb - va) / va * 100.0 if va else math.nan
        print(f"{name:<32} {va:>14.6g} {vb:>14.6g} {delta:+8.2f}% {entry['unit']}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("sor", "churn", "serve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")

    binary = build()
    untraced, _ = run_process(binary, args, traced=False)
    checks = list(untraced["checks"])
    traced = spans = None
    if args.trace:
        traced, spans = run_process(binary, args, traced=True)
        checks += traced["checks"] + check_same(untraced, traced, "untraced_vs_traced")

    e2e = end_to_end(untraced)
    print_report(untraced, e2e)
    metrics = e2e
    if args.trace:
        metrics = per_layer(untraced, traced, spans)
        print_spans(spans)
        print_metrics("per-layer (traced run):", metrics)
    failed_checks = [c for c in checks if not c["ok"]]
    for c in failed_checks:
        print(f"CHECK FAILED: {c['name']} {c['detail']}")
    correct = not failed_checks
    attempted = sum(untraced["round_ops"])

    result = {
        "schema": benchlib.RESULT_SCHEMA,
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "params": untraced["params"],
            "build_type": untraced["build_type"], "commit": commit(),
            "source_digest": source_digest(), "host": untraced["host"],
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": checks,
    }
    path = os.path.join(build_dir(), "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"result: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
