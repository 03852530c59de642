#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the worker (`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs the workload, checks every pass's output,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the workload runs in PROCESSES[workload] separate worker
processes, one after another, each with an equal share of `--seconds`;
the metrics are the end-to-end ones (set-up time, throughput, peak RSS).
With `--trace 1` one worker alternates untraced and traced passes and
the metrics are the per-layer ones derived from its spans.

Every run appends a self-describing record (host and toolchain
fingerprint, parameters, per-process figures, metrics) to
`.perfbench_out/results.jsonl`; a traced run also keeps its spans in
`.perfbench_out/spans/`. See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("paper_course", "cohort_mem", "cohort_spill", "serve_ramp")
COHORT = ("cohort_mem", "cohort_spill")
# Worker processes per untraced run: set-up is measured once per
# process, and process-to-process variation is sampled, not fixed.
# `paper_course` starts in ~0.2 s, so it affords more set-ups to take
# the median of; the others spend 2-4 s of set-up outside the budget.
PROCESSES = {"paper_course": 9, "cohort_mem": 3, "cohort_spill": 3, "serve_ramp": 3}
# All workers of one run, after the build, must end within this.
RUN_TIMEOUT_S = 170

# Per-layer metrics: every traced run reports all of them; a layer the
# workload never calls into reads 0.
LAYER_SELF = ("cohort", "experiments", "metering", "pricing", "report", "serve", "telemetry")
ANALYSES = (
    "experiments.table1",
    "experiments.fig1",
    "experiments.fig2",
    "experiments.fig3",
    "experiments.project_cost",
    "experiments.headline",
    "experiments.capacity",
    "experiments.spot_ablation",
)
COUNTS = (
    ("cohort.records", "count"),
    ("cohort.records_per_student", "count"),
    ("testbed.quota_denials", "count"),
    ("testbed.slot_pushbacks", "count"),
    ("faults.retries", "count"),
    ("cohort.spill_bytes", "B"),
    ("cohort.spill_bytes_per_record", "B"),
    ("cohort.shard_runs", "count"),
    ("cohort.merge_passes", "count"),
    ("cohort.intermediate_runs", "count"),
    ("cohort.max_open_runs", "count"),
    ("telemetry.events", "count"),
    ("serve.ops_generated", "count"),
    ("serve.ops_completed", "count"),
    ("serve.goodput_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.rounds", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.breaker_trips", "count"),
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the worker failed")
    return os.path.join(target, "release", "perfbench-worker")


def run_worker(binary, workload, seed, budget_s, trace, work_dir, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--budget-s", repr(budget_s),
           "--trace", str(trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"{workload} workers did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    passes = [line for line in lines if line["type"] == "pass"]
    summary = [line for line in lines if line["type"] == "process"]
    if not passes or len(summary) != 1:
        fail(f"{workload} worker printed no result")
    return passes, summary[0]


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def check_passes(workload, seed, passes):
    """Mark each pass failed that missed its own check, differs from the
    others, or differs from the output expected at this seed."""
    with open(os.path.join(BENCH, "expected.json")) as f:
        want = json.load(f)["seeds"].get(str(seed), {}).get(workload)
    reference = next((p["digest"] for p in passes if p["phase"] != "extra"), None)
    failed = {}
    for p in passes:
        why = p["error"]
        if why is None and p["phase"] != "extra":
            if p["digest"] != reference:
                why = f"digest {p['digest']} differs from {reference}"
            elif want is not None and p["digest"] != want["digest"]:
                why = f"digest {p['digest']} != expected {want['digest']}"
            elif want is not None:
                for key, value in want.get("checks", {}).items():
                    if p["checks"].get(key) != value:
                        why = f"{key} {p['checks'].get(key)} != expected {value}"
        if why is not None:
            failed[(p["proc"], p["pass"])] = why
    return reference, failed


def cross_check_cohort(workload, seed, digest):
    """Both cohort workloads must produce the same outcome digest for a
    seed. Digests seen so far are kept per seed in the output directory."""
    path = os.path.join(OUT, "cohort_digests.json")
    seen = load_json(path, {})
    mine = seen.setdefault(str(seed), {})
    mine[workload] = digest
    others = {w: d for w, d in mine.items() if d != digest}
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return [f"{workload} digest {digest} != {w} digest {d} at seed {seed}"
            for w, d in sorted(others.items())]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(procs):
    """Set-up and peak RSS are the medians over the processes. Throughput
    is the work of every timed pass over their summed wall time: on a
    host whose speed drifts between runs, that sum repeats better than
    the median pass (see README.md)."""
    timed = [p for passes, _ in procs for p in passes if p["phase"] == "timed"]
    summaries = [s for _, s in procs]
    items_per_s = sum(p["items"] for p in timed) / sum(p["wall_s"] for p in timed)
    return {
        "setup_s": metric(statistics.median(s["setup_s"] for s in summaries), "s"),
        "items_per_s": metric(items_per_s, "1/s"),
        "peak_rss_mb": metric(statistics.median(s["vmhwm_kb"] for s in summaries) / 1024.0, "MB"),
    }


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def per_layer(passes, spans):
    """Per-layer metrics from the traced run: medians over its traced
    passes, plus the one-off calls made after them."""
    by_pass = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    traced = [p for p in passes if p["phase"] == "timed" and p["traced"]]
    untraced = [p for p in passes if p["phase"] == "timed" and not p["traced"]]
    extra = [p for p in passes if p["phase"] == "extra"]

    def busy(pass_spans, *names):
        return sum(s["busy_ns"] for s in pass_spans if s["name"] in names) / 1e9

    def med(f):
        return statistics.median(f(by_pass.get(p["pass"], []), p) for p in traced)

    def self_by_layer(pass_spans):
        child = {}
        for s in pass_spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0) + s["busy_ns"]
        layers = {}
        for s in pass_spans:
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0) + s["busy_ns"] - child.get(s["id"], 0)
        return {k: v / 1e9 for k, v in layers.items()}

    extra_spans = by_pass.get(extra[0]["pass"], []) if extra else []
    counts = traced[0]["counts"]
    m = {}
    simulate = med(lambda s, p: busy(s, "cohort.simulate"))
    serial = busy(extra_spans, "cohort.simulate_serial")
    m["cohort.simulate_s"] = metric(simulate, "s")
    m["cohort.serial_simulate_s"] = metric(serial, "s")
    m["simkernel.parallel_speedup"] = metric(serial / simulate if serial and simulate else 0.0,
                                             "ratio")
    m["cohort.spill_phase_s"] = metric(med(lambda s, p: busy(s, "cohort.spill_phase")), "s")
    m["cohort.stream_phase_s"] = metric(
        med(lambda s, p: busy(s, "cohort.stream_phase") - busy(s, "experiments.digest_push")), "s")
    digest = med(lambda s, p: busy(s, "experiments.digest", "experiments.digest_push",
                                   "experiments.digest_finish"))
    records = counts.get("cohort.records", 0)
    m["experiments.digest_s"] = metric(digest, "s")
    m["experiments.digest_ns_per_record"] = metric(
        digest * 1e9 / records if digest and records else 0.0, "ns")
    capture = med(lambda s, p: busy(s, "cohort.simulate_traced"))
    m["telemetry.capture_s"] = metric(capture, "s")
    m["telemetry.emit_overhead"] = metric(capture / simulate if capture and simulate else 0.0,
                                          "ratio")
    m["telemetry.export_s"] = metric(
        med(lambda s, p: busy(s, "telemetry.export_jsonl", "telemetry.export_chrome")), "s")
    m["telemetry.export_mb"] = metric(counts.get("telemetry.export_bytes", 0) / 1e6, "MB")
    m["metering.rollup_s"] = metric(med(lambda s, p: busy(s, "metering.rollup")), "s")
    m["pricing.estimate_s"] = metric(med(lambda s, p: busy(s, "pricing.estimate")), "s")
    m["experiments.analyses_s"] = metric(med(lambda s, p: busy(s, *ANALYSES)), "s")
    m["experiments.seeds_s"] = metric(med(lambda s, p: busy(s, "experiments.seeds")), "s")
    m["experiments.ablation_s"] = metric(med(lambda s, p: busy(s, "experiments.ablation")), "s")
    run = med(lambda s, p: busy(s, "serve.run_service"))
    ops = counts.get("serve.ops_generated", 0)
    m["serve.run_s"] = metric(run, "s")
    m["serve.ns_per_op"] = metric(run * 1e9 / ops if run and ops else 0.0, "ns")
    m["serve.generate_s"] = metric(busy(extra_spans, "serve.generate"), "s")
    for name, unit in COUNTS:
        m[name] = metric(counts.get(name, 0), unit)
    for layer in LAYER_SELF:
        m[f"self_s.{layer}"] = metric(med(lambda s, p: self_by_layer(s).get(layer, 0.0)), "s")
    m["trace.overhead"] = metric(statistics.median(p["wall_s"] for p in traced)
                                 / statistics.median(p["wall_s"] for p in untraced), "ratio")
    m["trace.span_coverage"] = metric(
        med(lambda s, p: sum(x["busy_ns"] for x in s if x["parent"] is None) / 1e9 / p["wall_s"]),
        "ratio")
    return m


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the worker is built from, so a run is
    identifiable without git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock", ".py", ".json"))]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(seed):
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    toplevel = first_line(["git", "rev-parse", "--show-toplevel"])
    in_repo = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(ROOT)
    return {
        "cpu_model": cpu_model or platform.processor() or "unknown",
        "cpus_online": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "kernel": platform.release(),
        "rustc": first_line(["rustc", "--version"]),
        "git_rev": first_line(["git", "rev-parse", "HEAD"]) if in_repo else None,
        "source_digest": source_digest(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        n = 1 if args.trace else PROCESSES[args.workload]
        procs = [run_worker(binary, args.workload, args.seed, args.seconds / n, args.trace,
                            os.path.join(work, f"p{i}"), deadline) for i in range(n)]
        if args.trace:
            spans_dir = os.path.join(OUT, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(os.path.join(work, "p0", "spans.jsonl"), spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [dict(p, proc=i) for i, (ps, _) in enumerate(procs) for p in ps]
    digest, failed = check_passes(args.workload, args.seed, passes)
    if args.workload in COHORT and digest is not None:
        for why in cross_check_cohort(args.workload, args.seed, digest):
            failed.update({(p["proc"], p["pass"]): why for p in passes})
    failures = [f"process {proc} pass {n}: {why}" for (proc, n), why in sorted(failed.items())]
    metrics = per_layer(passes, load_spans(spans_path)) if args.trace else end_to_end(procs)

    record = {
        "schema": "perfbench-run/v1",
        "unix_time": time.time(),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": fingerprint(args.seed),
        "processes": [dict(s, pass_walls_s=[p["wall_s"] for p in ps if p["phase"] == "timed"])
                      for ps, s in procs],
        "digest": digest,
        "failures": failures,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    for why in failures:
        print(f"perfbench: FAILED {why}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(passes), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
