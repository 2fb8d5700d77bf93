#!/usr/bin/env python3
"""c3dsim benchmark: build c3d-perfbench, run one workload, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus the
c3d-perfbench program) into .bench_build/, then runs the workload's
closed batch in fresh processes, back to back, for S seconds (at least
MIN_BATCHES of them). Every batch is checked: each row must commit
instructions, measure ticks and keep every scheduled callback inline,
and every batch of one seed must print the same result-CSV digest and
the same digest over all simulator counters.

--trace 0 reports the end-to-end metrics (medians over the batches);
--trace 1 runs untraced batches, then one traced batch, checks that
its digests equal the untraced ones, and reports the per-layer metrics
plus the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed check exits 1.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "c3d-perfbench")

# Rows per batch, for counting the rows of a batch that crashed.
WORKLOADS = {
    "coherence-mix": 3,
    "dcache-stream": 1,
    "par-trace": 1,
    "tlb-singlequeue": 1,
}
TRACE_WORKLOADS = {"par-trace"}

MIN_BATCHES = 3
BATCH_TIMEOUT_S = 150

# name -> unit. Descriptions and the metric each layer should move are
# in perfbench/README.md.
END_TO_END = {
    "wall_s": "s",
    "sim_mrefs_per_s": "Mrefs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_ref": "events/ref",
    "sim.ns_per_event": "ns",
    "sim.heap_callbacks": "count",
    "sim.run_s": "s",
    "sim.setup_s": "s",
    "sim.par_speedup": "x",
    "sim.events_per_cell": "events/cell",
    "cpu.refs": "count",
    "cpu.instructions": "count",
    "cache.l1_miss_ratio": "ratio",
    "cache.llc_accesses": "count",
    "cache.llc_miss_ratio": "ratio",
    "cache.replay_ns_per_access": "ns",
    "dramcache.probes": "count",
    "dramcache.hit_ratio": "ratio",
    "dramcache.inserts": "count",
    "dramcache.predicted_absent_ratio": "ratio",
    "dramcache.channel_busy_ratio": "ratio",
    "dramcache.replay_ns_per_probe": "ns",
    "coherence.transactions": "count",
    "coherence.blocked_ratio": "ratio",
    "coherence.invalidations": "count",
    "coherence.broadcasts": "count",
    "coherence.snoops": "count",
    "coherence.forwards": "count",
    "coherence.inv_phase_ticks_mean": "ticks",
    "interconnect.packets": "count",
    "interconnect.link_bytes": "bytes",
    "interconnect.bytes_per_ref": "bytes/ref",
    "interconnect.replay_ns_per_packet": "ns",
    "mem.reads": "count",
    "mem.writes": "count",
    "mem.remote_ratio": "ratio",
    "mem.channel_busy_ratio": "ratio",
    "mem.replay_ns_per_read": "ns",
    "mapping.broadcasts_elided": "count",
    "mapping.elided_ratio": "ratio",
    "trace.gen_ns_per_ref": "ns",
    "trace.read_ns_per_ref": "ns",
    "trace.scan_s": "s",
    "exp.expand_s": "s",
    "exp.serialize_s": "s",
    "exp.rows": "count",
    "model.measured_ticks": "ticks",
    "model.ipc": "ratio",
    "model.c3d_speedup": "x",
    "bench.tracing_overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build c3d-perfbench; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("perfbench: build failed: " + " ".join(cmd))
                return False
    return True


def run_batch(workload, seed, trace_file, traced):
    """One batch in its own process; the parsed JSON line or None."""
    cmd = [BINARY, "run", "--workload=" + workload, "--seed=%d" % seed]
    if trace_file:
        cmd.append("--trace-file=" + trace_file)
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: batch timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        batch = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        batch = None
    if batch is None:
        log("perfbench: batch exited %d without a result" % proc.returncode)
        return None
    for err in batch["errors"]:
        log("perfbench: " + err)
    if proc.returncode != 0 and not batch["errors"]:
        batch["errors"].append("exit code %d" % proc.returncode)
    return batch


def run_batches(workload, seed, trace_file, seconds):
    """Batches for @p seconds (at least MIN_BATCHES). Returns
    (batches, failed batch or None)."""
    start = time.monotonic()
    batches = []
    while True:
        batch = run_batch(workload, seed, trace_file, traced=False)
        if batch is None or batch["errors"]:
            return batches, batch or {"attempted": WORKLOADS[workload],
                                      "rows": 0}
        batches.append(batch)
        elapsed = time.monotonic() - start
        typical = statistics.median(b["wall_s"] for b in batches)
        if len(batches) >= MIN_BATCHES and elapsed + typical > seconds:
            return batches, None


def check_same(batches, reference):
    """Rows of batches whose digests differ from @p reference."""
    bad = 0
    for b in batches:
        for key in ("digest", "counts_digest"):
            if b[key] != reference[key]:
                log("perfbench: %s %s differs from %s (non-determinism)"
                    % (key, b[key], reference[key]))
                bad += b["attempted"]
                break
    return bad


def end_to_end(batches):
    samples = {
        "wall_s": [b["wall_s"] for b in batches],
        "sim_mrefs_per_s": [b["refs"] / b["run_s"] / 1e6 for b in batches],
        "setup_s": [b["setup_s"] for b in batches],
        "peak_rss_mb": [b["peak_rss_mb"] for b in batches],
    }
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        log("perfbench: %-16s median %.6g  q1 %.6g  q3 %.6g  (n=%d)"
            % (name, med, q1, q3, len(values)))
        metrics[name] = {"value": med, "unit": END_TO_END[name]}
    return metrics


def record_trace(workload, seed, tmpdir):
    path = os.path.join(tmpdir, "%s-seed%d.c3dt" % (workload, seed))
    cmd = [BINARY, "record", "--workload=" + workload, "--seed=%d" % seed,
           "--out=" + path]
    if subprocess.run(cmd).returncode != 0:
        return None
    return path


def measure(args, trace_file):
    """Run the workload; returns (attempted, failed, metrics)."""
    seconds = args.seconds / 2 if args.trace else args.seconds
    batches, failure = run_batches(args.workload, args.seed, trace_file,
                                   seconds)
    attempted = sum(b["attempted"] for b in batches)
    if failure is not None:
        attempted += failure["attempted"]
        return attempted, max(1, failure["attempted"] - failure["rows"]), {}
    failed = check_same(batches[1:], batches[0])
    print("digest %s counts %s batches %d" % (
        batches[0]["digest"], batches[0]["counts_digest"], len(batches)))
    if not args.trace:
        return attempted, failed, end_to_end(batches)

    traced = run_batch(args.workload, args.seed, trace_file, traced=True)
    if traced is None or traced["errors"]:
        rows = WORKLOADS[args.workload]
        return attempted + rows, failed + rows, {}
    attempted += traced["attempted"]
    failed += check_same([traced], batches[0])
    layers = dict(traced["layers"])
    layers["bench.tracing_overhead_s"] = (
        traced["wall_s"] - statistics.median(b["wall_s"] for b in batches))
    if set(layers) != set(PER_LAYER):
        log("perfbench: c3d-perfbench layer metrics differ from PER_LAYER: %s"
            % sorted(set(layers) ^ set(PER_LAYER)))
        return attempted, failed + 1, {}
    spans = os.path.join(BUILD, "spans-%s-seed%d.json"
                         % (args.workload, args.seed))
    with open(spans, "w") as f:
        json.dump({"columns": ["name", "parent", "start_s", "end_s"],
                   "spans": traced["spans"]}, f)
    log("perfbench: spans written to " + spans)
    metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]}
               for name in PER_LAYER}
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not build():
        return 1
    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=BUILD)
    try:
        trace_file = None
        if args.workload in TRACE_WORKLOADS:
            trace_file = record_trace(args.workload, args.seed, tmpdir)
            if trace_file is None:
                log("perfbench: recording the input trace failed")
                return 1
        attempted, failed, metrics = measure(args, trace_file)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
