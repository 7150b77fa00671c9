#!/usr/bin/env python3
"""Build and run one workload of the GFSL wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-manifest

The first form builds the `perfbench` package from source (into
$CARGO_TARGET_DIR, default `.bench_build`), runs the workload, prints every
metric by name and unit, and ends with one JSON line: `correct`,
`attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
per-layer metrics (`--trace 1`). A failed build, check, stall or timeout
exits non-zero without that line.

The second form writes BENCHMARK.json at the repository root from the
tables below, which are the benchmark's single definition.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = os.path.basename(HERE)

RUN_SECONDS = 20
# A run still going after this long is treated as hung.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870

WORKLOADS = [
    ("engine-mix",
     "engine only: 2 threads run the paper's 20/20/60 mix on a 1M-key list larger than L2, "
     "so a gfsl-core, simt or gpu-mem change shows at full size"),
    ("edge-kv",
     "TCP edge with one worker: syscalls, framing, epochs and flushes dominate a ~300 us round trip "
     "of which the engine is ~1 us, so an edge change shows here"),
    ("serve-durable",
     "serve epoch batcher acking through WAL group commit under fdatasync, then recovery: "
     "writes and durability, with no edge"),
]

# (name, unit, better, bound). Every metric applies to every workload. The
# p99s are printed but not listed: their spread between identical runs is
# above a tenth on every workload (see README.md).
END_TO_END = [
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("read_p50_us", "us", "lower", 0.25),
    ("write_p50_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better). A layer a workload does not run reports 0.
PER_LAYER = [
    ("core.chunk_reads_per_op", "reads/op", "lower"),
    ("core.certify_retries_per_read", "retries/read", "lower"),
    ("core.lock_retries_per_write", "retries/write", "lower"),
    ("core.search_restarts_per_mop", "restarts/Mop", "lower"),
    ("core.splits_per_kop", "splits/kop", "lower"),
    ("core.merges_per_kop", "merges/kop", "lower"),
    ("mem.epoch_advances_per_op", "advances/op", "lower"),
    ("mem.retired_per_kop", "chunks/kop", "lower"),
    ("mem.reuse_ratio", "ratio", "higher"),
    ("mem.chunks_high_water", "chunks", "lower"),
    ("edge.ping_p50_us", "us", "lower"),
    ("edge.scan_p50_us", "us", "lower"),
    ("edge.ops_per_epoch", "ops/epoch", "higher"),
    ("edge.epochs_per_s", "epochs/s", "higher"),
    ("engine.exec_ns_per_op", "ns/op", "lower"),
    ("serve.acks_per_commit", "acks/commit", "higher"),
    ("wal.commit_p50_us", "us", "lower"),
    ("wal.commit_p99_us", "us", "lower"),
    ("wal.commit_wall_share", "ratio", "lower"),
    ("wal.records_per_commit", "records/commit", "higher"),
    ("wal.bytes_per_record", "bytes/record", "lower"),
    ("recover.reopen_s", "s", "lower"),
    ("recover.replay_records_per_s", "records/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
]


def manifest():
    return {
        "command": ["python3", f"{PKG}/run.py"],
        "paths": [PKG],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def build():
    """Build the benchmark binary; returns its path or exits non-zero."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PKG, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_binary(binary, args):
    """Run one workload; returns its parsed report or exits non-zero."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(PKG, "out")]
    pin = None
    if args.workload == "serve-durable":
        # Its serve loop and its one worker never run at once (every client
        # waits on the same epoch). On one CPU their hand-offs do not wake a
        # halted vCPU, whose wake-up time on a shared VM follows other
        # tenants' load (see README.md).
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, preexec_fn=pin,
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} failed with exit code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from this file's tables and exit")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")

    report = run_binary(build(), args)
    measured = report["metrics"]
    table = PER_LAYER if args.trace else [(n, u, b) for n, u, b, _ in END_TO_END]
    metrics = {}
    for name, unit, _ in table:
        m = measured.get(name)
        if m is None:
            if not args.trace:
                sys.exit(f"perfbench: {args.workload} did not report {name}")
            print(f"metric {name} = 0 {unit} (layer not on {args.workload}'s path)")
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            sys.exit(f"perfbench: {name} reported in {m['unit']}, expected {unit}")
        metrics[name] = m
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
