#!/usr/bin/env python3
"""End-to-end benchmark of the client -> agent -> server path.

Run from the root of a checkout:

    python3 nsbench/run.py --workload small_solve --seed 1 --seconds 15 --trace 0

Builds the libraries, the standalone daemons and the load generator from
source (into $CARGO_TARGET_DIR, default .bench_build), deploys one agent and
two servers as child processes, drives the workload, checks every reply, and
prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See nsbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small_solve", "bulk_transfer", "compute_mix")
# Set-ups per --trace 0 run (the measured run's own set-up is one more);
# setup_s is their median.
SETUP_REPEATS = 4
DAEMONS = ("netsolve_agent", "netsolve_server")


def fail(message):
    print(f"nsbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no NetSolve source tree under {ROOT}")
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        steps = [["cmake", "-S", str(ROOT / "nsbench"), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)]]
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed; see {log}")


def generator(build_dir, out_dir, args, mode):
    """Run nsbench_gen once and return its JSON result."""
    command = [str(build_dir / "nsbench_gen"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", str(build_dir / "ns_examples"), "--out-dir", str(out_dir)]
    if args.tamper_every:
        command += ["--tamper-every", str(args.tamper_every)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 90)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run timed out")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"{mode} run failed (exit {done.returncode}); logs in {out_dir}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def leftover_daemons(build_dir):
    """Daemons started from this build that are still running."""
    wanted = {str((build_dir / "ns_examples" / name).resolve()) for name in DAEMONS}
    alive = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            if os.readlink(proc / "exe") in wanted:
                alive.append(int(proc.name))
        except OSError:
            continue
    return alive


def report(args, spec, result, setups, metrics):
    host = result["host"]
    print(f"nsbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"calls: attempted={result['attempted']} failed={result['failed']} "
          f"error_ratio={result['failed'] / result['attempted']:.6g}")
    for why in result["failures"]:
        print(f"  failure: {why['why']}")
    if setups:
        print(f"set-ups: {' '.join(f'{s:.4f}' for s in setups)} s")
    for entry in spec:
        name = entry["name"]
        print(f"  {name:34s} {metrics[name]['value']:14.6g} {entry['unit']}")
    raw = result["metrics"]
    print(f"bounded metrics over the {int(raw['quiet_calls'])} calls that ended in the seconds "
          f"with host steal at most {100 * raw['quiet_max_steal']:.2f}%")
    tail = f"p{round(result['tail_quantile'] * 100)}"
    print(f"context, not gated (see README): calls_per_s {raw['e2e.calls_per_s']:.6g} 1/s, "
          f"call_p90_ms {raw['e2e.call_p90_ms']:.6g}, call_p99_ms {raw['e2e.call_p99_ms']:.6g} "
          f"(call_{tail}_ms has {int(result['samples_beyond_tail'])} calls beyond), "
          f"host steal {100 * raw['host.steal_frac']:.2f}%")
    if "peak_rss_mb" in raw:
        print(f"summed VmHWM of agent and servers: {raw['peak_rss_mb']:.6g} MB")
    if args.trace:
        parts = ["client", "agent", "serial", "dsl", "net", "server"]
        split = "  ".join(f"{p} {100 * metrics[f'split.{p}_frac']['value']:.1f}%" for p in parts)
        print(f"call time split: {split}  unattributed "
              f"{100 * metrics['net.unattributed_frac']['value']:.1f}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper-every", type=int, default=0,
                        help="corrupt every K-th reply before checking it (tests)")
    args = parser.parse_args()

    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        fail(f"{bench} is missing")
    spec = json.loads(bench.read_text())["per_layer" if args.trace else "end_to_end"]
    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build(build_dir)
    out_dir = build_dir / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setups = []
    if not args.trace:
        setups = [generator(build_dir, out_dir, args, "setup")["setup_s"]
                  for _ in range(SETUP_REPEATS)]
    result = generator(build_dir, out_dir, args, "run")
    setups.append(result["setup_s"])
    raw = dict(result["metrics"], setup_s=statistics.median(setups))

    alive = leftover_daemons(build_dir)
    if alive:
        fail(f"daemons outlived the run: pids {alive}")
    missing = [entry["name"] for entry in spec if entry["name"] not in raw]
    if missing:
        fail(f"the generator did not report {missing}")
    metrics = {e["name"]: {"value": raw[e["name"]], "unit": e["unit"]} for e in spec}
    report(args, spec, result, setups if not args.trace else [], metrics)
    if result["samples_beyond_tail"] < 10:
        print(f"nsbench: warning: only {int(result['samples_beyond_tail'])} calls beyond "
              f"the tail percentile", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
