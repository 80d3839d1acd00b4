#!/usr/bin/env python3
"""Repository benchmark: builds the workload program and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

Workloads (see perfbench/NOTES.md for why each is there):
  replay_learn  serial replay of the calibrated trace through the DRL framework
  serve_inproc  open-loop arrivals at 200/s into the in-process service
  serve_uds     the same schedule through a LearnerDaemon over a UNIX socket

The workload runs in its own process, so peak RSS is its own. With --trace 0
the result's metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The last line of standard output is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build output goes to stderr. The build lives in $CARGO_TARGET_DIR (default
.bench_build) under the repository root.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_learn", "serve_inproc", "serve_uds")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    out = build()
    work_dir = os.path.join(out, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_workload"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work_dir", os.path.relpath(work_dir, ROOT)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench: workload exited {proc.returncode} "
                         "without a report")
    report = json.loads(lines[-1])

    problems = [f"check {c['name']} failed: {c['detail']}"
                for c in report["checks"] if not c["ok"]]
    want = expected_metrics(args.trace)
    got = report["metrics"]
    if set(got) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    problems += [f"metric {n} has unit {got[n]['unit']}, expected {u}"
                 for n, u in want.items() if n in got and got[n]["unit"] != u]
    if proc.returncode != 0 and not problems:
        problems.append(f"workload exited {proc.returncode}")
    for p in problems:
        log(p)

    info = report["info"]
    host = {k: (info.get(k) if k in info else got.get(k, {}).get("value"))
            for k in ("host.steal_share", "host.cpu_busy_share")}
    log(f"{args.workload} seed={args.seed} attempted={report['attempted']} "
        f"succeeded={report['succeeded']} failed={report['failed']} "
        f"failed_share={report['failed'] / max(1, report['attempted']):.6f}")
    print("host: " + json.dumps(host))
    print("info: " + json.dumps(info))
    result = {
        "correct": report["correct"] and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: got[n] for n in want if n in got},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest():
    out = build()
    return subprocess.run([os.path.join(out, "perfbench_selftest")],
                          cwd=ROOT).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
