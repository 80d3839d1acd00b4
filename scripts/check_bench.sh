#!/usr/bin/env bash
# Guard the committed A/B pairs. Two modes:
#
#  Kernel mode (default): the shipped blocked kernels in a
#  google-benchmark JSON must not run slower than their retained scalar
#  references beyond a generous noise margin. This is a regression
#  tripwire for shared CI runners, not a performance assertion — locally
#  the blocked kernels are expected to win outright (see BENCH_micro.json).
#
#  Serve mode (--serve): compare two bench_serve_throughput JSONs
#  point-by-point on rank-latency p50 and p99 — the candidate transport
#  must not exceed the baseline beyond the margin. This is the shm↔uds
#  tripwire: shm leads uds on p50 and the two overlap on p99 (see
#  BENCH_serve_uds.json vs BENCH_serve_shm.json, recorded on a 4-core
#  box), so a ladder regression that re-inflates the ring's tail shows
#  up here.
#
# Usage: scripts/check_bench.sh <benchmark.json> [max_ratio]
#        scripts/check_bench.sh --serve <baseline.json> <candidate.json> [max_ratio]
#   max_ratio: candidate / reference ceiling (default 1.25)
set -euo pipefail

if [[ "${1:-}" == "--serve" ]]; then
  BASELINE="${2:?usage: check_bench.sh --serve <baseline.json> <candidate.json> [max_ratio]}"
  CANDIDATE="${3:?usage: check_bench.sh --serve <baseline.json> <candidate.json> [max_ratio]}"
  MAX_RATIO="${4:-1.25}"
  python3 - "$BASELINE" "$CANDIDATE" "$MAX_RATIO" <<'PY'
import json
import sys

base_path, cand_path, max_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(base_path) as f:
    base = json.load(f)
with open(cand_path) as f:
    cand = json.load(f)

def points(doc):
    return {(p["actors"], p["shards"]): p["aggregate"] for p in doc["points"]}

base_pts, cand_pts = points(base), points(cand)
shared = sorted(set(base_pts) & set(cand_pts))
if not shared:
    sys.exit(f"no shared (actors, shards) points between {base_path} and "
             f"{cand_path}")

failures = []
for key in shared:
    for metric in ("rank_latency_p50_ms", "rank_latency_p99_ms"):
        ref = base_pts[key][metric]
        got = cand_pts[key][metric]
        ratio = got / ref if ref > 0 else float("inf")
        status = "ok" if ratio <= max_ratio else "FAIL"
        print(f"  actors={key[0]} shards={key[1]} {metric:22s} "
              f"{cand.get('transport', '?'):6s} {got:8.4f} vs "
              f"{base.get('transport', '?'):6s} {ref:8.4f} "
              f"ratio={ratio:5.2f}  {status}")
        if ratio > max_ratio:
            failures.append(f"{key}/{metric}")
if failures:
    sys.exit(f"{len(failures)} serve latency metric(s) above the "
             f"{max_ratio:.2f}x margin: {', '.join(failures)}")
print(f"check_bench: {2 * len(shared)} serve latency metrics within the "
      f"{max_ratio:.2f}x margin")
PY
  exit 0
fi

JSON="${1:?usage: check_bench.sh <benchmark.json> [max_ratio]}"
MAX_RATIO="${2:-1.25}"

python3 - "$JSON" "$MAX_RATIO" <<'PY'
import json
import sys

path, max_ratio = sys.argv[1], float(sys.argv[2])
with open(path) as f:
    doc = json.load(f)

# name -> cpu_time for plain (non-aggregate) entries.
times = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type", "iteration") == "iteration":
        times[b["name"]] = float(b["cpu_time"])

# (kernel prefix, reference prefix): compared at every shared /arg suffix.
PAIRS = [
    ("BM_Matmul", "BM_MatmulRef"),
    ("BM_MatmulTransposeB", "BM_MatmulTransposeBRef"),
    ("BM_FusedMaskedSoftmax", "BM_MaskedSoftmaxRef"),
]

failures = []
compared = 0
for kernel, ref in PAIRS:
    for name, ref_t in times.items():
        if not name.startswith(ref + "/"):
            continue
        suffix = name[len(ref):]
        kernel_name = kernel + suffix
        if kernel_name not in times:
            continue
        compared += 1
        ratio = times[kernel_name] / ref_t
        status = "ok" if ratio <= max_ratio else "FAIL"
        print(f"  {kernel_name:36s} vs {name:36s} ratio={ratio:5.2f}  {status}")
        if ratio > max_ratio:
            failures.append(kernel_name)

if compared == 0:
    sys.exit(f"no A/B pairs found in {path} — wrong file?")
if failures:
    sys.exit(
        f"{len(failures)} kernel(s) slower than their scalar reference "
        f"beyond the {max_ratio:.2f}x margin: {', '.join(failures)}"
    )
print(f"check_bench: {compared} A/B pairs within the {max_ratio:.2f}x margin")
PY
