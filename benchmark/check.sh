#!/usr/bin/env bash
# Smoke check, ready for CI: every workload in both modes at --smoke scale.
# Fails if a run exits non-zero, if its result line names a metric twice,
# misses one that BENCHMARK.json lists for that mode, names one it does not
# list, reports a value that is not a finite number, or reports a failed op.
# Run from anywhere; takes about a minute after the build.
set -euo pipefail
cd "$(dirname "$0")/.."
mapfile -t CMD < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in "${WORKLOADS[@]}"; do
  for trace in 0 1; do
    echo "check: $w --trace $trace" >&2
    "${CMD[@]}" --workload "$w" --seed 1 --seconds 1 --trace "$trace" --smoke | tail -n 1 |
      python3 -c '
import json, math, sys
trace = sys.argv[1] == "1"
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    twice = {k for k in keys if keys.count(k) > 1}
    if twice:
        sys.exit(f"printed twice: {sorted(twice)}")
    return dict(pairs)
result = json.loads(sys.stdin.read(), object_pairs_hook=no_duplicates)
if set(result) != {"correct", "attempted", "failed", "metrics"}:
    sys.exit(f"result keys are {sorted(result)}")
got = result["metrics"]
if missing := sorted(set(want) - set(got)):
    sys.exit(f"missing: {missing}")
if unnamed := sorted(set(got) - set(want)):
    sys.exit(f"not in BENCHMARK.json: {unnamed}")
for name, m in got.items():
    if m["unit"] != want[name] or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
        sys.exit(f"{name}: {m}")
if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
    sys.exit(f"failed ops: {result['failed']} of {result['attempted']}")
if trace:
    shares = sum(v["value"] for k, v in got.items() if k.startswith("share."))
    if abs(shares - 1) > 0.02:
        sys.exit(f"shares sum to {shares}")
' "$trace"
  done
done
for w in "${WORKLOADS[@]}"; do
  test -s "benchmark/out/trace-$w.json" || { echo "no trace file for $w" >&2; exit 1; }
done
echo "check: ok" >&2
