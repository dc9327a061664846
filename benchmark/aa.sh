#!/usr/bin/env bash
# A/A check: two sets of untraced runs of the same build, every workload at
# every seed, the second set in reverse workload order. Writes benchmark/AA.md
# with, per workload and end-to-end metric, both medians, their difference
# against the metric's bound, and (with four or more seeds) the spread of each
# set: the distance between its quartiles as a share of its median.
#
#   benchmark/aa.sh              # seeds 1 2, as AA.md is committed
#   SEEDS="1 2 3 4 5 6 7 8 9 10" benchmark/aa.sh   # the driver's spread check
#
#   REPORT_ONLY=1 benchmark/aa.sh                  # rewrite AA.md from the last runs
#
# Exits non-zero if a run fails, a difference exceeds its bound, or a spread
# exceeds its bound.
set -euo pipefail
cd "$(dirname "$0")/.."
SEEDS=${SEEDS:-"1 2"}
OUT=benchmark/out/aa
mkdir -p "$OUT"

mapfile -t CMD < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
REVERSED=()
for ((i = ${#WORKLOADS[@]} - 1; i >= 0; i--)); do REVERSED+=("${WORKLOADS[i]}"); done

run_set() { # <set name> <workloads...>
  local set=$1
  shift
  for seed in $SEEDS; do
    for w in "$@"; do
      echo "set $set seed $seed $w" >&2
      "${CMD[@]}" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 |
        tail -n 1 | sed "s/^{/{\"workload\": \"$w\", \"seed\": $seed, /" >>"$OUT/$set.jsonl"
    done
  done
}
if [ -z "${REPORT_ONLY:-}" ]; then
  rm -f "$OUT"/*.jsonl
  run_set A "${WORKLOADS[@]}"
  run_set B "${REVERSED[@]}"
fi

python3 - "$OUT" "$SEEDS" <<'PY' >benchmark/AA.md
import json, os, platform, statistics, subprocess, sys

out, seeds = sys.argv[1], sys.argv[2].split()
spec = json.load(open("BENCHMARK.json"))

def load(name):
    rows = [json.loads(l) for l in open(f"{out}/{name}.jsonl")]
    bad = [r for r in rows if not r["correct"] or r["failed"]]
    if bad:
        sys.exit(f"set {name}: {len(bad)} runs reported wrong outputs or failed ops")
    return rows

def sh(cmd):
    try:
        return subprocess.run(cmd, shell=True, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "?"

def spread(values):
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

a, b = load("A"), load("B")
print("# A/A: two sets of runs of one build\n")
print("Written by `benchmark/aa.sh`; do not edit. Seeds:", " ".join(seeds), "\n")
print("## Host\n")
print("| | |\n|---|---|")
print(f"| nproc | {os.cpu_count()} |")
print(f"| cpu | {sh('lscpu | sed -n s/^Model.name:[[:space:]]*//p')} |")
caches = sh("lscpu | grep -E '^L[123]' | tr -s ' '").replace("\n", "; ")
print(f"| caches | {caches} |")
print(f"| kernel | {platform.release()} |")
print(f"| rustc | {sh('rustc --version')} |")
print(f"| commit | {sh('git rev-parse --short HEAD 2>/dev/null') or 'not a git checkout'} |")
print(f"| run_seconds | {spec['run_seconds']} |\n")
print("## End-to-end metrics\n")
print("`diff` is how much worse set B's median is than set A's, as a share of A's")
print("(negative: B is better); it must stay within `bound`. `spread` needs four seeds.\n")
print("| workload | metric | unit | median A | median B | diff | bound | spread A | spread B | |")
print("|---|---|---|---|---|---|---|---|---|---|")
failed = False
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        va = [r["metrics"][m["name"]]["value"] for r in a if r["workload"] == w["name"]]
        vb = [r["metrics"][m["name"]]["value"] for r in b if r["workload"] == w["name"]]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(va), spread(vb)
        ok = worse <= m["bound"]
        if m["name"] != "setup_s":
            ok = ok and all(s is None or s <= m["bound"] for s in (sa, sb))
        failed |= not ok
        fmt = lambda s: "-" if s is None else f"{s:.3f}"
        print(f"| {w['name']} | {m['name']} | {m['unit']} | {ma:.6g} | {mb:.6g} | {worse:+.3f} | "
              f"{m['bound']} | {fmt(sa)} | {fmt(sb)} | {'ok' if ok else 'OVER'} |")
print()
print("attempted ops per run:", ", ".join(
    f"{w['name']} {statistics.median(r['attempted'] for r in a + b if r['workload'] == w['name']):.0f}"
    for w in spec["workloads"]))
if failed:
    print("\n**At least one metric is over its bound.**")
    sys.exit(1)
PY
echo "wrote benchmark/AA.md" >&2
