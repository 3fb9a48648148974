#!/usr/bin/env bash
# Run-to-run spread of the benchmark's end-to-end metrics.
#
#   bench/e2e/stability.sh OUT RUNS [SEED0] [SECONDS] [WORKLOAD...]
#
# Builds the benchmark, then runs each workload RUNS times, with seeds
# SEED0 .. SEED0+RUNS-1 (default SEED0 = 1, SECONDS = the run_seconds of
# BENCHMARK.json, every workload). Runs alternate between workloads: run
# i of every workload comes before run i+1 of any. Each run appends one
# line to OUT: {"workload", "seed", "wall_s", "result"}, where result is
# the run's last output line. The summary then prints, per workload and
# metric, the median, the quartiles and the spread (Q3 - Q1) / median,
# with Python's statistics.quantiles(values, n=4).
#
#   bench/e2e/stability.sh --compare A B
#
# compares two such files: for every workload and metric, the relative
# difference between the medians of A and B, against the metric's bound
# in BENCHMARK.json. Run from the root of the repository.
set -euo pipefail

summarize() {
  python3 - "$@" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in bench["end_to_end"]}

def load(path):
    runs = {}
    for line in open(path):
        r = json.loads(line)
        runs.setdefault(r["workload"], []).append(r)
    return runs

def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3

if sys.argv[1] == "--compare":
    a, b = load(sys.argv[2]), load(sys.argv[3])
    print(f"{'workload':<12} {'metric':<12} {'median A':>14} {'median B':>14} {'B vs A':>8} {'bound':>6}  verdict")
    ok = True
    for w in a:
        for name, m in bounds.items():
            ma = statistics.median(r["result"]["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["result"]["metrics"][name]["value"] for r in b[w])
            worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"{w:<12} {name:<12} {ma:>14.6g} {mb:>14.6g} {(mb - ma) / ma:>+8.2%} {m['bound']:>6.2f}  {'ok' if good else 'WORSE THAN BOUND'}")
    sys.exit(0 if ok else 1)

runs = load(sys.argv[1])
print(f"{'workload':<12} {'metric':<12} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound/3':>8}")
for w, rs in runs.items():
    bad = [r["seed"] for r in rs if not r["result"]["correct"] or r["result"]["failed"]]
    for name, m in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in rs]
        med, q1, q3 = stats(values)
        spread = (q3 - q1) / med
        flag = "" if name == "setup_s" or spread < m["bound"] / 3 else "  WIDE"
        print(f"{w:<12} {name:<12} {len(values):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%} {m['bound'] / 3:>8.2%}{flag}")
    walls = [r["wall_s"] for r in rs]
    print(f"{w:<12} {'(run wall)':<12} {len(walls):>3} {statistics.median(walls):>14.3f} s, max {max(walls):.3f} s"
          + (f"; incorrect or failed at seeds {bad}" if bad else ""))
EOF
}

if [[ "${1:-}" == "--compare" ]]; then
  summarize --compare "$2" "$3"
  exit
fi

out=${1:?usage: stability.sh OUT RUNS [SEED0] [SECONDS] [WORKLOAD...]}
runs=${2:?usage: stability.sh OUT RUNS [SEED0] [SECONDS] [WORKLOAD...]}
seed0=${3:-1}
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
shift $(( $# < 4 ? $# : 4 ))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

dune build ./bench/e2e/cutfit_bench.exe
exe=./_build/default/bench/e2e/cutfit_bench.exe
for ((i = 0; i < runs; i++)); do
  for w in "${workloads[@]}"; do
    seed=$((seed0 + i))
    t0=$(date +%s%N)
    result=$("$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
    wall_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
    printf '{"workload": "%s", "seed": %d, "wall_s": %d.%03d, "result": %s}\n' \
      "$w" "$seed" $((wall_ms / 1000)) $((wall_ms % 1000)) "$result" >> "$out"
    echo "$w seed $seed: ${wall_ms} ms" >&2
  done
done
summarize "$out"
