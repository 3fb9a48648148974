#!/bin/sh
# Slow oracle: regenerate the five simulated studies and compare them
# byte for byte with the committed files. The studies report simulated
# seconds only (no wall-clock), so any difference means a refactor moved
# a simulated second, a cache decision or a digest. BENCH_speed.json and
# BENCH_chaos.json hold wall-clock readings and are not compared.
#
#   tools/verify_full.sh      exit 0 when all five match, 1 otherwise
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

dune build bench/main.exe

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

studies="workload dynamic faults resilience elastic"
echo "== regenerating studies: $studies"
(cd "$out" && "$root/_build/default/bench/main.exe" $studies >/dev/null)

status=0
for s in $studies; do
  if cmp -s "$out/BENCH_$s.json" "BENCH_$s.json"; then
    echo "BENCH_$s.json: identical"
  else
    echo "BENCH_$s.json: DIFFERS from the committed file" >&2
    status=1
  fi
done
exit $status
