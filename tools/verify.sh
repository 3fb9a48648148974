#!/bin/sh
# Tier-1 verification: build + tests, plus documentation and formatting
# checks when the tools exist in the switch. odoc and ocamlformat are
# not part of the minimal container image, so those steps gate on
# availability instead of failing the whole run.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== golden-digest grid (six partitioners x clusters (i)-(iv), every engine and perturbation)"
# exits 1 on any trace, event-stream or value digest mismatch
dune exec test/golden/golden_grid.exe

echo "== workload golden corpus (hand cases + 100 chaos workload phases)"
# exits 1 on any report or event-stream digest mismatch
dune exec test/golden/workload_grid.exe

echo "== bench/e2e golden digests (six workloads x seeds 1 and 2, one untimed pass each)"
# exits non-zero when a workload's output digest differs from the one
# committed in bench/e2e/golden.ml
for w in repro jobs-churn jobs-mutate chaos kernels triangles; do
  for s in 1 2; do
    _build/default/bench/e2e/cutfit_bench.exe --workload "$w" --seed "$s" --seconds 0 >/dev/null
  done
done

echo "== dune build @lint (race linter + fixture self-test + JSON artifact)"
dune build @lint
test -s _build/default/lint.json || {
  echo "lint did not produce _build/default/lint.json" >&2
  exit 1
}
grep -q '"clean":true' _build/default/lint.json || {
  echo "lint.json reports findings:" >&2
  cat _build/default/lint.json >&2
  exit 1
}

echo "== lint ratchet (lib/ exports with no caller outside test/)"
# @lint counts test/ as a caller. This pass does not, so every lib/
# export needs a caller in lib/, bin/, bench/ or examples/, or a line in
# this list: a test hook that a check-the-checker test needs and no
# public path reaches, or a keeper for an open ROADMAP item. A new
# test-only export fails here, and so does a listed name that no longer
# needs listing. Once the list is empty, drop --use-only test from @lint.
#   Ownership.epoch/writes_seen/reads_seen  races "ownership clean",
#     "shadow hook on the four kernels"
#   Pgraph_check.view_of_pgraph/validate_view  check "pgraph: edge
#     coverage" and the other corrupted-view cases
#   Kernel_check.seeded_foreign_write/seeded_premature_read  races
#     "seeded foreign write caught", "seeded premature read caught"
#   Dyn_check.graph_identity  dynamic "dyn check catches bad graph"
#   Clock.fixed/counter, Metric.time  ROADMAP item 2 (wall-clock spans)
lint_hooks="Ownership.epoch Ownership.writes_seen Ownership.reads_seen
Pgraph_check.view_of_pgraph Pgraph_check.validate_view
Kernel_check.seeded_foreign_write Kernel_check.seeded_premature_read
Dyn_check.graph_identity Clock.fixed Clock.counter Metric.time"
lint_out=$(_build/default/tools/lint/lint.exe --use-only bench --use-only examples lib bin 2>&1 || true)
lint_found=$(echo "$lint_out" | sed -n 's/.*\[unused-export\] \([A-Za-z0-9_.]*\) is exported.*/\1/p')
lint_bad=""
for name in $lint_found; do
  case " $(echo $lint_hooks) " in
  *" $name "*) ;;
  *) lint_bad="$lint_bad $name" ;;
  esac
done
for name in $lint_hooks; do
  case " $(echo $lint_found) " in
  *" $name "*) ;;
  *) lint_bad="$lint_bad $name(listed-but-not-reported)" ;;
  esac
done
if [ -n "$lint_bad" ] || echo "$lint_out" | grep ': \[' | grep -qv '\[unused-export\]'; then
  echo "lint ratchet: unexpected findings:$lint_bad" >&2
  echo "$lint_out" >&2
  exit 1
fi

echo "== help text (every subcommand's --help=plain renders without a cmdliner error)"
for sub in "" datasets generate characterize partition advise run compare workload check \
  mutate chaos; do
  # $sub is unquoted so the empty entry checks the top-level page
  out=$(_build/default/bin/cutfit_cli.exe $sub --help=plain 2>&1)
  if echo "$out" | grep -q "cmdliner error"; then
    echo "cutfit $sub --help=plain reports cmdliner errors:" >&2
    echo "$out" | grep "cmdliner error" >&2
    exit 1
  fi
done

echo "== hostile edge-list files (structured error, exit 2, never an uncaught exception)"
# each file names itself and the bad line in a one-line usage error
hdir=$(mktemp -d)
printf 'a\tb\n' >"$hdir/tab.edges"
printf '0 1\n1 x\n' >"$hdir/word.edges"
printf -- '-3 2\n' >"$hdir/negative.edges"
printf '0 4611686018427387900\n' >"$hdir/huge.edges"
# a legal id whose vertex arrays do not fit a 2 GB address space
printf '0 1000000000000\n' >"$hdir/oom.edges"
for f in tab:1: word:2: negative:1: huge:1: "oom: vertex id 1000000000000 needs 1000000000001 vertices"; do
  file="$hdir/${f%%:*}.edges"
  set +e
  out=$(
    ulimit -v 2000000
    _build/default/bin/cutfit_cli.exe characterize "$file" 2>&1
  )
  got=$?
  set -e
  if [ "$got" != 2 ] || echo "$out" | grep -q "internal error" ||
    ! echo "$out" | grep -qF "$file:${f#*:}"; then
    echo "characterize $file: want exit 2 and '$file:${f#*:}...', got exit $got:" >&2
    echo "$out" >&2
    exit 1
  fi
done
rm -rf "$hdir"

echo "== paranoid sanitizer pass"
dune exec bin/cutfit_cli.exe -- check PR roadnet_pa
dune exec bin/cutfit_cli.exe -- run CC roadnet_pa --paranoid >/dev/null

echo "== race sanitizer smoke (shadow ownership recorder, 4 domains)"
# the races suite: the production CSR kernels run with a shadow
# write-ownership recorder at domain counts 1, 2, 4, plus the
# seeded-corruption self-check
dune exec bin/cutfit_cli.exe -- check PR roadnet_pa --races --domains 4
dune exec bin/cutfit_cli.exe -- check TR roadnet_pa --races >/dev/null

echo "== multicore smoke (csr engine, 4 domains)"
# the compact kernels on OCaml domains; check adds the engines suite,
# which proves boxed-vs-csr bit-identity at domain counts 1, 2 and 4
dune exec bin/cutfit_cli.exe -- check PR roadnet_pa --engine csr --domains 4 >/dev/null
dune exec bin/cutfit_cli.exe -- check CC roadnet_pa --engine csr --domains 4 >/dev/null
dune exec bin/cutfit_cli.exe -- check SSSP roadnet_pa --engine csr --domains 4 >/dev/null
dune exec bin/cutfit_cli.exe -- check TR roadnet_pa --engine csr --domains 4 >/dev/null
# both engines print one summary line through the same table entry:
# the csr kernels at four domains must print the boxed engine's line.
# The plain boxed SSSP run reproduces the paper's out-of-memory abort
# on a road network and stops with partial distances; checkpointing
# lets it finish. A run that exits non-zero fails the check, whatever
# it printed.
summary_of() {
  out=$(dune exec bin/cutfit_cli.exe -- run "$@") || {
    echo "run $*: exit $?" >&2
    return 1
  }
  printf '%s\n' "$out" |
    grep -E '^(top vertex|components|triangles|vertices reaching landmark 0)' || true
}
for a in PR CC TR SSSP; do
  finish=""
  [ "$a" = SSSP ] && finish="--checkpoint-every 10"
  # shellcheck disable=SC2086 # $finish is empty or one flag and its value
  boxed=$(summary_of "$a" roadnet_pa $finish)
  csr=$(summary_of "$a" roadnet_pa --engine csr --domains 4)
  if [ -z "$boxed" ] || [ "$boxed" != "$csr" ]; then
    echo "run $a roadnet_pa: boxed summary '$boxed' <> csr summary '$csr'" >&2
    exit 1
  fi
done
# the plain boxed SSSP run stops out of memory: its summary line must
# say that its count is partial and name the outcome
got=$(summary_of SSSP roadnet_pa)
want="vertices reaching landmark 0: 9735 (partial: the run ended out-of-memory)"
if [ "$got" != "$want" ]; then
  echo "run SSSP roadnet_pa: want '$want', got '$got'" >&2
  exit 1
fi
# the forward triangle kernel must print the counts the partition-order
# kernel printed, at one domain and at four
for d in 1 4; do
  for want in 5,191:youtube 239,419:pocek; do
    got=$(summary_of TR "${want#*:}" --engine csr --domains "$d")
    if [ "$got" != "triangles: ${want%%:*}" ]; then
      echo "run TR ${want#*:} --engine csr --domains $d: want 'triangles: ${want%%:*}', got '$got'" >&2
      exit 1
    fi
  done
done

echo "== workload smoke (20 jobs, checked + digested)"
dune exec bin/cutfit_cli.exe -- workload --jobs 20 --check >/dev/null

echo "== seeded fault smoke (recovery equivalence + faulty workload)"
# the sixth sanitizer suite: faulty run must be bit-identical to the
# fault-free baseline
dune exec bin/cutfit_cli.exe -- check PR roadnet_pa \
  --faults 'crash@3,straggler@1-2:x3' --checkpoint-every 3 >/dev/null
# a survivable faulty workload must pass its own sanitizer and digest
dune exec bin/cutfit_cli.exe -- workload --jobs 12 --check \
  --faults 'straggler@1-2:x3,loss@2' --checkpoint-every 3 >/dev/null

echo "== overload smoke (speculation + admission control)"
# straggler-heavy stream with speculative re-execution: value
# equivalence, shed/deadline/breaker conservation and the run-twice
# digest all ride on --check
dune exec bin/cutfit_cli.exe -- workload --jobs 16 --policy sjf \
  --faults 'straggler@2:x8' --speculate --check >/dev/null
# a tiny queue bound must shed jobs (permanent failures -> exit 1)
# while the sanitizer stays green on the same run; the digest is
# pinned, so a moved shed, deadline, breaker or failure line fails here
shed_digest=cd2ffd191dcabcb3f8189b39969d2dc1
set +e
out=$(dune exec bin/cutfit_cli.exe -- workload --jobs 16 --queue-bound 2 \
  --deadline-factor 6 --breaker-k 2 --backpressure 3 --check 2>/dev/null)
got=$?
set -e
if [ "$got" != 1 ]; then
  echo "expected exit 1 from the shedding workload, got $got" >&2
  exit 1
fi
echo "$out" | grep -q "workload check: ok (digest $shed_digest)" || {
  echo "shedding workload failed its sanitizer or its digest moved (want $shed_digest):" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -q "admission: queue bound 2 (reject): 12 job(s) shed" || {
  echo "shedding workload did not shed the expected 12 jobs:" >&2
  echo "$out" >&2
  exit 1
}

echo "== dynamic-graph smoke (mutation batches + priced repartitioning)"
# the standalone mutation driver, with the three dynamic-graph laws
dune exec bin/cutfit_cli.exe -- mutate youtube -n 16 \
  --mutations 'ins@1-4:r64,del@1-4:r16' --check >/dev/null
# the refresh of a hub-heavy and a road cut under every heuristic at
# P = 128: each batch's moved count, replication factor and balance
# are printed, so a refresh that places an insert or counts a replica
# differently moves the stdout digest
for pin in youtube:greedy:8061d23e5cc5353aba662a30ea3900a4 \
  youtube:hdrf:503f57785f76dc9ac4b8be0845af6f08 \
  youtube:dbh:ed2514542adae2dbba0232a930832659 \
  youtube:hybrid:e26c27266db126dd8e30b1b1705729cf \
  roadnet_pa:greedy:f4c4d1d22d0cd1c9c278e2d1eb5a6f80 \
  roadnet_pa:hdrf:b29a16b15088dc58758baeb4fecdf709 \
  roadnet_pa:dbh:5ac2f4046d1e11a22d67962e9fe959e1 \
  roadnet_pa:hybrid:1b28d81f90633c5040111376dcb493b7; do
  ds=${pin%%:*} rest=${pin#*:}
  h=${rest%%:*} want=${rest#*:}
  got=$(dune exec bin/cutfit_cli.exe -- mutate "$ds" -n 128 -H "$h" \
    --mutations 'ins@1-4:r64,del@1-4:r16' --check | md5sum | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "mutate $ds -n 128 -H $h: stdout digest $got, want $want" >&2
    exit 1
  fi
done
# a mutating workload must pass the full sanitizer (cache conservation
# now includes partial invalidations) and keep its run-twice digest;
# the digest is pinned, so a batch that refreshes, prices or counts
# moved replicas differently fails here
mutate_digest=c3b2264c804260de319f0eb71270276f
out=$(dune exec bin/cutfit_cli.exe -- workload --jobs 16 \
  --mutations 'ins@1-8:r64,del@1-8:r16' --mutate-every 4 --check)
echo "$out" | grep -q "workload check: ok (digest $mutate_digest)" || {
  echo "mutating workload digest moved (want $mutate_digest):" >&2
  echo "$out" | tail -3 >&2
  exit 1
}
# a long reuse-heavy stream: most jobs hit a cached partitioning whose
# trace for their algorithm is already priced, so they take it in place
# of a run; the digest is the one every job running afresh printed
reuse_digest=429b68bcf3971497124f36f100c41289
out=$(dune exec bin/cutfit_cli.exe -- workload --mix reuse-heavy --jobs 200 --seed 42 --check)
echo "$out" | grep -q "workload check: ok (digest $reuse_digest)" || {
  echo "reuse-heavy workload digest moved (want $reuse_digest):" >&2
  echo "$out" | tail -3 >&2
  exit 1
}
# the seventh sanitizer suite: delta-identity, refreshed-cut laws and
# refresh-rebuild value equivalence
dune exec bin/cutfit_cli.exe -- check PR youtube --dynamic >/dev/null

echo "== elastic smoke (scale events + two tenants, checked)"
# membership churn plus a preemption over a weighted two-tenant stream;
# --check rides the fairness, quota and scale-event laws, and the digest
# is pinned, so a moved retries, joins, leaves or preemptions line fails
# here; the elastic sanitizer suite proves values stay bit-identical.
# The report echoes the schedule canonically (leave@5,join@9+2,preempt@12),
# and the digest covers that echo
elastic_digest=dcac3492b140fd2a5e3e23c00237ef95
out=$(dune exec bin/cutfit_cli.exe -- workload --jobs 20 --slots 2 \
  --tenants 'acme:3,beta:1' --tenant-weights 'acme:3,beta:1' --fairness \
  --scale-events 'leave@5-1,join@9+2,preempt@12:r1' --check)
echo "$out" | grep -q "workload check: ok (digest $elastic_digest)" || {
  echo "elastic workload digest moved (want $elastic_digest):" >&2
  echo "$out" | tail -3 >&2
  exit 1
}
# the eighth sanitizer suite: elastic run vs static baseline
dune exec bin/cutfit_cli.exe -- check PR roadnet_pa \
  --elastic 'leave@2-1,join@4+2' --hetero draw >/dev/null
# pinned digests of checked runs: `expect_check_digests TRACE EVENTS
# ARGS...` runs `cutfit check ARGS...` and fails unless it passes and
# prints both digests
expect_check_digests() {
  trace="$1" events="$2"
  shift 2
  if ! out=$(dune exec bin/cutfit_cli.exe -- check "$@"); then
    echo "check $* failed:" >&2
    echo "$out" >&2
    exit 1
  fi
  if ! echo "$out" | grep -q "trace digest  $trace" ||
    ! echo "$out" | grep -q "events digest $events"; then
    echo "check $* digests moved:" >&2
    echo "$out" >&2
    exit 1
  fi
}
# a placement the engine failed to refresh after a membership change
# moves wire bytes, so these fail loudly
expect_check_digests ad03cd0ff3f53076b5cf47da851fac2f c59331ae594b38c1d54e6da1f593869e \
  SSSP roadnet_pa --elastic 'leave@2-1,join@4+2' --hetero draw
expect_check_digests f67313892633df9dabc6e569dc91c5fa 66b36a0e1730b4ed5313ab6cb2ed8a1e \
  CC youtube --elastic 'leave@2-1,join@4+2' --hetero draw
# every itemized record kind at once (5 checkpoints, 1 recovery, 2
# clones, 2 reshuffles): the trace digest serializes the recovery and
# speculation sums, so a fold in another order moves it
expect_check_digests 08166d11f3e81f21fa3ec83c59905c28 c159a56112d063e058471566015a049d \
  PR roadnet_pa --faults 'crash@2,straggler@3-4:x20' --checkpoint-every 2 --speculate \
  --elastic 'leave@4-1,join@5+1'

echo "== repeated PageRank supersteps (priced from the last charged step's counts)"
# every PageRank superstep whose active edges and placement repeat the
# last charged one reuses that step's counts, and the determinism replay
# prices it without running it; a reused step that would have charged
# differently moves these digests. The elastic run reshuffles twice, and
# each reshuffle must break the reuse.
expect_check_digests e4b7e5120ccee4bec838f86dfade6735 146fb2012e82cabe52577b806a3fb6e8 \
  PR youtube
expect_check_digests ceae99e7d86567f6db1cf162dcb57ddf bc69114c82ef76fbf5a030860489b2ac \
  PR roadnet_pa
expect_check_digests 4306b1e4a44e1956504b89c09b253823 6db9f2a533f514d3d2aa91488c5107ba \
  PR youtube --elastic 'leave@2-1,join@4+2' --hetero draw
# pocek has vertices with no in-edge: its step-2 frontier drops them,
# while every edge stays active through its target, so step 2 repeats
expect_check_digests f441375953cc6ee8b460814fc0029151 82fe3172d2031a1687547aab8410cbf4 \
  PR pocek

echo "== frontier-driven supersteps (sanitized runs that are mostly sparse)"
# nearly every superstep of SSSP on roadnet_pa visits only the
# frontier's edges; a sparse step that visits another edge set or
# charges its skipped edges in another order moves these digests
expect_check_digests 40a6324b942d2b911f718cbc8f034901 82bdcd546f3155b1665e55d54a8ae16f \
  SSSP roadnet_pa
expect_check_digests 5c5f49301c1b05aaf207e01662087d3a 8f35794e7972aea29d61c38165860bc9 \
  CC youtube

echo "== chaos smoke (25-scenario seeded campaign, shrink off)"
# the cross-subsystem chaos harness: every scenario through the real
# engines + the full sanitizer battery, fork-isolated under a budget;
# exit 0 requires zero violations and zero crashes (hung tolerated)
dune exec bin/cutfit_cli.exe -- chaos --count 25 --seed 1 --no-shrink \
  --report _build/chaos_smoke.json
grep -q '"digest"' _build/chaos_smoke.json || {
  echo "chaos smoke report is missing its digest" >&2
  exit 1
}
# the campaign digest pins every scenario's spec and outcome: a check
# layer that skips work must still reach the same verdicts
chaos_smoke_digest=225470b6051285343fcd075e2185052a
grep -q "\"digest\": *\"$chaos_smoke_digest\"" _build/chaos_smoke.json || {
  echo "chaos smoke digest moved (want $chaos_smoke_digest):" >&2
  grep -o '"digest": *"[0-9a-f]*"' _build/chaos_smoke.json >&2
  exit 1
}

echo "== chaos exit-code contract (repro / inject / malformed spec)"
expect_chaos_exit() {
  want="$1"; shift
  set +e
  dune exec bin/cutfit_cli.exe -- chaos "$@" >/dev/null 2>&1
  got=$?
  set -e
  if [ "$got" != "$want" ]; then
    echo "expected exit $want from chaos $*, got $got" >&2
    exit 1
  fi
}
expect_chaos_exit 0 --repro 'jobs=0'
expect_chaos_exit 1 --repro 'jobs=0;inject=selftest'
expect_chaos_exit 2 --repro 'bogus'
expect_chaos_exit 2 --repro 'jobs=0;jobs=1'
expect_chaos_exit 2 --repro 'wat=1'

echo "== run-twice digest on a faulty trace"
d1=$(dune exec bin/cutfit_cli.exe -- run PR roadnet_pa \
  --faults 'crash@2,rand@0.1' --checkpoint-every 2)
d2=$(dune exec bin/cutfit_cli.exe -- run PR roadnet_pa \
  --faults 'crash@2,rand@0.1' --checkpoint-every 2)
if [ "$d1" != "$d2" ]; then
  echo "faulty trace digests diverge:" >&2
  echo "  $d1" >&2
  echo "  $d2" >&2
  exit 1
fi
# The JSONL stream of a run with every shared record kind: a crash
# (recovery), a straggler whose clone wins, one leave and one join
# (reshuffles). Two runs must write byte-identical files.
jdir=$(mktemp -d)
for f in a b; do
  dune exec bin/cutfit_cli.exe -- run PR roadnet_pa \
    --faults 'crash@2,straggler@3-4:x20' --checkpoint-every 2 --speculate \
    --scale-events 'leave@4-1,join@5+1' --trace-out "$jdir/$f.jsonl" >/dev/null
done
if ! cmp "$jdir/a.jsonl" "$jdir/b.jsonl"; then
  echo "faulty JSONL traces diverge" >&2
  exit 1
fi
for kind in superstep recovery speculative_launch speculative_win reshuffle; do
  if ! grep -q "\"type\":\"$kind\"" "$jdir/a.jsonl"; then
    echo "faulty JSONL trace has no $kind event" >&2
    exit 1
  fi
done
rm -rf "$jdir"

echo "== large-P smoke (a million partitions under a 3 GB address-space limit)"
# the metrics sweep needs O(n + m + P) memory; a (vertex, partition)
# presence bitset would need about 2.9 GB here
(
  ulimit -v 3000000
  _build/default/bin/cutfit_cli.exe partition youtube -n 1000000 -p RVC >/dev/null
)

echo "== count ceilings (a usage error naming the flag under a 3 GB address-space limit)"
# a count that parses but would size a terabyte allocation is refused
# at the parser: exit 2, never an allocation failure or Out of memory
# (--domains is capped at the OCaml runtime's 128; only the refusal is
# run, never a domain count that large)
for args in "workload --jobs 4000000000000:'--jobs'" \
  "partition youtube -n 4000000000000:'-n'" \
  "workload --slots 4000000000000 --jobs 2:'--slots'" \
  "check PR roadnet_pa --races --domains 4000000000000:'--domains'"; do
  set +e
  # shellcheck disable=SC2086 # ${args%%:*} is a subcommand and its flags
  out=$(
    ulimit -v 3000000
    _build/default/bin/cutfit_cli.exe ${args%%:*} 2>&1
  )
  got=$?
  set -e
  if [ "$got" != 2 ] || ! echo "$out" | grep -qF "option ${args#*:}: expected a"; then
    echo "${args%%:*}: want exit 2 and a usage error naming ${args#*:}, got exit $got:" >&2
    echo "$out" >&2
    exit 1
  fi
done

# a join delta or a mutation edge count past 1,000,000 is refused by
# the spec reader: exit 2 and a Spec_error naming the item
for args in "run PR youtube --scale-events join@1+4000000000000|scale-events spec, item \"join@1+4000000000000\"" \
  "check PR roadnet_pa --dynamic ins@1:r4000000000000|mutations spec, item \"ins@1:r4000000000000\""; do
  set +e
  # shellcheck disable=SC2086 # ${args%%|*} is a subcommand and its flags
  out=$(
    ulimit -v 3000000
    _build/default/bin/cutfit_cli.exe ${args%%|*} 2>&1
  )
  got=$?
  set -e
  if [ "$got" != 2 ] || ! echo "$out" | grep -qF "${args#*|}: count 4000000000000 is above"; then
    echo "${args%%|*}: want exit 2 and a spec error naming the item, got exit $got:" >&2
    echo "$out" >&2
    exit 1
  fi
done

echo "== exit-code contract (0 success / 1 failure / 2 usage)"
expect_exit() {
  want="$1"; shift
  set +e
  "$@" >/dev/null 2>&1
  got=$?
  set -e
  if [ "$got" != "$want" ]; then
    echo "expected exit $want, got $got: $*" >&2
    exit 1
  fi
}
expect_exit 0 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa
expect_exit 1 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa \
  --faults 'crash@1,crash@2' --max-failures 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --faults 'crash@0'
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR no_such_dataset
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --max-retries -1
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --queue-bound 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --deadline-s -1
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --deadline-s 5 --deadline-factor 2
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --speculate --speculate-threshold 0.5
expect_exit 2 dune exec bin/cutfit_cli.exe -- check PR roadnet_pa --races --domains 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- check PR roadnet_pa --dynamic 'grow@1'
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --mutations 'ins@1' --mutate-every 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- mutate youtube --mutations 'ins@0'
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --scale-events 'grow@1'
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --scale-events 'join@3-1'
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --capability
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --tenants 'a/b:1'
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --tenant-weights 'acme:0'
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --tenant-deadline acme
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --tenant-quota 0
# engine-validated knobs and the checkpoint interval are usage errors,
# never an uncaught exception
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --slots 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --jobs=-3
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --cache-gb=-1
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --cache-gb=nan
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --select cache-aware --threshold=-0.5
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --checkpoint-every 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- check PR roadnet_pa --checkpoint-every 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --checkpoint-every 0
expect_exit 2 dune exec bin/cutfit_cli.exe -- partition youtube --partitions=0
expect_exit 2 dune exec bin/cutfit_cli.exe -- advise PR youtube --partitions=0
expect_exit 2 dune exec bin/cutfit_cli.exe -- mutate youtube --partitions=0
expect_exit 0 dune exec bin/cutfit_cli.exe -- check CC roadnet_tx --elastic --hetero '1.5,0.8/2.0'
expect_exit 0 dune exec bin/cutfit_cli.exe -- check CC roadnet_tx --dynamic
# the shared spec reader: non-finite numbers, a repeated option letter,
# a backwards window and an option the kind does not take are usage
# errors in every DSL
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --hetero nan
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --faults 'straggler@2:xinf'
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --faults 'crash@2:e1:e3'
expect_exit 2 dune exec bin/cutfit_cli.exe -- run PR roadnet_pa --faults 'straggler@3-1'
expect_exit 2 dune exec bin/cutfit_cli.exe -- workload --mutations 'ins@1:x4'
expect_exit 2 dune exec bin/cutfit_cli.exe -- chaos --repro 'speculate=nan'
expect_exit 2 dune exec bin/cutfit_cli.exe -- chaos --count 1 --seed 1 --no-shrink --budget-s nan
expect_exit 2 dune exec bin/cutfit_cli.exe -- chaos --count 1 --seed 1 --no-shrink --budget-s inf
# a trace file that cannot be opened fails run and workload alike:
# exit 1 with a one-line reason, never an uncaught exception
for sub in "run PR roadnet_pa" workload; do
  set +e
  # shellcheck disable=SC2086 # $sub is a subcommand and its arguments
  out=$(_build/default/bin/cutfit_cli.exe $sub --trace-out /nonexistent/x.jsonl 2>&1)
  got=$?
  set -e
  if [ "$got" != 1 ] || echo "$out" | grep -q "internal error" ||
    ! echo "$out" | grep -q "cannot open trace file"; then
    echo "$sub --trace-out /nonexistent/x.jsonl: want exit 1 and 'cannot open trace file', got exit $got:" >&2
    echo "$out" >&2
    exit 1
  fi
done
# a speculation threshold below 1 is a usage error whose message names
# the threshold, not a library function
set +e
out=$(_build/default/bin/cutfit_cli.exe run PR roadnet_pa --speculate --speculate-threshold 0.5 2>&1 >/dev/null)
got=$?
set -e
if [ "$got" != 2 ] || echo "$out" | grep -q "Speculation.config" || ! echo "$out" | grep -q "threshold"; then
  echo "--speculate-threshold 0.5: want exit 2 and a message naming the threshold, got exit $got:" >&2
  echo "$out" >&2
  exit 1
fi
expect_exit 1 _build/default/tools/lint/lint.exe --self-test no_such_fixture_dir

if command -v odoc >/dev/null 2>&1; then
  echo "== dune build @doc"
  dune build @doc
else
  echo "== dune build @doc: skipped (odoc not installed)"
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt (check only)"
  dune build @fmt
else
  echo "== format check: skipped (ocamlformat not installed)"
fi

echo "== ok"
