#!/bin/sh
# CI entry point: build, run the full test suite, then a quick benchmark
# smoke test to catch performance-path regressions that type-check fine.
# Every stage runs under a hard timeout so a hung solve (the class of bug
# the budget layer exists to prevent) fails CI instead of wedging it.
set -eu

cd "$(dirname "$0")/.."

wait_sock() {
  i=0
  while [ ! -S "$1" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
  [ -S "$1" ]
}

echo "== dune build"
timeout 600 dune build

echo "== dune runtest"
timeout 600 dune runtest

echo "== fault-injection sweep"
timeout 300 dune exec test/test_budget.exe

echo "== verifier fuzz smoke"
timeout 120 dune exec test/test_verify.exe

echo "== unsat-core explanation golden"
out=$(timeout 60 dune exec bin/spack_solve.exe -- --explain 'hdf5@99.9' || true)
echo "$out" | grep -q "unsatisfiable core"
echo "$out" | grep -q "because the request asks for hdf5@99.9"

echo "== budgeted solve returns promptly"
rc=0
timeout 60 dune exec bin/spack_solve.exe -- --repo 800 --timeout 0.05 app-000 \
  > /dev/null 2>&1 || rc=$?
# 0 = solved in time (fast machine), 3 = interrupted cleanly; anything else
# (hang killed by timeout, crash, bare exception) fails
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ]

echo "== daemon smoke (spack_serve + spack_solve --connect)"
SMOKE_DIR=$(mktemp -d)
SOCK="$SMOKE_DIR/serve.sock"
# the daemon itself runs under a hard timeout: if shutdown never lands, the
# background process dies on its own instead of outliving CI
timeout 120 dune exec bin/spack_serve.exe -- \
  --socket "$SOCK" --cache-dir "$SMOKE_DIR/cache" > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2> /dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$SOCK" ]
# cold solve populates the cache, the identical warm solve is served from it
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" zlib \
  | grep -q "cache miss: zlib"
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" zlib \
  | grep -q "cache hit: zlib"
# two *different* requests over the same package names: the variant is
# cached under its own key, so it misses after hdf5 and hits on repeat
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" hdf5 \
  | grep -q "cache miss: hdf5"
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" hdf5+szip \
  | grep -q "cache miss: hdf5+szip"
STATS=$(timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" --remote-stats)
echo "$STATS" | grep -q '"hits":1'
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" hdf5+szip \
  | grep -q "cache hit: hdf5+szip"
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" --remote-shutdown
wait "$SERVE_PID"
trap - EXIT
rm -rf "$SMOKE_DIR"

echo "== crash recovery drill (kill -9 mid-install, journal replay)"
# Differential check: a daemon killed at each point of the write-ahead
# install protocol, then restarted, must converge on the same installed
# database (by content fingerprint) as a daemon that never crashed.
SERVE=./_build/default/bin/spack_serve.exe
SOLVE=./_build/default/bin/spack_solve.exe
LOAD=./_build/default/bin/spack_load.exe
DRILL_DIR=$(mktemp -d)
trap 'rm -rf "$DRILL_DIR"' EXIT
SOCK="$DRILL_DIR/clean.sock"
timeout 120 "$SERVE" --socket "$SOCK" --db "$DRILL_DIR/clean.db" \
  > "$DRILL_DIR/clean.log" 2>&1 &
PID=$!
wait_sock "$SOCK"
timeout 60 "$SOLVE" --connect "$SOCK" --remote-install zlib \
  | grep -q "installed zlib"
CLEAN_FP=$(timeout 60 "$SOLVE" --connect "$SOCK" --remote-stats \
  | grep -o '"db_fingerprint":"[^"]*"')
[ -n "$CLEAN_FP" ]
timeout 60 "$SOLVE" --connect "$SOCK" --remote-shutdown
wait "$PID"
for POINT in after-intent after-save after-commit; do
  SOCK="$DRILL_DIR/$POINT.sock"
  SPACK_SERVE_CRASH=$POINT timeout 120 "$SERVE" --socket "$SOCK" \
    --db "$DRILL_DIR/$POINT.db" > "$DRILL_DIR/$POINT.log" 2>&1 &
  PID=$!
  wait_sock "$SOCK"
  # the install request rides into the injected _exit(42); the client's
  # transport error is expected
  timeout 60 "$SOLVE" --connect "$SOCK" --remote-install zlib \
    > /dev/null 2>&1 || true
  rc=0
  wait "$PID" || rc=$?
  [ "$rc" -eq 42 ]
  # restart without the crash env: journal replay reconstructs the state
  # (_exit skipped cleanup, so drop the stale socket before waiting on it)
  rm -f "$SOCK"
  timeout 120 "$SERVE" --socket "$SOCK" --db "$DRILL_DIR/$POINT.db" \
    > "$DRILL_DIR/$POINT.restart.log" 2>&1 &
  PID=$!
  wait_sock "$SOCK"
  grep -q "recovered 1 journaled install(s)" "$DRILL_DIR/$POINT.restart.log"
  FP=$(timeout 60 "$SOLVE" --connect "$SOCK" --remote-stats \
    | grep -o '"db_fingerprint":"[^"]*"')
  [ "$FP" = "$CLEAN_FP" ]
  timeout 60 "$SOLVE" --connect "$SOCK" --remote-shutdown
  wait "$PID"
done

echo "== failover drill (kill -9 primary, promote standby, lossless sync acks)"
PSOCK="$DRILL_DIR/primary.sock"
FSOCK="$DRILL_DIR/standby.sock"
timeout 180 "$SERVE" --socket "$PSOCK" --db "$DRILL_DIR/primary.db" \
  --repl-ack sync > "$DRILL_DIR/primary.log" 2>&1 &
PRIMARY_PID=$!
wait_sock "$PSOCK"
# $! is the timeout(1) wrapper; resolve the daemon underneath it so the
# kill -9 hits the primary itself, not its babysitter
PRIMARY_DPID=$(pgrep -P "$PRIMARY_PID")
timeout 180 "$SERVE" --socket "$FSOCK" --db "$DRILL_DIR/standby.db" \
  --follow "$PSOCK" > "$DRILL_DIR/standby.log" 2>&1 &
STANDBY_PID=$!
wait_sock "$FSOCK"
# wait for the subscription: from here every install ack is follower-backed
i=0
until timeout 60 "$SOLVE" --connect "$PSOCK" --remote-stats \
  | grep -q '"followers":1'; do
  sleep 0.1
  i=$((i + 1))
  [ "$i" -lt 100 ]
done
timeout 60 "$SOLVE" --connect "$PSOCK" --remote-install zlib \
  | grep -q "installed zlib"
timeout 60 "$SOLVE" --connect "$PSOCK" --remote-install hdf5 \
  | grep -q "installed hdf5"
STATS=$(timeout 60 "$SOLVE" --connect "$PSOCK" --remote-stats)
echo "$STATS" | grep -q '"sync_degraded":0'
echo "$STATS" | grep -q '"sync_timeouts":0'
ACKED_FP=$(echo "$STATS" | grep -o '"db_fingerprint":"[^"]*"')
# the primary dies without warning; the standby holds every acked install
kill -9 "$PRIMARY_DPID" 2> /dev/null || true
wait "$PRIMARY_PID" 2> /dev/null || true
timeout 60 "$SOLVE" --connect "$FSOCK" --remote-promote \
  | grep -q "promoted: now primary in epoch 2"
FP=$(timeout 60 "$SOLVE" --connect "$FSOCK" --remote-stats \
  | grep -o '"db_fingerprint":"[^"]*"')
[ "$FP" = "$ACKED_FP" ]
# clients configured with the failover chain rotate past the dead primary
timeout 60 "$SOLVE" --connect "$PSOCK,$FSOCK" --remote-install libiconv \
  | grep -q "installed libiconv"
timeout 60 "$SOLVE" --connect "$FSOCK" --remote-shutdown
wait "$STANDBY_PID" 2> /dev/null || true

echo "== failover chaos tier (spack_load --kill-primary, lost-ack audit)"
rm -f "$DRILL_DIR/primary.sock" "$DRILL_DIR/standby.sock"
timeout 180 "$SERVE" --socket "$PSOCK" --db "$DRILL_DIR/chaos-primary.db" \
  --repl-ack sync > "$DRILL_DIR/chaos-primary.log" 2>&1 &
PRIMARY_PID=$!
wait_sock "$PSOCK"
PRIMARY_DPID=$(pgrep -P "$PRIMARY_PID")
timeout 180 "$SERVE" --socket "$FSOCK" --db "$DRILL_DIR/chaos-standby.db" \
  --follow "$PSOCK" > "$DRILL_DIR/chaos-standby.log" 2>&1 &
STANDBY_PID=$!
wait_sock "$FSOCK"
i=0
until timeout 60 "$SOLVE" --connect "$PSOCK" --remote-stats \
  | grep -q '"followers":1'; do
  sleep 0.1
  i=$((i + 1))
  [ "$i" -lt 100 ]
done
timeout 120 "$LOAD" --socket "$PSOCK" --standby "$FSOCK" \
  --kill-primary "$PRIMARY_DPID" --tiers 0 --clients 6 --duration 6 \
  --install-frac 0.5 --timeout 5 --json BENCH_failover_ci.json
# under sync acks the drill must lose nothing a client saw acknowledged
grep -q '"lost_acks":0' BENCH_failover_ci.json
grep -q '"audited":true' BENCH_failover_ci.json
! grep -q '"promoted_epoch":-1' BENCH_failover_ci.json
wait "$PRIMARY_PID" 2> /dev/null || true
timeout 60 "$SOLVE" --connect "$FSOCK" --remote-shutdown
wait "$STANDBY_PID" 2> /dev/null || true

echo "== SIGTERM drains gracefully"
SOCK="$DRILL_DIR/drain.sock"
timeout 120 "$SERVE" --socket "$SOCK" --drain-grace 5 \
  > "$DRILL_DIR/drain.log" 2>&1 &
PID=$!
wait_sock "$SOCK"
timeout 60 "$SOLVE" --connect "$SOCK" zlib > /dev/null
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
[ "$rc" -eq 0 ]
grep -q "shutdown complete" "$DRILL_DIR/drain.log"

echo "== chaos load smoke (2x overload, ~10s)"
SOCK="$DRILL_DIR/load.sock"
timeout 120 "$SERVE" --socket "$SOCK" --repo 300 --jobs 1 --max-pending 4 \
  > "$DRILL_DIR/load.log" 2>&1 &
PID=$!
wait_sock "$SOCK"
timeout 90 "$LOAD" --socket "$SOCK" --synth 300 --chaos \
  --clients 8 --tiers 2 --duration 5 --timeout 2 --json BENCH_serve_ci.json
# overload must shed with a typed reply somewhere in the tier...
grep -o '"shed":[0-9]*' BENCH_serve_ci.json | grep -qv '"shed":0'
# ...while no worker crashed or wedged under chaos...
grep -q '"restarts":0' BENCH_serve_ci.json
# ...and the daemon still drains cleanly afterwards
timeout 60 "$SOLVE" --connect "$SOCK" --remote-shutdown
rc=0
wait "$PID" || rc=$?
[ "$rc" -eq 0 ]
grep -q "shutdown complete" "$DRILL_DIR/load.log"
rm -rf "$DRILL_DIR"
trap - EXIT

echo "== bench smoke (fig3 + fig7d --quick)"
timeout 600 dune exec bench/main.exe -- fig3 fig7d --quick --json BENCH_ci.json

echo "== portfolio smoke (fig7d --quick --jobs 4)"
timeout 600 dune exec bench/main.exe -- fig7d --quick --jobs 4 --json BENCH_ci_jobs4.json
grep -q '"jobs": 4' BENCH_ci_jobs4.json

echo "== E4S-scale reuse smoke (5k-spec buildcache, streamed reuse facts)"
# medium-scale rehearsal of the paper's §VII-C stress test: grows a ~5,000
# spec buildcache and runs all four slices through the streaming fact
# pipeline; independent of --quick so the solve sizes match a real run
timeout 900 dune exec bench/main.exe -- fig7efg-full --e4s-target 5000 \
  --json BENCH_e4s_ci.json
python3 - << 'EOF'
import json
d = json.load(open("BENCH_e4s_ci.json"))
m = d["metrics"]
assert m["e4s_specs"] >= 5000, m
# the streamed fact path must beat the materialized one at CI scale
assert m["factgen_streamed_p50_s"] < m["factgen_materialized_p50_s"], m
# the full 63k run is bounded at 2 GiB; the 5k smoke must stay far below
assert d["peak_rss_mb"] < 1024, d["peak_rss_mb"]
sums = [s for s in d["summaries"] if s["experiment"].startswith("fig7efg-full")]
assert len(sums) == 4, [s["experiment"] for s in sums]
assert all(s["n"] > 0 and s["p50_total_s"] > 0 for s in sums), sums
print("e4s smoke: %d specs, factgen %.3fs -> %.3fs, peak rss %.0f MB" % (
    m["e4s_specs"], m["factgen_materialized_p50_s"],
    m["factgen_streamed_p50_s"], d["peak_rss_mb"]))
EOF

echo "== CUDF frontend smoke (1k-package universe, both criterion stacks)"
# the Linux-distro frontend end to end: a 1k-stanza synthetic Debian-like
# universe must solve to a verified proven optimum under both stacks, and
# the unsat-core diagnosis must name the offending stanza
timeout 300 dune exec bench/main.exe -- cudf --quick --json BENCH_cudf_ci.json
python3 - << 'EOF'
import json
d = json.load(open("BENCH_cudf_ci.json"))
rows = [r for r in d["rows"] if r["experiment"].startswith("cudf-")]
assert rows, d
assert all(r["outcome"] == "optimal" and r["verified"] for r in rows), rows
stacks = {r["experiment"].split("-")[-1] for r in rows}
assert stacks == {"paranoid", "trendy"}, stacks
m = d["metrics"]
assert m["cudf-1000-paranoid_p50_s"] > 0 and m["cudf-1000-trendy_p50_s"] > 0, m
print("cudf smoke: %d solves, paranoid p50 %.2fs, trendy p50 %.2fs" % (
    len(rows), m["cudf-1000-paranoid_p50_s"], m["cudf-1000-trendy_p50_s"]))
EOF
out=$(timeout 60 dune exec bin/cudf_solve.exe -- --synth 200 --stats)
echo "$out" | grep -q "optimality proven at every level"
echo "$out" | grep -q "verified: independent model check passed"
out=$(timeout 60 dune exec bin/cudf_solve.exe -- --explain "$(dirname "$0")/ci_broken.cudf" || true)
echo "$out" | grep -q "conflicts with"

echo "== ci OK"
