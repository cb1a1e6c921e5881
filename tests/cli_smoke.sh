#!/usr/bin/env bash
# End-to-end smoke of sthist_cli's serving commands at tiny sizes:
#   * serve-sim replay (--pace 1) and its --snapshot-every/--restore
#     resumption print the same serve digest;
#   * a --drift run honours --snapshot with a file `snapshot verify` accepts;
#   * fleet-sim --pace 1 prints identical digest and counter lines at 4 and 1
#     refiners;
#   * every serve-sim flag takes effect in the mode it is given, or the run
#     exits 2 naming it.
#
# Usage: cli_smoke.sh <path to sthist_cli>

set -u
cli=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d "${TMPDIR:-/tmp}/sthist_cli_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

failures=0
fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# run NAME ARGS...: runs the CLI, keeping stdout+stderr in NAME.out and the
# exit code in $status.
run() {
  local name=$1
  shift
  "$cli" "$@" > "$name.out" 2>&1
  status=$?
}

# expect_ok NAME ARGS...: the run must exit 0.
expect_ok() {
  run "$@"
  if [ "$status" -ne 0 ]; then
    fail "$1 exited $status"
    cat "$1.out"
  fi
}

# expect_usage NAME FLAG ARGS...: the run must exit 2 and name --FLAG.
expect_usage() {
  local name=$1 flag=$2
  shift 2
  run "$name" "$@"
  if [ "$status" -ne 2 ]; then
    fail "$name exited $status, want 2"
  elif ! grep -q -- "--$flag" "$name.out"; then
    fail "$name exited 2 without naming --$flag"
  fi
}

digest() { grep '^serve digest' "$1.out"; }
row() { grep -E "^\| $2 +\|" "$1.out"; }

data=(--dataset cross --tuples 3000)
drift=(--drift cross-move --drift-tuples 3000 --drift-phases 2
       --queries 400 --reinit-window 32 --reinit-cooldown 64 --reinit-sync)

# Replay and warm restart. Workloads are prefix-stable, so a 250-query run's
# final snapshot (watermark 250) is the 400-query stream's state after 250
# queries: restoring it and replaying the rest must land on the digest of
# the uninterrupted 400-query run.
expect_ok replay serve-sim "${data[@]}" --queries 400 --pace 1
[ -n "$(digest replay)" ] || fail "replay printed no serve digest"
expect_ok saving serve-sim "${data[@]}" --queries 250 \
  --snapshot-every 100 --snapshot mid.snap
row saving "snapshot saves" | grep -q '| 3 ' ||
  fail "saving run did not save at 100, 200 and the end"
expect_ok verify_mid snapshot verify --in mid.snap
expect_ok restored serve-sim "${data[@]}" --queries 400 --restore mid.snap
row restored "queries skipped" | grep -q '| 250 ' ||
  fail "restored run did not resume after 250 queries"
[ "$(digest replay)" = "$(digest restored)" ] ||
  fail "restored digest '$(digest restored)' != replay '$(digest replay)'"

# Free-running readers estimate and submit; the drained run serves every
# accepted item, and prints no digest (its feedback order is not replayable).
expect_ok free serve-sim "${data[@]}" --queries 400 --readers 2
row free "final staleness" | grep -q '| 0 ' || fail "free run left staleness"
[ -z "$(digest free)" ] || fail "free-running run printed a serve digest"

# Paced runs: probe readers and the batched pass's threads leave the digest
# alone; refiner faults change it.
expect_ok probes serve-sim "${data[@]}" --queries 400 --pace 1 --readers 2
row probes "reader threads" | grep -q '| 2 ' || fail "--readers 2 ignored"
[ "$(digest probes)" = "$(digest replay)" ] || fail "probes moved the digest"
expect_ok batch1 serve-sim "${data[@]}" --queries 400 --pace 1 --batch 1
expect_ok batch3 serve-sim "${data[@]}" --queries 400 --pace 1 --batch 3
tasks() { grep '^pool.thread_pool.tasks ' "$1.out" | awk '{print $2}'; }
[ "$(tasks batch3)" -gt "$(tasks batch1)" ] ||
  fail "--batch 3 ran no pool tasks beyond --batch 1"
[ "$(digest batch1)" = "$(digest replay)" ] &&
  [ "$(row batch1 'batched mean est')" = "$(row batch3 'batched mean est')" ] ||
  fail "--batch changed the results"
expect_ok faulted serve-sim "${data[@]}" --queries 400 --pace 1 \
  --fault-rate 0.5
[ "$(digest faulted)" != "$(digest replay)" ] ||
  fail "--fault-rate 0.5 left the paced digest unchanged"

# Drift: --snapshot writes a verifiable file, and the run is replayable.
expect_ok drift_a serve-sim "${drift[@]}" --snapshot drift.snap
expect_ok verify_drift snapshot verify --in drift.snap
expect_ok drift_b serve-sim "${drift[@]}" --readers 1 --batch 1
[ "$(digest drift_a)" = "$(digest drift_b)" ] ||
  fail "--reinit-sync drift digests differ"

# Flags the chosen mode cannot honour are usage errors naming the flag.
expect_usage drift_restore restore serve-sim "${drift[@]}" --restore mid.snap
expect_usage drift_tuples tuples serve-sim "${drift[@]}" --tuples 3000
expect_usage drift_data fault-data serve-sim "${drift[@]}" \
  --fault-rate 0.1 --fault-data
expect_usage reinit_alone reinit-window serve-sim "${data[@]}" \
  --queries 400 --reinit-window 32
expect_usage reinit_fault fault-reinit-rate serve-sim "${data[@]}" \
  --queries 400 --pace 1 --fault-reinit-rate 1
expect_usage phases_alone drift-phases serve-sim "${data[@]}" \
  --queries 400 --drift-phases 2
expect_usage every_alone snapshot-every serve-sim "${data[@]}" \
  --queries 400 --snapshot-every 100
expect_usage clusterer clusterer serve-sim "${data[@]}" --queries 400 \
  --init --clusterer clique
expect_usage serve_clone clone-publish serve-sim "${data[@]}" \
  --queries 400 --clone-publish
expect_usage fleet_clone clone-publish fleet-sim --tenants 4 --queries 8 \
  --clone-publish

# Fleet determinism: the paced replay is invariant in the refiner count.
expect_ok fleet4 fleet-sim --tenants 8 --queries 16 --refiners 4 --pace 1
expect_ok fleet1 fleet-sim --tenants 8 --queries 16 --refiners 1 --pace 1
pattern='^fleet digest:|feedback accepted|feedback applied|publishes|reads served'
grep -q '^fleet digest:' fleet4.out || fail "fleet-sim printed no digest"
[ "$(grep -E "$pattern" fleet4.out)" = "$(grep -E "$pattern" fleet1.out)" ] ||
  fail "fleet-sim lines differ between 4 and 1 refiners"

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "cli smoke OK"
