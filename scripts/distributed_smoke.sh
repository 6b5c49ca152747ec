#!/usr/bin/env bash
# Distributed smoke: two cwc-dist sim workers plus cwc-serve sharding a
# job across them must produce a window-stats digest bit-identical to a
# single-process cwc-serve run of the same seed — and must stream: the
# first window of a sharded job has to arrive while most trajectories are
# still running (breadth-first slab dispatch), not at the job's end. The
# same spec through cwc-sim and through cwc-dist master over the same
# workers must print the CSV pinned below. cwc-sim and the master share
# their analysis code (core.Analysis), so comparing one with the other
# would check nothing: the pin is the independent oracle.
#
# Needs: go, curl, jq, sha256sum. Run from the repo root.
set -euo pipefail

BIN=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/cwc-serve" ./cmd/cwc-serve
go build -o "$BIN/cwc-dist" ./cmd/cwc-dist
go build -o "$BIN/cwc-sim" ./cmd/cwc-sim

W1=127.0.0.1:7101
W2=127.0.0.1:7102
REF=127.0.0.1:7100 # single-process reference
DIST=127.0.0.1:7110

"$BIN/cwc-dist" worker -listen "$W1" -sim-workers 2 &
"$BIN/cwc-dist" worker -listen "$W2" -sim-workers 2 &
"$BIN/cwc-serve" -listen "$REF" -sim-workers 2 &
"$BIN/cwc-serve" -listen "$DIST" -sim-workers 2 -workers "$W1,$W2" -worker-inflight 4 &

. "$(dirname "$0")/lib.sh"
wait_healthy "$REF"
wait_healthy "$DIST"

SPEC='{"model":"sir","omega":100,"trajectories":16,"end":12,"period":0.5,"window":8,"seed":42}'

run_job() { # base-url -> digest of the full window stream
  local base=$1 id
  id=$(curl -fsS "http://$base/jobs" -d "$SPEC" | jq -re .id)
  curl -fsS "http://$base/jobs/$id/result?wait=true" >"$BIN/$base.json"
  local state
  state=$(jq -re .status.state "$BIN/$base.json")
  if [ "$state" != "done" ]; then
    echo "job on $base ended $state: $(jq -r .status.error "$BIN/$base.json")" >&2
    return 1
  fi
  digest_of "$BIN/$base.json"
}

REF_DIGEST=$(run_job "$REF")
DIST_DIGEST=$(run_job "$DIST")

# remote_tasks_done is omitempty: absent means 0 (no sharding happened).
REMOTE_DONE=$(jq -r '.status.progress.remote_tasks_done // 0' "$BIN/$DIST.json")
echo "reference digest:   $REF_DIGEST"
echo "distributed digest: $DIST_DIGEST (remote_tasks_done=$REMOTE_DONE)"

if [ "$REMOTE_DONE" -lt 1 ]; then
  echo "FAIL: the distributed run completed no trajectories on remote workers" >&2
  exit 1
fi
if [ "$REF_DIGEST" != "$DIST_DIGEST" ]; then
  echo "FAIL: distributed window digest diverged from the single-process run" >&2
  exit 1
fi
echo "OK: distributed digest bit-identical to single-process"

# cwc-dist master drives the same slab scheduler in process, over the same
# workers; its summary line reports what finished remotely. The pinned
# sha256 of the spec's CSV is the same at every sim and stat farm width
# and with -gpu.
RUN=(-model sir -omega 100 -trajectories 16 -end 12 -period 0.5 -window 8 -seed 42)
WANT_SUM=387c9c2053e5ae5a136412b3f25f93cb6f0730e5f619f4d48c3b3ad2580578f7
"$BIN/cwc-sim" "${RUN[@]}" >"$BIN/sim.csv"
"$BIN/cwc-dist" master -workers "$W1,$W2" "${RUN[@]}" >"$BIN/master.csv" 2>"$BIN/master.err"
SIM_SUM=$(sha256sum <"$BIN/sim.csv" | cut -d' ' -f1)
MASTER_SUM=$(sha256sum <"$BIN/master.csv" | cut -d' ' -f1)
MASTER_REMOTE=$(sed -n 's/.*remote_tasks_done=\([0-9]*\).*/\1/p' "$BIN/master.err")
echo "pinned csv:     $WANT_SUM"
echo "cwc-sim csv:    $SIM_SUM"
echo "cwc-dist csv:   $MASTER_SUM (remote_tasks_done=${MASTER_REMOTE:-none})"
if [ "$SIM_SUM" != "$WANT_SUM" ]; then
  echo "FAIL: cwc-sim CSV differs from the pinned one" >&2
  exit 1
fi
if [ "$MASTER_SUM" != "$WANT_SUM" ]; then
  echo "FAIL: cwc-dist master CSV differs from the pinned one" >&2
  exit 1
fi
if [ "${MASTER_REMOTE:-0}" -lt 1 ]; then
  echo "FAIL: cwc-dist master finished no trajectories on remote workers: $(cat "$BIN/master.err")" >&2
  exit 1
fi
echo "OK: cwc-sim and cwc-dist master CSVs match the pin"

# Streaming check, by counts and not by the clock: at the moment the first
# window of a 64-trajectory job is published, fewer than half of its
# trajectories may have finished. Run-to-completion dispatch fails this
# (window 0 closes only when the last trajectory starts); slab dispatch
# publishes window 0 a sixth of the way into every trajectory. The server
# takes the count itself, under the job lock, as the detail of the job
# trace's first-window event.
HEAVY='{"model":"neurospora","omega":100,"trajectories":64,"end":48,"period":0.5,"window":16,"seed":43}'
ID=$(curl -fsS "http://$DIST/jobs" -d "$HEAVY" | jq -re .id)
curl -fsS "http://$DIST/jobs/$ID/result?wait=true" >"$BIN/heavy.json"
STATE=$(jq -re .status.state "$BIN/heavy.json")
REMOTE_DONE=$(jq -r '.status.progress.remote_tasks_done // 0' "$BIN/heavy.json")
DONE_AT_FIRST=$(curl -fsS "http://$DIST/jobs/$ID/trace" |
  jq -r 'select(.name == "first-window") | .detail' | sed -n 's/^tasks_done=\([0-9]*\)$/\1/p' | head -n 1)
echo "streaming job: state=$STATE tasks_done at first window=${DONE_AT_FIRST:-none}/64 remote_tasks_done=$REMOTE_DONE"
if [ "$STATE" != "done" ] || [ "$REMOTE_DONE" -lt 1 ]; then
  echo "FAIL: the streaming job ended $STATE with $REMOTE_DONE trajectories finished remotely" >&2
  exit 1
fi
if [ -z "$DONE_AT_FIRST" ] || [ "$DONE_AT_FIRST" -ge 32 ]; then
  echo "FAIL: first window arrived with ${DONE_AT_FIRST:-no} of 64 trajectories already done — the sharded job is not streaming" >&2
  exit 1
fi
echo "OK: first window streamed with $DONE_AT_FIRST/64 trajectories done"
