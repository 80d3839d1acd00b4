#!/usr/bin/env bash
# Multi-process serving smoke: spawns a crowdrl_learnerd daemon on a
# loopback UNIX-domain socket, drives it with several independent actor
# PROCESSES (thin Rank/Feedback actors plus one local-scoring actor that
# pulls snapshot replicas and ships transitions upstream) while two more
# actors, one on the socket and one on a shared-memory ring, are killed
# with SIGKILL in the middle of their exchange, requests a cooperative
# shutdown, and asserts a clean drain: the daemon must exit 0 and report
# all_learned=1 (every submitted event reached a learner), it must have
# reaped both killed connections before the shutdown, and the
# local-scoring actor's shipped transitions must have arrived, none
# refused.
#
# Usage: scripts/net_smoke.sh [build_dir]   (default: build)
# CI runs this against ASan and TSan builds; any sanitizer report fails
# the job through the daemon/actor exit codes.
set -euo pipefail

BUILD_DIR="${1:-build}"
cd "$(dirname "$0")/.."

LEARNERD="$BUILD_DIR/examples/crowdrl_learnerd"
ACTOR="$BUILD_DIR/examples/crowdrl_actor"
for bin in "$LEARNERD" "$ACTOR"; do
  if [[ ! -x "$bin" ]]; then
    echo "net_smoke: missing $bin — build the examples first" >&2
    exit 2
  fi
done

SOCK="$(mktemp -u /tmp/crowdrl_net_smoke_XXXXXX.sock)"
LOG="$(mktemp /tmp/crowdrl_net_smoke_XXXXXX.log)"
K0=""
K1=""
trap 'kill -KILL $K0 $K1 2> /dev/null || true; rm -f "$SOCK" "$LOG"' EXIT

# --max_runtime_s bounds the job even if the shutdown message is lost.
"$LEARNERD" --socket="$SOCK" --shards=2 --max_runtime_s=120 > "$LOG" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
if [[ ! -S "$SOCK" ]]; then
  echo "net_smoke: daemon never bound $SOCK" >&2
  cat "$LOG" >&2
  exit 1
fi

# A mixed fleet, concurrently: two thin actors on the socket, one thin
# actor upgraded onto a shared-memory ring pair, and one local-scoring
# shm actor pulling snapshots through the ring (a small ring, so large
# snapshot frames stream through wrap-around backpressure). Beside it,
# one uds and one shm actor that never finish on their own.
"$ACTOR" --socket="$SOCK" --events=100000000 --actor_id=4 &
K0=$!
"$ACTOR" --socket="$SOCK" --events=100000000 --actor_id=5 --transport=shm &
K1=$!
"$ACTOR" --socket="$SOCK" --events=150 --actor_id=0 &
A0=$!
"$ACTOR" --socket="$SOCK" --events=150 --actor_id=1 --transport=shm &
A1=$!
"$ACTOR" --socket="$SOCK" --events=150 --actor_id=2 &
A2=$!
"$ACTOR" --socket="$SOCK" --events=80 --actor_id=3 --mode=local \
         --transport=shm --ring_kb=4 &
A3=$!
for pid in $A0 $A1 $A2 $A3; do
  if ! wait "$pid"; then
    echo "net_smoke: actor process $pid failed" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    cat "$LOG" >&2
    exit 1
  fi
done

# The fleet is done, so both endless actors are deep in their exchange:
# SIGKILL them there. Each must still be running (kill fails otherwise)
# and must end by the signal (status 128 + 9), not on its own.
if ! kill -KILL "$K0" "$K1"; then
  echo "net_smoke: an endless actor exited before it was killed" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  cat "$LOG" >&2
  exit 1
fi
for pid in $K0 $K1; do
  status=0
  wait "$pid" || status=$?
  if [[ $status -ne 137 ]]; then
    echo "net_smoke: killed actor $pid ended with status $status, not 137" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    cat "$LOG" >&2
    exit 1
  fi
done
K0=""
K1=""

"$ACTOR" --socket="$SOCK" --shutdown

if ! wait "$DAEMON_PID"; then
  echo "net_smoke: daemon exited non-zero" >&2
  cat "$LOG" >&2
  exit 1
fi

cat "$LOG"
if ! grep -q ' all_learned=1$' "$LOG"; then
  echo "net_smoke: daemon did not report all_learned=1" >&2
  exit 1
fi
if ! grep -q ' transport_connections=7 ' "$LOG"; then
  echo "net_smoke: expected 7 client connections (6 actors + shutdown)" >&2
  exit 1
fi
if ! grep -q ' transport_shm_connections=3 ' "$LOG"; then
  echo "net_smoke: expected 3 shm-upgraded connections" >&2
  exit 1
fi
if ! grep -q ' transport_connections_dropped=0 ' "$LOG"; then
  echo "net_smoke: connections were still being served at shutdown" >&2
  exit 1
fi
if ! grep -Eq ' transport_remote_transitions=[1-9][0-9]* ' "$LOG"; then
  echo "net_smoke: the local-scoring actor's transitions never arrived" >&2
  exit 1
fi
if ! grep -q ' blocks_refused=0 ' "$LOG"; then
  echo "net_smoke: the daemon refused shipped transition blocks" >&2
  exit 1
fi
echo "net_smoke: OK — mixed uds+shm multi-process serve drained clean, killed actors reaped"
