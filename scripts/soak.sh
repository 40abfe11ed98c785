#!/usr/bin/env bash
# soak.sh — a cluster serves its last minute like its first (ROADMAP
# item 2's acceptance, `make soak`; not part of ci).
#
# Starts three consensus-serve processes with -snapshot-every 1024,
# runs one consensus-load against them for SOAK_SECONDS and samples the
# cluster every 10 s through `consensus-admin status` and ps: client
# ops applied (ops/s of the interval), each server's RSS, the largest
# session table and the largest snapshot over all groups and nodes (and,
# not checked, the most snapshots any replica had to install from a
# peer: a follower that fell behind the leader's compaction).
# Fails unless
#   - consensus-load exits 0 (its acknowledged-vs-applied check included),
#   - the last intervals' ops/s (the median of the last three, so that one
#     hiccup on a shared host is not read as drift) is at least 0.75 x the
#     first's,
#   - no server's RSS grew by 25% or more after the first interval,
#   - no group holds more sessions than the load has workers,
#   - no group's snapshot grew by 25% or more after the first interval.
#
#   SOAK_SECONDS    run length, a multiple of 10 (default 120; 600 is the
#                   ROADMAP's ten minutes)
#   SOAK_BACKEND    raft | multipaxos (default raft)
#   SOAK_WORKERS    closed-loop load workers (default 4)
#   SOAK_BASE_PORT  first of three ports (default 49541)
#   SOAK_REV        build the CLIs from a git archive of this revision
#                   under .bench_build/soak/ instead of the working tree:
#                   how a CHANGES.md entry quotes an older commit's drift
#                   (one from before `sessions`/`snap_bytes` existed
#                   fails those two checks by construction)
#
# The source trees of other revisions under .bench_build/ (this script's
# and servebench_pairs.sh's) are deleted: they are full copies of old
# source that `grep -r` over the checkout would walk into. Run one
# invocation of either script at a time.
set -u

SECS="${SOAK_SECONDS:-120}"
BACKEND="${SOAK_BACKEND:-raft}"
WORKERS="${SOAK_WORKERS:-4}"
BASE_PORT="${SOAK_BASE_PORT:-49541}"
REV="${SOAK_REV:-}"
STEP=10
[ "$SECS" -ge $((2 * STEP)) ] && [ $((SECS % STEP)) -eq 0 ] \
    || { echo "soak: SOAK_SECONDS must be a multiple of $STEP, at least $((2 * STEP))" >&2; exit 2; }

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
DIR="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null; done
    rm -rf "$DIR"
}
trap cleanup EXIT
die() { echo "soak: FAIL: $*" >&2; exit 1; }

SRC="$ROOT"
if [ -n "$REV" ]; then
    SHA="$(git -C "$ROOT" rev-parse --verify "$REV^{commit}")" || die "unknown revision $REV"
    SRC="$ROOT/.bench_build/soak/$SHA"
fi
for tree in "$ROOT"/.bench_build/soak/* "$ROOT"/.bench_build/pairs/base-*; do
    [ "$tree" = "$SRC" ] || rm -rf "$tree"
done
if [ ! -d "$SRC" ]; then
    mkdir -p "$SRC" && git -C "$ROOT" archive "$SHA" | tar -x -C "$SRC" || die "git archive $SHA"
fi
echo "soak: building CLIs from $SRC"
(cd "$SRC" && go build -o "$DIR" ./cmd/consensus-serve ./cmd/consensus-load ./cmd/consensus-admin) \
    || die "build failed"

A=("127.0.0.1:$BASE_PORT" "127.0.0.1:$((BASE_PORT + 1))" "127.0.0.1:$((BASE_PORT + 2))")
PEERS="${A[0]},${A[1]},${A[2]}"
echo "soak: 3 x consensus-serve -backend $BACKEND -snapshot-every 1024 on $PEERS; $WORKERS workers for ${SECS}s"
for i in 0 1 2; do
    "$DIR/consensus-serve" -id "$i" -peers "$PEERS" -backend "$BACKEND" -snapshot-every 1024 \
        >"$DIR/n$i.log" 2>&1 &
    PIDS+=("$!")
done
sleep 1

# Every sample reads each node's status once. field_max <name>: the
# largest value of a numeric field over every group of every node, or -
# if no node reports the field. frontier: the client ops applied by the
# node that has applied most, summed over its groups (a node's status
# starts on the one unindented line, its address). A group's "commit" is
# its log frontier, and a log entry may carry a batch of ops; a build
# from before "ops_applied" existed (SOAK_REV) is read by its "commit".
sample_status() {
    local a
    STATUS=$(for a in "${A[@]}"; do "$DIR/consensus-admin" -addrs "$a" status; done)
}
field_max() {
    echo "$STATUS" | awk -F: -v f="\"$1\"" '
        $1 ~ f { gsub(/[^0-9]/, "", $2); if (!seen || $2 + 0 > m) m = $2 + 0; seen = 1 }
        END { if (seen) print m; else print "-" }'
}
frontier() {
    local f='"ops_applied"'
    echo "$STATUS" | grep -q "$f" || f='"commit"'
    echo "$STATUS" | awk -F: -v f="$f" '
        /^[^ \t]/ { if (s > m) m = s; s = 0 }
        $1 ~ f { gsub(/[^0-9]/, "", $2); s += $2 }
        END { if (s > m) m = s; print m + 0 }'
}
rss_kb() { ps -o rss= -p "$1" | tr -d ' '; }

"$DIR/consensus-load" -addrs "$PEERS" -duration "${SECS}s" -workers "$WORKERS" >"$DIR/load.log" 2>&1 &
LOAD=$!
T0=$(date +%s.%N)
sample_status
TPREV=$T0; FPREV=$(frontier)
ALL_OPS=()
declare -a RSS1 RSSN
SNAP1=""; SNAPN=""; SESS=""
for ((i = 1; i <= SECS / STEP; i++)); do
    sleep "$(awk -v t0="$T0" -v at=$((i * STEP)) -v now="$(date +%s.%N)" 'BEGIN { d = t0 + at - now; print (d > 0 ? d : 0) }')"
    NOW=$(date +%s.%N); sample_status; F=$(frontier)
    OPS=$(awk -v f="$F" -v p="$FPREV" -v t="$NOW" -v tp="$TPREV" 'BEGIN { printf "%.0f", (f - p) / (t - tp) }')
    TPREV=$NOW; FPREV=$F
    for n in 0 1 2; do RSSN[$n]=$(rss_kb "${PIDS[$n]}"); done
    SESS=$(field_max sessions); SNAPN=$(field_max snap_bytes)
    ALL_OPS+=("$OPS")
    if [ "$i" -eq 1 ]; then
        RSS1=("${RSSN[@]}"); SNAP1=$SNAPN
    fi
    echo "soak: $((i * STEP - STEP))s-$((i * STEP))s ${OPS} ops/s  rss_kb=${RSSN[0]}/${RSSN[1]}/${RSSN[2]}  sessions=$SESS  snap_bytes=$SNAPN  installs=$(field_max installs)"
done
wait "$LOAD"; LOAD_EXIT=$?
sed 's/^/soak:   /' "$DIR/load.log"

kill -TERM "${PIDS[@]}" 2>/dev/null
for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null; done
PIDS=()

# The first interval against the median of the last three (of all but
# the first, when the run has fewer than four).
FIRST_OPS=${ALL_OPS[0]}
LAST_OPS=$(printf '%s\n' "${ALL_OPS[@]:1}" | tail -3 | sort -n | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }')

FAILED=0
fail() { echo "soak: FAIL: $*" >&2; FAILED=1; }
[ "$LOAD_EXIT" -eq 0 ] || fail "consensus-load exited $LOAD_EXIT"
awk -v l="$LAST_OPS" -v f="$FIRST_OPS" 'BEGIN { exit !(f > 0 && l >= 0.75 * f) }' \
    || fail "throughput fell from $FIRST_OPS ops/s in the first interval to $LAST_OPS over the last"
for n in 0 1 2; do
    awk -v e="${RSSN[$n]}" -v s="${RSS1[$n]}" 'BEGIN { exit !(s > 0 && e < 1.25 * s) }' \
        || fail "node $n RSS grew from ${RSS1[$n]} KB after the first interval to ${RSSN[$n]} KB"
done
if [ "$SESS" = "-" ] || [ "$SNAPN" = "-" ]; then
    fail "status reports no sessions / snap_bytes"
else
    [ "$SESS" -le "$WORKERS" ] || fail "a group holds $SESS sessions for $WORKERS workers"
    awk -v e="$SNAPN" -v s="$SNAP1" 'BEGIN { exit !(s > 0 && e < 1.25 * s) }' \
        || fail "the largest snapshot grew from $SNAP1 bytes after the first interval to $SNAPN"
fi
[ "$FAILED" -eq 0 ] || exit 1
echo "soak: PASS ($BACKEND, ${SECS}s: $FIRST_OPS -> $LAST_OPS ops/s, sessions $SESS <= $WORKERS workers, snapshots $SNAP1 -> $SNAPN bytes)"
