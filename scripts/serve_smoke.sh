#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for the live cluster runtime.
#
# Builds consensus-serve, consensus-load, and consensus-admin, starts a
# 3-node raft-backed sharded KV on localhost TCP with log compaction
# on, pushes a load burst through the client library, then exercises
# dynamic membership: waits until every original node has compacted,
# grows the cluster to 4 with a passive joiner (which can therefore
# only catch up through a snapshot transfer — asserted via admin
# status), votes an original node out and kills it, pushes a final
# burst through the reshaped cluster, and requires clean SIGTERM exits.
# Then a second, Multi-Paxos cluster takes a read-heavy burst (95% Gets,
# which are served beside the log), loses its shard-0 leader to kill -9,
# and takes another. Every burst is checked by consensus-load itself: it
# exits nonzero if nothing committed or if the counters it incremented
# did not rise by what the cluster acknowledged.
set -u

BASE_PORT="${SMOKE_BASE_PORT:-49531}"
DIR="$(mktemp -d)"
P0=""; P1=""; P2=""; P3=""; M0=""; M1=""; M2=""
FAIL=0

cleanup() {
    for pid in "$P0" "$P1" "$P2" "$P3" "$M0" "$M1" "$M2"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

die() {
    echo "serve-smoke: FAIL: $*" >&2
    for f in "$DIR"/n*.log "$DIR"/m*.log; do
        [ -f "$f" ] && { echo "--- $f ---" >&2; cat "$f" >&2; }
    done
    exit 1
}

# poll_until <deadline-seconds> <description> <command...>
# Retries the command until it succeeds (exit 0) or the deadline dies.
poll_until() {
    local secs="$1" what="$2"; shift 2
    local tries=$((secs * 5))
    for _ in $(seq 1 "$tries"); do
        "$@" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    die "timed out waiting for $what"
}

# status_of <addr> — prints the node's admin status JSON.
status_of() {
    "$DIR/consensus-admin" -addrs "$1" status
}

echo "serve-smoke: building CLIs"
go build -o "$DIR" ./cmd/consensus-serve ./cmd/consensus-load ./cmd/consensus-admin \
    || die "build failed"

A0="127.0.0.1:$BASE_PORT"
A1="127.0.0.1:$((BASE_PORT + 1))"
A2="127.0.0.1:$((BASE_PORT + 2))"
A3="127.0.0.1:$((BASE_PORT + 3))"
PEERS="$A0,$A1,$A2"
PEERS4="$PEERS,$A3"

echo "serve-smoke: starting 3-node cluster on $PEERS (snapshot-every 8)"
"$DIR/consensus-serve" -id 0 -peers "$PEERS" -tick 1ms -snapshot-every 8 >"$DIR/n0.log" 2>&1 & P0=$!
"$DIR/consensus-serve" -id 1 -peers "$PEERS" -tick 1ms -snapshot-every 8 >"$DIR/n1.log" 2>&1 & P1=$!
"$DIR/consensus-serve" -id 2 -peers "$PEERS" -tick 1ms -snapshot-every 8 >"$DIR/n2.log" 2>&1 & P2=$!
sleep 1

echo "serve-smoke: load burst 1 (full cluster)"
"$DIR/consensus-load" -addrs "$PEERS" -duration 2s -workers 8 -session 110000 \
    || die "load burst 1 committed nothing, or not what it acknowledged"

# Every original node must have compacted before the join: the joiner's
# log prefix is then gone cluster-wide, so only an InstallSnapshot can
# catch it up.
compacted() {
    local addr out
    for addr in "$A0" "$A1" "$A2"; do
        out=$(status_of "$addr") || return 1
        echo "$out" | grep -q '"snap_index": 0[^0-9]' && return 1
        echo "$out" | grep -q '"snap_index":' || return 1
    done
    return 0
}
echo "serve-smoke: waiting for every node to compact"
poll_until 20 "log compaction on all nodes" compacted

echo "serve-smoke: joining node 3 on $A3"
"$DIR/consensus-serve" -id 3 -peers "$PEERS4" -tick 1ms -join -snapshot-every 8 >"$DIR/n3.log" 2>&1 & P3=$!
sleep 0.5
"$DIR/consensus-admin" -addrs "$PEERS" add-node 3 "$A3" \
    || die "add-node was not submitted on any node"

# Snapshot catch-up assertion: the joiner must report at least one
# installed snapshot and a 4-member config on every shard group.
joined() {
    local out
    out=$(status_of "$A3") || return 1
    echo "$out" | grep -q '"installs": 0[^0-9]' && return 1
    echo "$out" | grep -q '"installs":' || return 1
    # Inside the indented members arrays, ids sit alone on a line; the
    # joiner appears once per shard group.
    [ "$(echo "$out" | grep -c '^[[:space:]]*3$')" -ge 2 ]
}
echo "serve-smoke: waiting for node 3 to catch up via snapshot"
poll_until 30 "joiner snapshot install + 4-member config" joined

echo "serve-smoke: load burst 2 (4-node cluster)"
"$DIR/consensus-load" -addrs "$PEERS4" -duration 2s -workers 8 -session 120000 \
    || die "load burst 2 after the join committed nothing, or not what it acknowledged"

echo "serve-smoke: voting node 0 out"
"$DIR/consensus-admin" -addrs "$PEERS4" remove-node 0 \
    || die "remove-node was not submitted on any node"
removed() {
    local out
    out=$(status_of "$A1") || return 1
    # No standalone "0" line: node 0 is out of every group's member set.
    ! echo "$out" | grep -q '^[[:space:]]*0,\{0,1\}$'
}
poll_until 20 "node 0 leaving the member set" removed

echo "serve-smoke: killing removed node 0 (pid $P0)"
kill -9 "$P0" 2>/dev/null
wait "$P0" 2>/dev/null
P0=""

echo "serve-smoke: load burst 3 (reshaped cluster 1,2,3)"
"$DIR/consensus-load" -addrs "1=$A1,2=$A2,3=$A3" -duration 2s -workers 8 -session 130000 \
    || die "load burst 3 committed nothing, or not what it acknowledged; reshaped cluster did not serve"

echo "serve-smoke: graceful shutdown"
kill -TERM "$P1" "$P2" "$P3"
wait "$P1"; E1=$?
wait "$P2"; E2=$?
wait "$P3"; E3=$?
P1=""; P2=""; P3=""
[ "$E1" -eq 0 ] || die "node 1 exited $E1 on SIGTERM"
[ "$E2" -eq 0 ] || die "node 2 exited $E2 on SIGTERM"
[ "$E3" -eq 0 ] || die "node 3 exited $E3 on SIGTERM"

# The shutdown summaries must show committed client operations: the
# bursts really went through consensus, not into a black hole.
TOTAL=0
for f in "$DIR/n1.log" "$DIR/n2.log" "$DIR/n3.log"; do
    C=$(sed -n 's/.*done committed=\([0-9]*\).*/\1/p' "$f" | tail -1)
    [ -n "$C" ] || die "no shutdown summary in $f"
    TOTAL=$((TOTAL + C))
done
[ "$TOTAL" -gt 0 ] || die "surviving nodes report committed=0"

# Multi-Paxos: reads are confirmed by a probe round, not logged; the
# burst after the leader's kill must still verify, and no operation may
# fail outright — the client rides out the failover window by retrying.
B0="127.0.0.1:$((BASE_PORT + 4))"
B1="127.0.0.1:$((BASE_PORT + 5))"
B2="127.0.0.1:$((BASE_PORT + 6))"
MPEERS="$B0,$B1,$B2"
echo "serve-smoke: starting 3-node multipaxos cluster on $MPEERS"
"$DIR/consensus-serve" -id 0 -peers "$MPEERS" -tick 1ms -backend multipaxos >"$DIR/m0.log" 2>&1 & M0=$!
"$DIR/consensus-serve" -id 1 -peers "$MPEERS" -tick 1ms -backend multipaxos >"$DIR/m1.log" 2>&1 & M1=$!
"$DIR/consensus-serve" -id 2 -peers "$MPEERS" -tick 1ms -backend multipaxos >"$DIR/m2.log" 2>&1 & M2=$!
sleep 1

# mp_burst <session> — a read-heavy burst that must verify with no errors.
mp_burst() {
    local out
    out=$("$DIR/consensus-load" -addrs "$MPEERS" -duration 2s -workers 8 -write-pct 5 -session "$1") \
        || die "multipaxos burst (session $1) committed nothing, or not what it acknowledged: $out"
    echo "$out" | grep -q 'errors=0 ' || die "multipaxos burst (session $1) had failed operations: $out"
    echo "$out" | grep 'latency_us\|verified'
}
echo "serve-smoke: multipaxos burst 1 (95% reads)"
mp_burst 140000

# leads_shard0 <addr> — succeeds if the node at addr leads shard 0.
leads_shard0() {
    # consensus-admin prints each group's keys sorted: is_leader comes
    # before shard, with nothing between them that holds a brace.
    status_of "$1" | tr -d ' \t\n' | grep -q '"is_leader":true,[^}]*"shard":0,'
}
LEAD=""
for _ in $(seq 1 50); do
    for i in 0 1 2; do
        eval "addr=\$B$i"
        leads_shard0 "$addr" && LEAD=$i && break 2
    done
    sleep 0.2
done
[ -n "$LEAD" ] || die "no multipaxos node leads shard 0"
eval "LPID=\$M$LEAD"
echo "serve-smoke: killing multipaxos shard-0 leader node $LEAD (pid $LPID)"
kill -9 "$LPID" 2>/dev/null
wait "$LPID" 2>/dev/null
eval "M$LEAD=''"

echo "serve-smoke: multipaxos burst 2 (after the leader's kill)"
mp_burst 150000

for pid in "$M0" "$M1" "$M2"; do
    [ -n "$pid" ] || continue
    kill -TERM "$pid"
    wait "$pid" || die "multipaxos node (pid $pid) exited nonzero on SIGTERM"
done
M0=""; M1=""; M2=""

echo "serve-smoke: PASS (survivors committed $TOTAL ops; join-by-snapshot and removal verified; multipaxos reads verified across a leader kill)"
