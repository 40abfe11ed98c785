#!/usr/bin/env bash
# servebench_pairs.sh — alternating base/change pairs of one servebench
# workload: the measurement every performance claim in CHANGES.md rests
# on, as one command instead of a hand-rolled loop.
#
#   scripts/servebench_pairs.sh BASE WORKLOAD [PAIRS] [SEED]
#   make bench-pairs BASE=HEAD~1 WORKLOAD=raft-serial PAIRS=10 SEED=7
#
# Builds cmd/servebench from BASE (a `git archive` of that revision
# unpacked under the git-ignored .bench_build/, so neither the index nor
# .git is touched) and from the working tree, then runs PAIRS pairs of
# `--workload WORKLOAD --seed SEED --seconds $RUN_SECONDS --trace 0`,
# each binary with its own checkout as working directory, alternating
# which side goes first. For every end-to-end metric BENCHMARK.json
# names it prints each side's median [quartiles], how far apart the
# medians are next to the base's own quartile spread (both as a share of
# the base median), and how many pairs the change won (a tie counts for
# neither side); then failed/attempted per side.
# The rule for a claim (choosing-metrics §8): the change wins at least
# nine pairs in ten, and the medians are further apart than the base's
# quartiles.
#
# Every run's result line is kept in .bench_build/pairs/ next to the
# binaries. A workload the base does not know fails in its first run.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 BASE WORKLOAD [PAIRS=10] [SEED=1]" >&2
    exit 2
fi
BASE="$1"; WORKLOAD="$2"; PAIRS="${3:-10}"; SEED="${4:-1}"
RUN_SECONDS="${RUN_SECONDS:-10}"
GO="${GO:-go}"

ROOT="$(git rev-parse --show-toplevel)"
SHA="$(git -C "$ROOT" rev-parse --verify "$BASE^{commit}")"
OUT="$ROOT/.bench_build/pairs"
SRC="$OUT/base-$SHA"
mkdir -p "$OUT"

if [ ! -x "$SRC/servebench" ]; then
    rm -rf "$SRC"; mkdir -p "$SRC"
    git -C "$ROOT" archive "$SHA" | tar -x -C "$SRC"
    (cd "$SRC" && "$GO" build -o servebench ./cmd/servebench)
fi
(cd "$ROOT" && "$GO" build -o "$OUT/servebench-change" ./cmd/servebench)

base_log="$OUT/$WORKLOAD-seed$SEED-base.jsonl"
change_log="$OUT/$WORKLOAD-seed$SEED-change.jsonl"
: > "$base_log"; : > "$change_log"

# run_side <dir> <binary> <log>: one run; its last line is the result.
run_side() {
    (cd "$1" && "$2" --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0) | tail -n 1 >> "$3"
}

echo "servebench pairs: $WORKLOAD, base $BASE (${SHA:0:7}) vs working tree, $PAIRS pairs, seed $SEED, $RUN_SECONDS s runs"
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side "$SRC" ./servebench "$base_log"
        run_side "$ROOT" "$OUT/servebench-change" "$change_log"
    else
        run_side "$ROOT" "$OUT/servebench-change" "$change_log"
        run_side "$SRC" ./servebench "$base_log"
    fi
    echo "  pair $i/$PAIRS done" >&2
done

# The summary: metric names and directions from BENCHMARK.json's
# end_to_end array (one "name" and one "better" line per entry), values
# from the result lines by name.
awk -v base_log="$base_log" -v change_log="$change_log" '
# number(line, key): the number that follows key in a result line.
function number(line, key,    at, rest) {
    at = index(line, key)
    if (at == 0) { print "servebench pairs: no " key " in a result line" > "/dev/stderr"; exit 1 }
    rest = substr(line, at + length(key))
    sub(/[,}].*/, "", rest)
    return rest + 0
}
function value(line, name) { return number(line, "\"" name "\":{\"value\":") }
function count(line, name) { return number(line, "\"" name "\":") }
# quantile q of v[1..n] (sorted in place), linear between neighbours.
function quantile(v, n, q,    i, j, t, pos, lo) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j+1] = v[j]; v[j+1] = t }
    pos = (n - 1) * q + 1; lo = int(pos)
    if (lo >= n) return v[n]
    return v[lo] + (pos - lo) * (v[lo+1] - v[lo])
}
function fmtnum(x) { return (x >= 1000) ? sprintf("%.0f", x) : (x >= 10) ? sprintf("%.1f", x) : sprintf("%.3f", x) }
function side(v, n,    m) {
    m = quantile(v, n, 0.5)
    return sprintf("%s [%s..%s]", fmtnum(m), fmtnum(quantile(v, n, 0.25)), fmtnum(quantile(v, n, 0.75)))
}
/"end_to_end"/ { inside = 1 }
inside && /\]/ { inside = 0 }
inside && /"name"/ { split($0, f, "\""); names[++metrics] = f[4] }
inside && /"better"/ { split($0, f, "\""); better[metrics] = f[4] }
END {
    while ((getline line < base_log) > 0) baseline[++nb] = line
    while ((getline line < change_log) > 0) changed[++nc] = line
    if (nb != nc || nb == 0 || metrics == 0) { print "servebench pairs: incomplete runs (" nb " base, " nc " change, " metrics " metrics)"; exit 1 }
    printf "%-14s %-26s %-26s %-24s %s\n", "metric", "base median [q1..q3]", "change median [q1..q3]", "medians apart (base IQR)", "change wins"
    for (m = 1; m <= metrics; m++) {
        wins = 0
        for (i = 1; i <= nb; i++) {
            b[i] = value(baseline[i], names[m]); c[i] = value(changed[i], names[m])
            if (better[m] == "lower" ? c[i] < b[i] : c[i] > b[i]) wins++
        }
        bs = side(b, nb); cs = side(c, nb)
        mb = quantile(b, nb, 0.5); mc = quantile(c, nb, 0.5)
        spread = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
        printf "%-14s %-26s %-26s %-24s %d/%d\n", names[m], bs, cs,
            sprintf("%+.1f%% (%.1f%%)", 100 * (mc - mb) / mb, 100 * spread / mb), wins, nb
    }
    for (i = 1; i <= nb; i++) {
        fb += count(baseline[i], "failed"); ab += count(baseline[i], "attempted")
        fc += count(changed[i], "failed"); ac += count(changed[i], "attempted")
    }
    printf "failed: base %d of %d attempted, change %d of %d\n", fb, ab, fc, ac
}' "$ROOT/BENCHMARK.json"
