#!/usr/bin/env bash
# servebench_pairs.sh — alternating base/change pairs of one measurement:
# what every performance claim in CHANGES.md rests on, as one command
# instead of a hand-rolled loop. It measures one of two things:
#
#   scripts/servebench_pairs.sh BASE WORKLOAD [PAIRS] [SEED]
#   make bench-pairs BASE=HEAD~1 WORKLOAD=raft-serial PAIRS=10 SEED=7
#       one cmd/servebench workload, `--workload WORKLOAD --seed SEED
#       --seconds $RUN_SECONDS --trace 0`: every end-to-end metric
#       BENCHMARK.json names, then failed and attempted ops per side.
#       WORKLOAD may also be a comma-separated list, or `all` (every
#       workload BENCHMARK.json declares): each runs its pairs in turn
#       and prints its own table.
#
#   scripts/servebench_pairs.sh BASE ./PKG RUN [PAIRS]
#   make bench-pair BASE=HEAD~1 PKG=./internal/raft RUN=Persistence PAIRS=10
#       the go test benchmarks of package PKG (written ./path, which is
#       what tells the two uses apart) that match RUN, each side's test
#       binary run from its package directory with `-test.bench RUN
#       -test.benchtime $BENCHTIME -test.benchmem`: ns/op and allocs/op
#       of every benchmark matched.
#       BENCHTIME (default 1000x) is an iteration count, not a duration,
#       so both sides do the same work; size it to the benchmark.
#
# Either way it builds the binary from BASE (a `git archive` of that
# revision unpacked under the git-ignored .bench_build/, so neither the
# index nor .git is touched) and from the working tree, then runs PAIRS
# pairs, each binary with its own checkout as working directory,
# alternating which side goes first. Per metric it prints each side's
# median [quartiles], how far apart the medians are next to the base's
# own quartile spread (both as a share of the base median), how many
# pairs the change won (a tie counts for neither side), and a verdict by
# the rule for a claim (choosing-metrics §8): at least ten pairs, one
# side wins at least nine in ten and the medians are further apart than
# the base's quartiles; anything less is "no difference", which is a
# result, not an error.
#
# Every run's readings are kept in .bench_build/pairs/ next to the
# binaries. A workload the base does not know fails as incomplete; a
# benchmark in a test file the base does not have is lent to it (below).
# The source trees of other revisions under .bench_build/ (this script's
# and soak.sh's) are deleted: they are full copies of old source that
# `grep -r` over the checkout would walk into. Run one invocation of
# either script at a time.
set -euo pipefail

usage() {
    echo "usage: $0 BASE WORKLOAD [PAIRS=10] [SEED=1]" >&2
    echo "       $0 BASE ./PKG RUN [PAIRS=10]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
BASE="$1"
GO="${GO:-go}"

ROOT="$(git rev-parse --show-toplevel)"
SHA="$(git -C "$ROOT" rev-parse --verify "$BASE^{commit}")"
OUT="$ROOT/.bench_build/pairs"
SRC="$OUT/base-$SHA"

# Several workloads: one run of this script per workload, in turn.
case "$2" in
all | *,*)
    if [ "$2" = all ]; then
        list="$(awk '/"workloads"/ { inside = 1 } inside && /\]/ { inside = 0 }
            inside && /"name"/ { split($0, f, "\""); print f[4] }' "$ROOT/BENCHMARK.json")"
    else
        list="$(echo "$2" | tr , ' ')"
    fi
    for w in $list; do
        echo "== $w"
        "$0" "$1" "$w" "${@:3}"
    done
    exit 0
    ;;
esac

# What differs between the two uses: what to build, where and how to run
# it, and `readings`, which turns one run's output into lines of
# "metric value better" (better: lower | higher | sum, the last for
# counts that are totalled, not compared).
case "$2" in
./*)
    [ $# -ge 3 ] && [ $# -le 4 ] || usage
    PKG="$2"; RUN="$3"; PAIRS="${4:-10}"
    BENCHTIME="${BENCHTIME:-1000x}"
    WHAT="go test $PKG -bench '$RUN', -benchtime $BENCHTIME"
    BIN="$(echo "${PKG#./}" | tr / _).test"; TAG="${BIN%.test}"
    BUILD=(test -c "$PKG"); CWD="$PKG"
    ARGS=(-test.run '^$' -test.bench "$RUN" -test.benchtime "$BENCHTIME" -test.benchmem -test.timeout 30m)
    readings() {
        awk '/^Benchmark/ { sub(/^Benchmark/, "", $1)
            for (i = 3; i < NF; i += 2) if ($(i+1) == "ns/op" || $(i+1) == "allocs/op") print $1 ":" $(i+1), $i, "lower" }'
    }
    ;;
*)
    [ $# -le 4 ] || usage
    WORKLOAD="$2"; PAIRS="${3:-10}"; SEED="${4:-1}"
    RUN_SECONDS="${RUN_SECONDS:-10}"
    WHAT="servebench $WORKLOAD, seed $SEED, $RUN_SECONDS s runs"
    BIN=servebench; TAG="$WORKLOAD-seed$SEED"
    BUILD=(build ./cmd/servebench); CWD=.
    ARGS=(--workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0)
    # Names and directions from BENCHMARK.json's end_to_end array (one
    # "name" and one "better" line per entry), values from the run's last
    # line by name.
    readings() {
        tail -n 1 | awk '
        function number(line, key,    at, rest) {
            at = index(line, key)
            if (at == 0) { print "pairs: no " key " in a result line" > "/dev/stderr"; exit 1 }
            rest = substr(line, at + length(key))
            sub(/[,}].*/, "", rest)
            return rest + 0
        }
        FNR == NR && /"end_to_end"/ { inside = 1 }
        FNR == NR && inside && /\]/ { inside = 0 }
        FNR == NR && inside && /"name"/ { split($0, f, "\""); names[++metrics] = f[4] }
        FNR == NR && inside && /"better"/ { split($0, f, "\""); better[metrics] = f[4] }
        FNR != NR {
            for (m = 1; m <= metrics; m++) print names[m], number($0, "\"" names[m] "\":{\"value\":"), better[m]
            print "failed", number($0, "\"failed\":"), "sum"
            print "attempted", number($0, "\"attempted\":"), "sum"
        }' "$ROOT/BENCHMARK.json" -
    }
    ;;
esac

mkdir -p "$OUT"
for tree in "$OUT"/base-* "$ROOT"/.bench_build/soak/*; do
    [ "$tree" = "$SRC" ] || rm -rf "$tree"
done
if [ ! -d "$SRC" ]; then
    mkdir -p "$SRC"
    git -C "$ROOT" archive "$SHA" | tar -x -C "$SRC"
fi
# A benchmark the change introduces has no file at the base. Lend the
# base checkout each *_test.go of PKG that declares a benchmark and that
# BASE itself does not have — a file of its own is never replaced — so
# that the change which adds a benchmark can measure its parent with it.
# (It builds there if it is written against what the base exports.)
if [ -n "${PKG:-}" ] && [ -d "$SRC/$PKG" ]; then
    for f in $(grep -ls '^func Benchmark' "$ROOT/$PKG"/*_test.go); do
        name="$(basename "$f")"
        ! git -C "$ROOT" cat-file -e "$SHA:${PKG#./}/$name" 2>/dev/null || continue
        cp "$f" "$SRC/$PKG/$name"
        echo "pairs: base has no $PKG/$name: using the working tree's"
    done
fi
(cd "$SRC" && "$GO" "${BUILD[0]}" -o "$SRC/$BIN" "${BUILD[@]:1}")
(cd "$ROOT" && "$GO" "${BUILD[0]}" -o "$OUT/change-$BIN" "${BUILD[@]:1}")

base_log="$OUT/$TAG-base.txt"
change_log="$OUT/$TAG-change.txt"
: > "$base_log"; : > "$change_log"

# run_side <checkout> <binary> <log>: one run, its readings appended.
run_side() {
    (cd "$1/$CWD" && "$2" "${ARGS[@]}") | readings >> "$3"
}

echo "pairs: $WHAT; base $BASE (${SHA:0:7}) vs working tree, $PAIRS pairs"
# What the runs inherit from the machine: GOMAXPROCS alone moves every
# servebench metric by up to a third, so a table read later says it.
echo "pairs: nproc $(nproc), GOMAXPROCS ${GOMAXPROCS:-unset}, $("$GO" version)"
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side "$SRC" "$SRC/$BIN" "$base_log"
        run_side "$ROOT" "$OUT/change-$BIN" "$change_log"
    else
        run_side "$ROOT" "$OUT/change-$BIN" "$change_log"
        run_side "$SRC" "$SRC/$BIN" "$base_log"
    fi
    echo "  pair $i/$PAIRS done" >&2
done

# The summary pairs the i-th reading of a metric on one side with the
# i-th on the other.
awk -v pairs="$PAIRS" '
# quantile q of v[1..n] (sorted in place), linear between neighbours.
function quantile(v, n, q,    i, j, t, pos, lo) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j+1] = v[j]; v[j+1] = t }
    pos = (n - 1) * q + 1; lo = int(pos)
    if (lo >= n) return v[n]
    return v[lo] + (pos - lo) * (v[lo+1] - v[lo])
}
function fmtnum(x) { return (x >= 1000) ? sprintf("%.0f", x) : (x >= 10) ? sprintf("%.1f", x) : sprintf("%.3f", x) }
function side(v, n) { return sprintf("%s [%s..%s]", fmtnum(quantile(v, n, 0.5)), fmtnum(quantile(v, n, 0.25)), fmtnum(quantile(v, n, 0.75))) }
FNR == NR { if (!($1 in nb)) { names[++metrics] = $1; better[$1] = $3; if (length($1) > width) width = length($1) }; bv[$1, ++nb[$1]] = $2; next }
{ cv[$1, ++nc[$1]] = $2 }
END {
    for (m = 1; m <= metrics; m++) if (nb[names[m]] != pairs || nc[names[m]] != pairs) bad = 1
    if (bad || metrics == 0) { print "pairs: incomplete runs: a side did not report every metric " pairs " times"; exit 1 }
    row = "%-" width "s %-26s %-26s %-24s %-11s %s\n"
    printf row, "metric", "base median [q1..q3]", "change median [q1..q3]", "medians apart (base IQR)", "change wins", "verdict"
    for (m = 1; m <= metrics; m++) {
        name = names[m]; n = nb[name]
        if (better[name] == "sum") continue
        wins = 0; losses = 0
        for (i = 1; i <= n; i++) {
            b[i] = bv[name, i]; c[i] = cv[name, i]
            if (c[i] != b[i]) { if ((c[i] < b[i]) == (better[name] == "lower")) wins++; else losses++ }
        }
        bs = side(b, n); cs = side(c, n)
        mb = quantile(b, n, 0.5); apart = quantile(c, n, 0.5) - mb
        spread = quantile(b, n, 0.75) - quantile(b, n, 0.25)
        verdict = (n < 10) ? "fewer than 10 pairs" : "no difference"
        if (n >= 10 && (apart > spread || -apart > spread)) {
            if (wins >= 0.9 * n) verdict = "better"
            if (losses >= 0.9 * n) verdict = "worse"
        }
        printf row, name, bs, cs,
            (mb == 0) ? sprintf("%+g (%g)", apart, spread) : sprintf("%+.1f%% (%.1f%%)", 100 * apart / mb, 100 * spread / mb),
            wins "/" n, verdict
    }
    for (m = 1; m <= metrics; m++) {
        name = names[m]
        if (better[name] != "sum") continue
        tb = 0; tc = 0
        for (i = 1; i <= nb[name]; i++) { tb += bv[name, i]; tc += cv[name, i] }
        printf "%s: base %d, change %d\n", name, tb, tc
    }
}' "$base_log" "$change_log"
