#!/bin/sh
# Alternating parent/change pairs of the repository benchmark — the
# measurement the ROADMAP house rule asks every PR to record.
#
#   scripts/ab_pairs.sh <parent-rev> <workload|all> [pairs] [first-seed]
#
# The parent is <parent-rev> exported into a temporary directory (with
# `git archive`, so nothing is left behind in .git); the change is this
# working tree, committed or not.  Both sides are built once, each into its
# own CARGO_TARGET_DIR, by the command BENCHMARK.json names, and then run
# with it for BENCHMARK.json's run_seconds: pair i uses seed first-seed+i-1
# (default 1) on both sides, odd pairs run the parent first, even pairs the
# change.  Printed: per pair and per end-to-end metric both values, beside
# them the host's CPU steal ticks during each run (the `steal` column of
# /proc/stat's `cpu` line, read before and after it: time the hypervisor
# gave other guests, so a slow run with many is the host's) and the CPU
# seconds each run took (user + sys of the benchmark and its cargo wrapper,
# from the shell's `times` before and after it: a change that buys latency
# with CPU shows here), then per metric both medians with their
# quartiles, how many pairs the change won (ties count for neither side)
# and the house rule's verdict: `gain` (the change won >= 9 in 10 pairs and
# the medians differ by more than the parent's IQR), else, when the
# parent's IQR exceeds the bound, `all runs better` (every change run beats
# every parent run) or `unresolved`, else `worse than bound` or `within
# bound`; last, per workload, each side's attempted and failed operations
# summed over its runs, with the failed share.  It reads benchmark/ and
# BENCHMARK.json and changes neither: cargo rewrites benchmark/Cargo.lock
# when it builds the change side, and the script puts the file back as it
# found it when it exits.  Set TMPDIR to choose where the export and the
# two target directories (~250 MB) go.
set -eu

[ $# -ge 2 ] || { sed -n '2,32s/^# \{0,1\}//p' "$0"; exit 2; }
rev=$1 which=$2 pairs=${3:-10} seed0=${4:-1}
root=$(cd "$(dirname "$0")/.." && pwd)
spec=$root/BENCHMARK.json

cmd=$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' "$spec" | tr -d '",')
secs=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")
metrics=$(sed -n 's/.*{"name": "\([^"]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1:\2:\3/p' "$spec")
if [ "$which" = all ]; then
    which=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$spec")
fi

tmp=$(mktemp -d)
lock=$root/benchmark/Cargo.lock
cp "$lock" "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" "$lock"; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

# run <side> <args...>: the benchmark command in that side's tree; the
# result object is the last line of its output.
run() {
    side=$1
    shift
    case $side in parent) dir=$tmp/parent ;; *) dir=$root ;; esac
    (cd "$dir" && CARGO_TARGET_DIR="$tmp/target-$side" $cmd "$@") | tail -n 1
}
value() { # value <result object> <metric>
    printf '%s\n' "$1" | sed -n 's/.*"'"$2"'": {"value": \([-0-9.e+]*\).*/\1/p'
}
count() { # count <result object> <attempted|failed>
    printf '%s\n' "$1" | sed -n 's/.*"'"$2"'": \([0-9]*\).*/\1/p'
}
steal() { # steal: the host's CPU steal ticks so far
    awk '$1 == "cpu" { print $9 }' /proc/stat
}
cpu_s() { # cpu_s <before> <after>: the children's user + sys seconds between
    # two `times` outputs (its second line), written by this shell itself:
    # a subshell's `times` counts only the subshell's own children.
    awk 'FNR == 2 { for (i = 1; i <= 2; i++) { split($i, t, "m"); s[FILENAME] += t[1] * 60 + t[2] } }
         END { printf "%.3f\n", s[ARGV[2]] - s[ARGV[1]] }' "$1" "$2"
}

echo "parent $(git -C "$root" rev-parse --short "$rev"), change $(git -C "$root" describe --always --dirty), $pairs pairs, ${secs}s runs, nproc $(nproc)"
echo "building both sides"
for side in parent change; do
    run "$side" check >/dev/null
done

for w in $which; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        seed=$((seed0 + i - 1))
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            before=$(steal)
            times >"$tmp/times.before"
            run "$side" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 >"$tmp/$side.out"
            times >"$tmp/times.after"
            echo $(($(steal) - before)) >"$tmp/$side.steal"
            cpu_s "$tmp/times.before" "$tmp/times.after" >"$tmp/$side.cpu"
            grep -q '"failed": 0,' "$tmp/$side.out" ||
                echo "$w pair $i: $side run did not verify: $(cat "$tmp/$side.out")"
        done
        parent=$(cat "$tmp/parent.out") change=$(cat "$tmp/change.out")
        echo "$w parent $(count "$parent" attempted) $(count "$parent" failed)" >>"$tmp/ops"
        echo "$w change $(count "$change" attempted) $(count "$change" failed)" >>"$tmp/ops"
        for m in $metrics; do
            name=${m%%:*}
            p=$(value "$parent" "$name") c=$(value "$change" "$name")
            printf '%-18s pair %2d seed %3d  %-12s parent %14.4f  change %14.4f\n' \
                "$w" "$i" "$seed" "$name" "$p" "$c"
            echo "$w $m $p $c" >>"$tmp/values"
        done
        printf '%-18s pair %2d seed %3d  %-12s parent %14d  change %14d\n' \
            "$w" "$i" "$seed" steal_ticks "$(cat "$tmp/parent.steal")" "$(cat "$tmp/change.steal")"
        printf '%-18s pair %2d seed %3d  %-12s parent %14.3f  change %14.3f\n' \
            "$w" "$i" "$seed" cpu_s "$(cat "$tmp/parent.cpu")" "$(cat "$tmp/change.cpu")"
        i=$((i + 1))
    done
done

# Quartiles by linear interpolation between order statistics.
echo
printf '%-18s %-12s %32s  %32s  %-17s %s\n' workload metric \
    "parent median [q1 .. q3]" "change median [q1 .. q3]" "change wins" verdict
for w in $which; do
    for m in $metrics; do
        for col in 3 4; do
            awk -v w="$w" -v m="$m" -v col="$col" '$1 == w && $2 == m { print $col }' \
                "$tmp/values" | sort -n >"$tmp/col$col"
        done
        awk -v w="$w" -v m="$m" '
            function q(v, n, f,    pos, lo) {
                pos = 1 + (n - 1) * f; lo = int(pos)
                return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
            }
            FILENAME ~ /col3$/ { a[++na] = $1; next }
            FILENAME ~ /col4$/ { b[++nb] = $1; next }
            $1 == w && $2 == m {
                n++
                if (m ~ /:lower:/ ? $4 < $3 : $4 > $3) wins++
                else if ($4 != $3) losses++
            }
            END {
                split(m, f, ":")
                pm = q(a, na, .5); cm = q(b, nb, .5)
                iqr = q(a, na, .75) - q(a, na, .25)
                gain = f[2] == "lower" ? pm - cm : cm - pm
                better = f[2] == "lower" ? b[nb] < a[1] : b[1] > a[na]
                if (wins * 10 >= n * 9 && gain > iqr) verdict = "gain"
                else if (iqr > f[3] * pm) verdict = better ? "all runs better" : "unresolved"
                else if (-gain > f[3] * pm) verdict = "worse than bound"
                else verdict = "within bound"
                printf "%-18s %-12s %12.4f [%8.4f .. %8.4f]  %12.4f [%8.4f .. %8.4f]  %2d of %2d (%d lost) %s\n",
                    w, f[1], pm, q(a, na, .25), q(a, na, .75),
                    cm, q(b, nb, .25), q(b, nb, .75), wins, n, losses, verdict
            }' "$tmp/col3" "$tmp/col4" "$tmp/values"
    done
done

echo
for w in $which; do
    awk -v w="$w" '
        $1 == w { att[$2] += $3; fail[$2] += $4 }
        END {
            for (s = 0; s < 2; s++) {
                side = s ? "change" : "parent"
                share[side] = att[side] ? fail[side] / att[side] : 0
                printf "%-18s %-6s attempted %10d  failed %6d  failed_op_share %.6f\n",
                    w, side, att[side], fail[side], share[side]
            }
            if (share["change"] > share["parent"]) print w ": the change fails a larger share of operations"
        }' "$tmp/ops"
done
