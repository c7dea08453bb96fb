#!/bin/sh
# Per-operation cost ledger of one workload of the repository benchmark.
#
#   scripts/ledger_per_op.sh <workload> [seed] [seconds]
#
# Runs the command BENCHMARK.json names in this tree, with --trace 0 and
# DCGN_METRICS pointed at a temporary file, for <seconds> (default
# BENCHMARK.json's run_seconds) with <seed> (default 1).  Every launch
# rewrites that file with the registry it reports into, which the benchmark
# keeps for all its rounds, so the last dump counts exactly the operations
# the result's `attempted` counts.  Printed: `attempted`, then for each
# `model.charged_ns.*` counter (the modelled-cost ledger), each
# `model.overshoot_ns.*` counter (the real time those charges blocked past
# their modelled length; for `network`, whose frames book the NIC without
# blocking, the real time from each frame's landing to its take; for
# `queue_hop`, due one hop after a crossing's first work item was sent, the
# taker's lateness past that due stamp; for the `intra_node` copies and
# `drain`, booked from a frame's landing, the lateness past a booked end the
# thread waited for, and none for one already over when reached), each
# `comm.requests.*` / `comm.crossings.*` / `comm.missed_landings.*` counter
# (idle comm-thread waits that ran past a landing; 0 on working code),
# `fabric.frames` (inter-node frames the fabric carried), `rmpi.eager_sends`
# (eager isends, one per message: a batch frame carries several),
# `rmpi.progress_passes` (passes of every communicator's progress engine),
# `clock.parks` (waits that outlasted the spin budget and parked) and `clock.hops_hidden`
# (crossings whose hop was already due when their drain paid it) its total
# and its total divided by `attempted`, and last the overshoot summed over
# every kind.
# To compare two revisions, run a copy of this script in a checkout of
# each.  It reads benchmark/ and BENCHMARK.json and changes neither: the
# build goes to CARGO_TARGET_DIR (default .bench_build/, git-ignored), and
# benchmark/Cargo.lock is put back as it was found.
set -eu

[ $# -ge 1 ] || { sed -n '2,33s/^# \{0,1\}//p' "$0"; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
spec=$root/BENCHMARK.json
cmd=$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' "$spec" | tr -d '",')
workload=$1 seed=${2:-1}
secs=${3:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")}

tmp=$(mktemp -d)
lock=$root/benchmark/Cargo.lock
cp "$lock" "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" "$lock"; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

result=$(cd "$root" &&
    CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/.bench_build} DCGN_METRICS=$tmp/metrics.json \
        $cmd --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0 | tail -n 1)
attempted=$(printf '%s\n' "$result" | sed -n 's/.*"attempted": \([0-9]*\).*/\1/p')
[ -n "$attempted" ] && [ "$attempted" -gt 0 ] && [ -s "$tmp/metrics.json" ] || {
    echo "no operations or no metrics dump: $result" >&2
    exit 1
}

echo "$workload seed $seed ${secs}s: attempted $attempted"
# Counter lines of the dump read `    "name": value,`; the counters section
# comes first and ends at the gauges header.
sed -n '/"counters"/,/"gauges"/s/^ *"\([^"]*\)": \([0-9]*\),\{0,1\}$/\1 \2/p' "$tmp/metrics.json" |
    grep -E '^(model\.(charged|overshoot)_ns\.|comm\.(requests|crossings|missed_landings)\.|(fabric\.frames|rmpi\.(eager_sends|progress_passes)|clock\.(parks|hops_hidden))[ .])' |
    awk -v n="$attempted" '
        { printf "%-40s %16.0f %16.3f per op\n", $1, $2, $2 / n }
        $1 ~ /^model\.overshoot_ns\./ { over += $2 }
        END { printf "%-40s %16.0f %16.3f per op\n", "model.overshoot_ns (all kinds)", over, over / n }'
