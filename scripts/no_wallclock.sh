#!/bin/sh
# Time read or waited on outside its owner, `dcgn_simtime::Clock`: for every
# Rust source under crates/*/src except crates/simtime/src, the non-test part
# (the lines before a file's first `#[cfg(test)]`, as nontest_lines.sh counts
# them) with comments stripped, print `file:line: token: text` for each use of
#   Instant / SystemTime   reading the host clock,
#   thread::sleep          sleeping,
#   thread::yield_now      yielding,
#   recv_timeout           a channel receive that gives up,
#   condvar-wait           a condvar `wait`, `wait_until`, `wait_for` or
#                          `wait_timeout` (spotted by the guard it takes:
#                          `.wait(&mut ...`).
# Each has a clock method instead: `now`/`elapsed`, `sleep`, `charge`,
# `yield_now`, `recv_until`, `wait_until`.
#
#   scripts/no_wallclock.sh            # list every use
#   scripts/no_wallclock.sh --check    # fail on a use the allowlist lacks
#
# --check prints only the uses scripts/no_wallclock.allow does not list (one
# `file token  # reason` per line, covering every use of that token in that
# file), plus allowlist entries without a reason or that no longer match a
# use, and exits 1 if it printed anything.
set -eu
cd "$(dirname "$0")/.."

allow=
if [ "${1:-}" = --check ]; then
    allow=scripts/no_wallclock.allow
fi

awk -v allow="$allow" '
    FILENAME == allow {
        if ($0 ~ /^[ \t]*(#|$)/) next
        if (!index($0, "#")) { print "no reason: " $0; failed = 1; next }
        allowed[$1 " " $2] = $0
        next
    }

    FNR == 1 { intest = 0 }
    /#\[cfg\(test\)\]/ { intest = 1 }
    intest { next }

    {
        line = $0
        sub(/\/\/.*/, "", line)
        w = "(^|[^A-Za-z0-9_])"
        e = "([^A-Za-z0-9_]|$)"
        hit = ""
        if (line ~ (w "(Instant|SystemTime)" e)) hit = hit " clock-read"
        if (line ~ /thread::sleep/) hit = hit " thread::sleep"
        if (line ~ /thread::yield_now/) hit = hit " thread::yield_now"
        if (line ~ (w "recv_timeout" e)) hit = hit " recv_timeout"
        if (line ~ /\.wait(_until|_for|_timeout)?\(&mut[ \t]/) hit = hit " condvar-wait"
        k = split(hit, tok, " ")
        for (i = 1; i <= k; i++) {
            key = FILENAME " " tok[i]
            if (key in allowed) { listed[key]; continue }
            print FILENAME ":" FNR ": " tok[i] ": " $0
            failed = 1
        }
    }

    END {
        for (a in allowed) {
            if (!(a in listed)) { print "stale allowlist entry: " allowed[a]; failed = 1 }
        }
        exit allow != "" && failed
    }
' $allow $(find crates/*/src -name '*.rs' | grep -v '^crates/simtime/' | sort)
