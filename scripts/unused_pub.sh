#!/bin/sh
# Public items that nothing runs: for every `pub fn|struct|enum|trait|const|
# type` in the non-test part of crates/<crate>/src (the lines before a
# file's first `#[cfg(test)]`, as nontest_lines.sh counts them), print
# `crate path item` when the item's name has no use in the workspace's Rust
# sources (crates/, src/, tests/, examples/, benchmark/src) except in
#   - its defining file,
#   - `#[cfg(test)]` code and `tests/` of its own crate,
#   - `pub use` lines and comments.
# A use of a type or const is any word match.  A use of a fn is only a
# call- or path-shaped one: `::name`, `name(` not preceded by `fn `, or
# `name::<`, so a field or a local of the same name keeps no method alive.
# Ignoring the defining file catches self-referential clusters; it also
# lists items whose only live caller sits in their own file.
#
#   scripts/unused_pub.sh [crate...]          # every crate by default
#   scripts/unused_pub.sh --check [crate...]
#
# --check prints only the items scripts/unused_pub.allow does not list
# (one `crate item  # reason` per line), plus allowlist entries of the
# checked crates that carry no reason or no longer name a listed item, and
# exits 1 if it printed anything.
set -eu
cd "$(dirname "$0")/.."

allow=
if [ "${1:-}" = --check ]; then
    allow=scripts/unused_pub.allow
    shift
fi
crates=${*:-$(ls crates)}

awk -v crates="$crates" -v allow="$allow" '
    BEGIN { n = split(crates, c, " "); for (i = 1; i <= n; i++) want[c[i]] }

    FILENAME == allow {
        if ($0 ~ /^[ \t]*(#|$)/) next
        if (!index($0, "#")) { print "no reason: " $0; failed = 1; next }
        allowed[$1 " " $2] = $0
        next
    }

    FNR == 1 {
        crate = ""
        if (FILENAME ~ /^crates\//) { split(FILENAME, p, "/"); crate = p[2] }
        intest = FILENAME ~ /^crates\/[^\/]+\/tests\//
        inuse = 0
    }
    /#\[cfg\(test\)\]/ { intest = 1 }

    # `pub use` lists (possibly over several lines) and comments never
    # keep an item alive.
    inuse { if (index($0, ";")) inuse = 0; next }
    /^[ \t]*pub(\([a-z]+\))? use / { if (!index($0, ";")) inuse = 1; next }
    /^[ \t]*\/\// { next }

    !intest && (crate in want) && FILENAME ~ /^crates\/[^\/]+\/src\// &&
    match($0, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const) +[A-Za-z_][A-Za-z0-9_]*/) {
        k = split(substr($0, RSTART, RLENGTH), w, " ")
        ni++; icrate[ni] = crate; ifile[ni] = FILENAME; iname[ni] = w[k]; ikind[ni] = w[k - 1]
    }

    # Record where each identifier occurs: file, crate, test or not.  `refs`
    # holds every word match; `calls` the call- or path-shaped ones outside
    # string literals.
    {
        line = $0
        sub(/\/\/.*/, "", line)
        where = FILENAME "\t" crate "\t" intest
        code = line
        gsub(/"([^"\\]|\\.)*"/, "\"\"", code)
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        k = split(line, tok, " ")
        for (i = 1; i <= k; i++) {
            if (!((tok[i], where) in seen)) {
                seen[tok[i], where]
                refs[tok[i]] = refs[tok[i]] where "\n"
            }
        }
        before = ""
        while (match(code, /[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(code, RSTART, RLENGTH)
            before = before substr(code, 1, RSTART - 1)
            code = substr(code, RSTART + RLENGTH)
            called = before ~ /::$/ || code ~ /^::</ || (code ~ /^\(/ && before !~ /(^|[^A-Za-z0-9_])fn[ \t]+$/)
            if (called && !((name, where) in seencall)) {
                seencall[name, where]
                calls[name] = calls[name] where "\n"
            }
            before = before name
        }
    }

    END {
        for (i = 1; i <= ni; i++) {
            key = icrate[i] SUBSEP ifile[i] SUBSEP iname[i]
            if (key in done) continue
            done[key]
            alive = 0
            m = split(ikind[i] == "fn" ? calls[iname[i]] : refs[iname[i]], r, "\n")
            for (j = 1; j < m && !alive; j++) {
                split(r[j], f, "\t")
                alive = f[1] != ifile[i] && !(f[2] == icrate[i] && f[3] == 1)
            }
            if (alive) continue
            if ((icrate[i] " " iname[i]) in allowed) { listed[icrate[i] " " iname[i]]; continue }
            print icrate[i], ifile[i], iname[i]
            failed = 1
        }
        for (a in allowed) {
            split(a, w, " ")
            if ((w[1] in want) && !(a in listed)) { print "stale allowlist entry: " allowed[a]; failed = 1 }
        }
        exit allow != "" && failed
    }
' $allow $(find crates src tests examples benchmark/src -name target -prune -o -name '*.rs' -print | sort)
