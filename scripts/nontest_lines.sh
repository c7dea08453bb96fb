#!/bin/sh
# Non-test line count the ROADMAP asks each PR to record: for every Rust
# source file under crates/*/src, the lines before its first `#[cfg(test)]`
# (the whole file when it has none), then one total per crate.
#
#   scripts/nontest_lines.sh            # every crate
#   scripts/nontest_lines.sh core       # crates/core only
set -eu
cd "$(dirname "$0")/.."

for crate in ${*:-$(ls crates)}; do
    total=0
    for file in $(find "crates/$crate/src" -name '*.rs' | sort); do
        lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%6d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done
    printf '%6d  crates/%s/src total\n\n' "$total" "$crate"
done
