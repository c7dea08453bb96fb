#!/bin/sh
# Non-test line count the ROADMAP asks each PR to record: for every Rust
# source file under crates/*/src, the lines before its first `#[cfg(test)]`
# (the whole file when it has none), then one total per crate.  With no
# argument it also prints the total over every crate.
#
#   scripts/nontest_lines.sh            # every crate
#   scripts/nontest_lines.sh core       # crates/core only
set -eu
cd "$(dirname "$0")/.."

# count DIR: per-file lines and the total of DIR; sets $total.
count() {
    total=0
    for file in $(find "$1" -name '*.rs' | sort); do
        lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%6d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done
    printf '%6d  %s total\n\n' "$total" "$1"
}

crates=0
for crate in ${*:-$(ls crates)}; do
    count "crates/$crate/src"
    crates=$((crates + total))
done
[ $# -eq 0 ] || exit 0
printf '%6d  crates/*/src total\n' "$crates"
