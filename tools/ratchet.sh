#!/usr/bin/env bash
# Source-invariant ratchet for every crate under crates/: the number of
# `.unwrap(` / `.expect(` calls in each crate's non-test code under
# crates/<crate>/src may never go up. CI runs this against the committed
# per-crate floors (tools/ratchet_baseline.txt, one `crate count` line
# each; a crate without a line has floor 0); a PR that adds a panic path
# fails, a PR that removes one should tighten the floors with `--update`.
#
# "Non-test" means everything before the first `#[cfg(test)]` in each
# file — the workspace's idiom keeps test modules at the bottom.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_FILE=tools/ratchet_baseline.txt

# One `crate count` line per crate, in name order.
count_panics() {
    local dir crate total n f
    for dir in crates/*/src; do
        crate=${dir#crates/}
        crate=${crate%/src}
        total=0
        while IFS= read -r f; do
            n=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f" \
                | grep -o -E '\.(unwrap|expect)\(' | wc -l)
            total=$((total + n))
        done < <(find "$dir" -name '*.rs' | sort)
        echo "$crate $total"
    done
}

current=$(count_panics)

if [[ "${1:-}" == "--update" ]]; then
    echo "$current" > "$BASELINE_FILE"
    echo "ratchet floors set:"
    echo "$current"
    exit 0
fi

if [[ ! -f "$BASELINE_FILE" ]]; then
    echo "missing $BASELINE_FILE — run tools/ratchet.sh --update once" >&2
    exit 1
fi

declare -A floor
while read -r crate n; do
    floor[$crate]=$n
done < "$BASELINE_FILE"

violations=0
tighten=0
while read -r crate n; do
    base=${floor[$crate]:-0}
    echo "$crate: unwrap()/expect() in non-test code: $n (floor $base)"
    if (( n > base )); then
        echo "RATCHET VIOLATION: $((n - base)) new panic path(s) in crates/$crate/src" \
            "— return a typed error instead, or (only for a provably unreachable" \
            "case) justify and re-baseline with tools/ratchet.sh --update" >&2
        violations=$((violations + 1))
    elif (( n < base )); then
        tighten=1
    fi
done <<< "$current"

if (( violations > 0 )); then
    exit 1
fi

if (( tighten )); then
    echo "ratchet can tighten: commit the new floors with tools/ratchet.sh --update"
fi
