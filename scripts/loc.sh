#!/usr/bin/env bash
# Size report: tracked, non-vendor, non-benchmark/ Rust LOC (total and per
# crate), `pub` item lines and runtime panic sites under each crate's src/,
# and the grep-gate count in check.sh. A panic site is a line before the
# file's `#[cfg(test)]`, not a comment, containing `.unwrap()`, `.expect(`,
# `panic!` or `unreachable!` — a budget that should only shrink.
# Prints by default; `--check` also fails when a crate's runtime panic
# sites exceed its line in scripts/panic_budget.txt (lower the line when a
# crate shrinks; raising it needs a reason in the PR).
#   scripts/loc.sh [--check]
#   scripts/loc.sh --runtime <file>...   lines before `#[cfg(test)]`, summed
set -euo pipefail
cd "$(dirname "$0")/.."
budget=scripts/panic_budget.txt

if [[ ${1:-} == --runtime ]]; then
    shift
    for f in "$@"; do
        awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f"
    done | awk '{t += $1} END{print t+0}'
    exit
fi

files() { git ls-files '*.rs' | grep -Ev '^(vendor|benchmark)/' || true; }
pub_re='^[[:space:]]*pub (fn|struct|enum|trait|mod|const|type) '
panic_re='\.unwrap\(\)|\.expect\(|panic!|unreachable!'

# The runtime part of each file: up to its `#[cfg(test)]`, comments dropped.
runtime() {
    for f in "$@"; do
        awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f"
    done
}

# Group by crate directory; root src/, tests/ and examples/ stand alone.
group() { sed -E 's#^(crates/[^/]+|[^/]+)/.*#\1#'; }

over=0
printf '%-20s %8s %6s %7s\n' crate loc pub panics
for g in $(files | group | sort -u); do
    loc=$(files | grep -E "^$g/" | xargs cat | wc -l)
    srcdir="$g/src"
    [[ $g == src ]] && srcdir=src
    pubs=$(files | grep "^$srcdir/" | xargs -r grep -hE "$pub_re" | wc -l || true)
    # shellcheck disable=SC2046
    panics=$(runtime $(files | grep "^$srcdir/") | grep -cE "$panic_re" || true)
    printf '%-20s %8d %6d %7d\n' "$g" "$loc" "$pubs" "$panics"
    if [[ ${1:-} == --check ]]; then
        allowed=$(awk -v g="$g" '$1 == g {print $2}' "$budget")
        if (( panics > ${allowed:-0} )); then
            echo "FAIL: $g has $panics runtime panic sites, budget ${allowed:-0} ($budget)" >&2
            over=1
        fi
    fi
done
printf '%-20s %8d\n' total "$(files | xargs cat | wc -l)"
printf '%-20s %8d\n' 'check.sh gates' "$(grep -c '^gate ' scripts/check.sh)"
exit "$over"
