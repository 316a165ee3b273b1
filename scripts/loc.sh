#!/usr/bin/env bash
# Size report: tracked, non-vendor, non-benchmark/ Rust LOC (total and per
# crate), `pub` item lines under each crate's src/, and the grep-gate count
# in check.sh.
# Print only — the numbers are a trend to watch, not a gate.
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files() { git ls-files '*.rs' | grep -Ev '^(vendor|benchmark)/' || true; }
pub_re='^[[:space:]]*pub (fn|struct|enum|trait|mod|const|type) '

# Group by crate directory; root src/, tests/ and examples/ stand alone.
group() { sed -E 's#^(crates/[^/]+|[^/]+)/.*#\1#'; }

printf '%-20s %8s %6s\n' crate loc pub
for g in $(files | group | sort -u); do
    loc=$(files | grep -E "^$g/" | xargs cat | wc -l)
    srcdir="$g/src"
    [[ $g == src ]] && srcdir=src
    pubs=$(files | grep "^$srcdir/" | xargs -r grep -hE "$pub_re" | wc -l || true)
    printf '%-20s %8d %6d\n' "$g" "$loc" "$pubs"
done
printf '%-20s %8d\n' total "$(files | xargs cat | wc -l)"
printf '%-20s %8d\n' 'check.sh gates' "$(grep -c '^gate ' scripts/check.sh)"
