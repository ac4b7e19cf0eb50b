#!/usr/bin/env bash
# Non-test source lines per crate: for every `crates/<c>/src/**/*.rs`
# except `tests.rs` modules, the lines before the file's first
# `#[cfg(test)]` (the whole file when it has none). A `#[cfg(test)]`
# directly above `mod <name>;` only declares an out-of-line test module
# (a skipped `tests.rs`), so it does not end the count. Blank and comment
# lines count. Prints one `<crate> <lines>` row per crate, then the total.
#
# Informational only: there is no threshold.
#
# Usage: scripts/source_lines.sh

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  lines=$(find "$dir/src" -name '*.rs' ! -name tests.rs -print0 | sort -z |
    xargs -0 awk '
      FNR == 1 { counting = 1; held = 0 }
      held && !/^[[:space:]]*mod [a-z_]+;/ { counting = 0 }
      held { held = 0; if (counting) n += 2; next }
      counting && /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
      counting { n++ }
      END { print n + 0 }')
  printf '%-10s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
