#!/usr/bin/env bash
# Determinism lint: reports in this repo must be byte-identical across
# runs and across `--jobs` settings, so std's randomly-seeded HashMap /
# HashSet must never feed a report or serialization path. Iteration
# order over those types varies per process; anything rendered, summed
# in float order, or sampled from such an iteration drifts between runs.
#
# Policy: every `HashMap` / `HashSet` mention in library and binary
# sources must be on the allowlist below, with a justification. Legal
# justifications are, in order of preference:
#   1. keyed lookup only (never iterated),
#   2. iterated only into an order-insensitive reduction (`len`, integer
#      sums, or values sorted before use),
#   3. internal scheduler state whose outputs are re-ordered
#      deterministically before rendering (harness shard merge),
#   4. `#[cfg(test)]`-only code.
# New report-adjacent code should use BTreeMap / BTreeSet (or sort
# explicitly) instead of growing this list.
#
# Usage: scripts/lint_determinism.sh   (exits non-zero on violations)

set -euo pipefail
cd "$(dirname "$0")/.."

# path:justification — keep alphabetized.
ALLOWLIST=(
  "crates/bench/src/experiments/injection.rs:per-process plan memo, keyed lookup only"
  "crates/bench/src/lib.rs:StreamStats histogram values sorted before use"
  "crates/faults/src/campaign.rs:clean_signatures() map, keyed lookup only"
  "crates/faults/src/classify.rs:public classify() API takes a lookup-only map"
  "crates/fuzz/src/corpus.rs:dedup membership set, probed only (audited: digest/stats fold over the entries Vec, never the set)"
  "crates/fuzz/src/oracle.rs:clean-run signature lookup maps, keyed lookup only"
  "crates/harness/src/job.rs:DAG validation state; order-insensitive checks"
  "crates/harness/src/pool.rs:test-only worker-id set behind a Mutex"
  "crates/harness/src/runner.rs:scheduler state; shard payloads re-sorted by index before rendering"
  "crates/isa/src/opcode.rs:OnceLock mnemonic lookup table, keyed lookup only"
)

allowed() {
  local file="$1"
  for entry in "${ALLOWLIST[@]}"; do
    [[ "$file" == "${entry%%:*}" ]] && return 0
  done
  return 1
}

# Report-critical crates where hash collections are banned outright:
# these produce (analyze, stats JSON) or define (core) serialized
# artifacts — including the coverage models and their one-pass
# fan-out (core/src/coverage.rs), whose byte-identity guarantee the
# sweep experiments depend on — and must stay hash-free rather than
# grow allowlist entries. crates/env feeds the env.txt/env.csv artifacts
# directly (every scenario counter it aggregates is rendered), so it is
# banned too, as is crates/recover: its campaign counters and sweep
# cells are rendered verbatim into recover.txt/recover.csv.
BANNED_DIRS=(crates/analyze/src crates/stats/src crates/core/src crates/env/src crates/recover/src)

# Report-critical *files* inside otherwise-allowlisted crates. The
# fuzzing service's scheduler, sync transport, serve endpoint, engine,
# snapshot and directed-mutation modules all feed serialized artifacts
# (`itr-fuzz-stats/v1`, `itr-fuzz-sync/v1`, `itr-fuzz-serve/v1`,
# persisted corpora, and the gap-closure counters the `gap-ab` family
# pins) whose byte-identity per seed is an acceptance bar — they must
# stay hash-free (BTreeMap keyed state only) rather than grow allowlist
# entries. The recorded golden execution and the snapshots replayed from
# it (crates/sim/src/{execution,snapshot}.rs) feed the recovery engine's
# rollbacks and the fuzzer's start states, so they are held to the same
# rule as crates/recover.
BANNED_FILES=(
  crates/sim/src/execution.rs
  crates/sim/src/snapshot.rs
  crates/fuzz/src/directed.rs
  crates/fuzz/src/engine.rs
  crates/fuzz/src/schedule.rs
  crates/fuzz/src/server.rs
  crates/fuzz/src/snapshot.rs
  crates/fuzz/src/sync.rs
)

status=0

hits=$(grep -rnE '\b(HashMap|HashSet)\b' src crates/*/src --include='*.rs' | grep -vE '^\S+:[0-9]+:\s*//' || true)

while IFS= read -r line; do
  [[ -z "$line" ]] && continue
  file="${line%%:*}"
  for dir in "${BANNED_DIRS[@]}"; do
    if [[ "$file" == "$dir"/* ]]; then
      echo "FORBIDDEN (hash-free crate): $line"
      status=1
      continue 2
    fi
  done
  for banned in "${BANNED_FILES[@]}"; do
    if [[ "$file" == "$banned" ]]; then
      echo "FORBIDDEN (hash-free file): $line"
      status=1
      continue 2
    fi
  done
  if ! allowed "$file"; then
    echo "UNLISTED: $line"
    status=1
  fi
done <<<"$hits"

if [[ "$status" -ne 0 ]]; then
  cat >&2 <<'MSG'

lint_determinism: hash-ordered collections found outside the allowlist.
Use BTreeMap/BTreeSet (or sort before rendering) in report-feeding code;
if the use is provably order-insensitive, add an allowlisted
`path:justification` entry in scripts/lint_determinism.sh.
MSG
  exit 1
fi

echo "lint_determinism: ok (allowlist: ${#ALLOWLIST[@]} entries)"
