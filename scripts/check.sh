#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green. The workspace builds
# fully offline (external dev-deps are vendored shims — see vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
# Durability and hostile-input suites, named explicitly so a filtered
# `cargo test` run elsewhere can't silently skip them.
cargo test -q -p xsdb --test crash_matrix
cargo test -q -p xsdb --test wal_matrix
cargo test -q -p xsdb --test page_matrix
# Block-granular copy-on-write: a mutated clone copies a constant number
# of blocks and location segments, the original is untouched, and freed
# descriptor ids recycle only in later versions.
cargo test -q -p xs-storage --lib copy_on_write
cargo test -q -p xsdb --test manifest_abuse
cargo test -q -p xmlparse --test byte_soup
# Observability + generative suites (same rationale).
cargo test -q -p xsdb --test cli_stats
cargo test -q -p xsdb --test cli_update_lint
cargo test -q -p xsdb --test cli_explain
cargo test -q -p xsdb-integration --test metrics_invariants
cargo test -q -p xsdb-integration --test obs_export
cargo test -q -p xsdb-integration --test generative_roundtrip
cargo test -q -p xsdb-integration --test update_soundness
# Query-planner suites: differential plan equivalence (every physical
# strategy returns the naive evaluator's node-set) and catalog-stats
# invariants (incremental maintenance == from-scratch rebuild).
cargo test -q -p xsdb-integration --test plan_equivalence
cargo test -q -p xsdb-integration --test stats_invariants
# Server, concurrency, and CLI-robustness suites (same rationale).
cargo test -q -p xsserver --test server_integration
cargo test -q -p xsserver --test server_reactor   # hostile-client torture + SIGTERM path
cargo test -q -p xsserver --lib   # protocol + reactor + retry-policy regression tests
cargo test -q -p xsdb-integration --test shared_stress
cargo test -q -p xsdb --test broken_pipe
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check

# xsd-lint golden corpus: the diagnostic codes for each fixture are
# pinned — a pass that starts (or stops) firing is a visible diff here.
for xsd in fixtures/lint/*.xsd; do
  want="${xsd%.xsd}.codes"
  got="$(target/release/xsd-lint --codes "$xsd")" || true
  if ! diff -u "$want" <(printf '%s' "${got:+$got
}") >/dev/null; then
    echo "lint gate: codes drifted for $xsd" >&2
    diff -u "$want" <(printf '%s' "${got:+$got
}") >&2 || true
    exit 1
  fi
done

# Same idea for statically checked updates: each *.upd fixture is one
# XQuery-Update-lite expression checked against the clean library
# schema, with its XSA5xx codes pinned next to it.
for upd in fixtures/lint/*.upd; do
  want="${upd%.upd}.codes"
  got="$(target/release/xsd-lint --codes --update "$(cat "$upd")" fixtures/lint/clean.xsd)" || true
  if ! diff -u "$want" <(printf '%s' "${got:+$got
}") >/dev/null; then
    echo "lint gate: update codes drifted for $upd" >&2
    diff -u "$want" <(printf '%s' "${got:+$got
}") >&2 || true
    exit 1
  fi
done

# EXPLAIN golden corpus: each plan_*.xpath runs against the pinned
# plan document and must print exactly the pinned physical plan —
# strategies, estimates, actuals, and the statistics generation.
for xp in fixtures/lint/plan_*.xpath; do
  want="${xp%.xpath}.plan"
  got="$(target/release/xsd-lint --doc fixtures/lint/plan_doc.xml \
    --explain "$(cat "$xp")" fixtures/lint/clean.xsd)" || true
  if ! diff -u "$want" <(printf '%s\n' "$got") >/dev/null; then
    echo "lint gate: EXPLAIN output drifted for $xp" >&2
    diff -u "$want" <(printf '%s\n' "$got") >&2 || true
    exit 1
  fi
done

# No new unwrap()/expect() in non-test library code (bins, benches,
# tests, doc comments, and vendor shims excluded). Lower the baseline
# when you remove some; never raise it.
UNWRAP_BASELINE=37
unwraps=$(find crates -path '*/src/*' -name '*.rs' ! -path '*/src/bin/*' | sort | xargs awk '
  FNR == 1 { intest = 0 }
  /#\[cfg\(test\)\]/ { intest = 1 }
  !intest && $0 !~ /^[[:space:]]*\/\// { n += gsub(/\.unwrap\(\)|\.expect\(/, "&") }
  END { print n }')
if [ "$unwraps" -gt "$UNWRAP_BASELINE" ]; then
  echo "unwrap gate: $unwraps unwrap()/expect() in non-test library code (baseline $UNWRAP_BASELINE)" >&2
  exit 1
fi

# One stored form per document: outside their tests, the database,
# persistence, shared and mutation layers never name the XDM tree or a
# second materialization — `storage_to_tree`/`XdmTree` are the test
# oracle only.
if ! awk '
  FNR == 1 { intest = 0 }
  /#\[cfg\(test\)\]/ { intest = 1 }
  !intest && /storage_to_tree|XdmTree|materialize/ { print FILENAME ":" FNR ": " $0; bad = 1 }
  END { exit bad }' crates/core/src/{database,persist,shared,mutation}.rs >&2; then
  echo "stored-form gate: non-test code in crates/core names a second document form" >&2
  exit 1
fi

# Metrics-export schema golden: the JSON field layout is semver-stable.
# Regenerate with `cargo run -p xsobs --bin xsobs-schema` when changing
# it deliberately.
if ! diff -u fixtures/obs/schema.json <(target/release/xsobs-schema); then
  echo "obs gate: metrics JSON schema drifted from fixtures/obs/schema.json" >&2
  exit 1
fi

# E11 overhead guard: enabled metrics must stay within 3% of disabled
# on the bulk-validation workload (retries internally to shed noise).
cargo run --release -q -p bench --bin experiments -- e11 --guard

# E13 paged-update guard: a single-node update must write a constant
# number of pages regardless of document size (the O(1) claim).
cargo run --release -q -p bench --bin experiments -- e13 --guard

# E14 snapshot-read guard: reader median latency under a churning
# durable writer stays within 2x idle (or under 1 ms), and a WAL
# commit is cheaper than a mutate + full checkpoint.
cargo run --release -q -p bench --bin experiments -- e14 --guard

# E15 static-update guard: an Accept verdict applies with zero
# revalidation, a Recheck verdict revalidates only the touched nodes
# (host model + new leaf), and a Reject leaves the document untouched.
cargo run --release -q -p bench --bin experiments -- e15 --guard

# E16 query-planner guard: the cost-based choice spends at most 1.1x
# the work of the best forced strategy, all strategies agree on every
# node-set, and statically-empty paths execute zero operators.
cargo run --release -q -p bench --bin experiments -- e16 --guard

# E17 event-loop guard: 2000 parked idle connections burn no
# measurable CPU, p99 stays bounded at the mid offered rate, the
# parser observes pipelining depth > 1, and >=1000 active connections
# complete with zero errors. Needs headroom for 2000+ sockets.
ulimit -n 20000 2>/dev/null || true
cargo run --release -q -p bench --bin experiments -- e17 --guard

# Server smoke: boot xsd-serve on an ephemeral port with a persistence
# directory, fire a 32-connection *pipelined* bench burst through the
# event loop (zero errors required — the client exits non-zero
# otherwise), shut down with SIGTERM via the reactor wakeup fd, and
# verify the final save committed.
SMOKE_DIR=$(mktemp -d)
target/release/xsd-serve --addr 127.0.0.1:0 --dir "$SMOKE_DIR/db" \
  --durability group \
  >"$SMOKE_DIR/serve.out" 2>"$SMOKE_DIR/serve.err" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^xsd-serve listening on //p' "$SMOKE_DIR/serve.out")
  [ -n "$ADDR" ] && break
  sleep 0.05
done
if [ -z "$ADDR" ]; then
  echo "server smoke: xsd-serve never reported its address" >&2
  cat "$SMOKE_DIR/serve.err" >&2 || true
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
target/release/xsd-bench-client --addr "$ADDR" --connections 32 --requests 24 \
  --write-percent 10 --pipeline 4 --retries 3 --backoff-ms 20
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
if [ ! -f "$SMOKE_DIR/db/CURRENT" ]; then
  echo "server smoke: shutdown save did not commit ($SMOKE_DIR/db/CURRENT missing)" >&2
  exit 1
fi
rm -rf "$SMOKE_DIR"

echo "tier-1 gate: OK"
