#!/usr/bin/env bash
# Pre-merge gate (see ROADMAP.md): formatting, lints, and the test
# suite. Everything must pass before a PR merges.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> placeholder-URL guard"
# The real repository URL lives in Cargo.toml; the placeholder domain
# must never come back (this file is the only permitted mention).
if git grep -n "example\.invalid" -- ':!scripts/check.sh' ':!ISSUE.md' ':!CHANGES.md' ; then
  echo "error: placeholder domain 'example.invalid' reintroduced" >&2
  exit 1
fi

echo "==> mutants apply (every seeded bug still finds the code it guards)"
scripts/mutants.sh --check

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> shard determinism (sweep bytes identical at 1 vs 8 shards)"
cargo test -q --test shard_determinism

echo "==> server integration tests (submit/poll/fetch, cache, coalescing)"
cargo test -q -p turnroute-serve --test server_integration

echo "==> cargo bench --no-run (bench targets must compile)"
cargo bench --workspace --no-run --quiet

echo "==> perfbench tests (the benchmark package must still build against and agree with the product)"
# perfbench/ is its own workspace, so `cargo test --workspace` above
# never compiles it: a product API change could break the suite a PR is
# judged by. Its --quick smokes run the table on/off, serial/sharded
# and traced/untraced digest gates on every workload.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> traffic smoke (MMPP + trace pattern, bytes identical at 1 vs 8 threads)"
# Bursty arrivals and trace-driven destinations draw all injection
# randomness from per-node nested streams, so the sweep report must be
# byte-identical no matter how the executor schedules the cells.
cargo run --release -q -- sweep --topology mesh:4x4 --algorithms xy,west-first \
  --pattern trace:tests/fixtures/hotpairs.trace --loads 0.05,0.1 \
  --traffic mmpp:64,192 --cycles 800 --warmup 100 --seed 5 \
  --format json --threads 1 > target/traffic-a.json
cargo run --release -q -- sweep --topology mesh:4x4 --algorithms xy,west-first \
  --pattern trace:tests/fixtures/hotpairs.trace --loads 0.05,0.1 \
  --traffic mmpp:64,192 --cycles 800 --warmup 100 --seed 5 \
  --format json --threads 8 > target/traffic-b.json
cmp target/traffic-a.json target/traffic-b.json

echo "==> VC golden reports (mad-y, dateline: bytes identical to the recorded engine)"
# The lane-aware engine has no oracle; the multi-lane algorithms are
# pinned by reports recorded before its hot path was rewritten. Each
# NAME.args is the command line that produced NAME.json.
for args in tests/fixtures/vc_golden/*.args; do
  # shellcheck disable=SC2046
  cargo run --release -q -- $(cat "$args") | cmp - "${args%.args}.json"
done

echo "==> plain golden outputs (stdout and Chrome trace: bytes identical to the recorded engine)"
# The oracle compares reports; these pin what it cannot see — CLI
# rendering, fault-plan replay, the sweep's skip rule and, through the
# trace file, that packet ids are creation order rather than storage
# slots. Recorded before the arena was recycled; NAME.args is the
# command line, NAME.out its stdout, NAME.trace.json its --trace file.
mkdir -p target
for args in tests/fixtures/plain_golden/*.args; do
  # shellcheck disable=SC2046
  cargo run --release -q -- $(cat "$args") 2>/dev/null | cmp - "${args%.args}.out"
  if [[ -e "${args%.args}.trace.json" ]]; then
    cmp target/plain_golden.trace.json "${args%.args}.trace.json"
  fi
done

echo "==> conformance soak (256 cases, fixed seed)"
cargo run --release -q -p turnroute-check --bin conformance -- \
  --cases 256 --seed 3405705229 --json target/conformance.json

echo "==> synthesis smoke (same seed => byte-identical, verified relation)"
# Bounded: 8 candidates on a 16-node dragonfly. The two runs differ in
# thread count, so identical bytes exercise the thread-invariant winner
# order; the verified line asserts acyclicity + all-pairs reachability.
cargo run --release -q -- synth --topology dragonfly:4,4 --seed 3 \
  --candidates 8 --threads 1 --out target/synth-a.turns
cargo run --release -q -- synth --topology dragonfly:4,4 --seed 3 \
  --candidates 8 --threads 8 --out target/synth-b.turns
cmp target/synth-a.turns target/synth-b.turns
grep -q "^verified: channel dependency graph acyclic" target/synth-a.turns
grep -q "^fingerprint: " target/synth-a.turns

echo "All checks passed."
