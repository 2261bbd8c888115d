#!/usr/bin/env bash
# Per-PR gate. Everything runs offline — the workspace has no
# third-party dependencies, so `--offline` must always succeed.
#
#   1. tier-1: release build + full test suite
#   2. lint: clippy, warnings are errors; then rustfmt on the root
#      package (long-lived-renaming: src/lib.rs, tests/ and examples/)
#      and on llr-mc, llr-core, llr-mem, llr-gf and llr-bench (`cargo fmt
#      -p <package> --check` for each), the six packages kept formatted
#      throughout, so an unformatted line there fails the gate.
#   3. docs: `cargo doc` with warnings denied (llr-mc carries
#      `#![warn(missing_docs)]`, so every public item must stay
#      documented) plus the doctests, so the documented examples keep
#      compiling and passing.
#   4. fast E2 subset: the engine-equivalence tests re-check the
#      mid-size rows of results/e2_modelcheck.csv under the sequential
#      DFS (exact keys) and the one breadth-first loop (hashed keys) on
#      each of its stores — in RAM at 1/2/4 workers, and on disk at
#      generous and zero budgets — pinning the counts byte-for-byte, one
#      family per protocol, including the rival cores (LevelArray, small
#      splitter networks). This is the checker hot path; run it in
#      release so it stays fast.
#      Steps 4–7 run with TMPDIR set to a fresh directory, and fail if a
#      spill run left an `llr-mc-spill-*` scratch directory in it.
#      Step 4 also runs the member crates' own tests (`--workspace
#      --exclude long-lived-renaming`: llr-mc, llr-core, llr-gf, llr-mem,
#      llr-bench), which a root-level `cargo test` does not build —
#      among them llr-mc's accounting pins and its spill-cleanup and
#      replay tests, whose spill runs fall under the same leak check.
#   5. frontier-spill gate: the on-disk frontier's file-format property
#      suite (round-trips, loud failure on truncated/torn layer files)
#      and the disk-CSR liveness differential (every E2 family spill vs
#      in-RAM, trap reports, and the under-budget regression whose edge
#      list alone exceeds the byte budget). Small configs under tight
#      tmpdir budgets, including the zero-budget floor — fast in
#      release, but exactly the code that guards the multi-million-state
#      E2 rows.
#   6. POR soundness subset: the partial-order-reduction differential
#      suite (reduced vs full verdicts/terminals on every family, all
#      backends) and the footprint audit (declared footprints must
#      cover recorded accesses), also in release.
#   7. multi-million-state equivalence rows: the `--ignored` rows of the
#      engine-equivalence and POR suites (`full_seed_table_engines_agree`
#      and both `ma_faults_*` rows), in release, about 90 s. They are the
#      strongest differential check of the 128-bit state hash every
#      breadth-first store dedups by.
#   8. real-atomics arena gate: the SimMemory-vs-AtomicMemory
#      differential suite plus the multi-threaded stress tests in
#      release — including `arena_smoke`, a few thousand
#      uniqueness-checked acquire/release ops at 4 threads through the
#      full NameArena stack (gate → session reuse → padded atomics →
#      release-ordered stores). Release mode matters here: optimized
#      code paths plus real thread timing is where a wrong memory
#      ordering would actually surface. It also runs the session layer
#      (the handle's `Counting<AtomicMemory>` copy of every served
#      machine pinned cycle by cycle to the checker's `&dyn Memory`
#      copy) and the zero-allocation steady state, in the optimized
#      build the benchmark measures.
#   9. examples: all five `examples/` programs (quickstart, worker_slots,
#      model_check, tournament_lock, resilient_object) run in release,
#      about 25 s on a 2-core host; each asserts its own outcome, so a
#      library change that breaks one fails here.
#  10. crash/churn gate: the fault-injection sweeps (freeze and
#      crash–restart at every stall point, all nine protocol cores,
#      the one-shot core on both of its shapes)
#      and the arena churn battery (armed clients panicking mid-acquire
#      under a 4-permit gate, 100 seeded rounds, zero leaked permits).
#      Also release: the churn rounds are real oversubscribed threads,
#      and the RAII permit-return path only earns trust under optimized
#      unwinding.
#  11. benchmark self-test: clippy with warnings denied on the benchmark
#      crate (perfbench/, a workspace of its own, so `--manifest-path`),
#      so an llr-mc or llr-core API change that leaves the benchmark with
#      a warning fails here; then its own tests. They smoke-run all
#      four workloads traced and untraced and assert the checker
#      workloads' pinned counts — 1 255 072 / 3 407 847 for check-bfs
#      and 605 380 / 787 365 (states / transitions) under POR + spill for
#      check-por-spill — plus the histogram, name grammar and
#      BENCHMARK.json round trip. About 30–40 s in release once built.
#      The smoke runs keep their scratch in
#      perfbench/target/tmp/smoke-*: the step clears those directories
#      first and fails if a spill run (check-por-spill's) left an
#      `llr-mc-spill-*` directory in one of them.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: build (release, offline) =="
cargo build --release --offline

echo "== tier-1: tests =="
cargo test -q --offline

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustfmt (root package, llr-mc, llr-core, llr-mem, llr-gf, llr-bench) =="
cargo fmt -p long-lived-renaming --check
cargo fmt -p llr-mc --check
cargo fmt -p llr-core --check
cargo fmt -p llr-mem --check
cargo fmt -p llr-gf --check
cargo fmt -p llr-bench --check

echo "== docs (-D warnings) + doctests =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo test -q --offline --doc --workspace

spill_tmp=$(mktemp -d)
trap 'rm -rf "$spill_tmp"' EXIT

echo "== member crates' own tests (unit, property and doc tests) =="
TMPDIR="$spill_tmp" cargo test -q --offline --workspace --exclude long-lived-renaming

echo "== fast E2 subset (engine equivalence, release) =="
TMPDIR="$spill_tmp" cargo test -q --offline --release --test engine_equivalence

echo "== frontier-spill gate (layer format + disk-CSR liveness, release) =="
TMPDIR="$spill_tmp" cargo test -q --offline --release --test frontier_format --test liveness_spill

echo "== POR soundness subset (differential + footprint audit, release) =="
TMPDIR="$spill_tmp" cargo test -q --offline --release --test por_equivalence --test footprint_audit

echo "== multi-million-state equivalence rows (--ignored, release) =="
TMPDIR="$spill_tmp" cargo test -q --offline --release --test engine_equivalence --test por_equivalence -- --ignored

echo "== spill scratch cleanup (no llr-mc-spill-* left by steps 4-7) =="
leaked=$(find "$spill_tmp" -maxdepth 1 -name 'llr-mc-spill-*')
if [ -n "$leaked" ]; then
    echo "spill runs left scratch directories behind:"
    echo "$leaked"
    exit 1
fi
rm -rf "$spill_tmp"

echo "== real-atomics arena gate (differential + stress + smoke + handle copy + zero-alloc, release) =="
cargo test -q --offline --release --test atomic_backend --test session_layer --test arena_alloc

echo "== examples (release) =="
for example in quickstart worker_slots model_check tournament_lock resilient_object; do
    cargo run -q --offline --release --example "$example" > /dev/null
done

echo "== crash/churn gate (fault injection + arena churn, release) =="
cargo test -q --offline --release --test crash_tolerance --test arena_churn

echo "== benchmark self-test (perfbench clippy -D warnings + its own tests, release) =="
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets --offline -- -D warnings
smoke_tmp=perfbench/target/tmp
rm -rf "$smoke_tmp"/smoke-*
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark spill scratch cleanup (no llr-mc-spill-* left by the smoke runs) =="
leaked=$(find "$smoke_tmp" -mindepth 2 -maxdepth 2 -path "$smoke_tmp/smoke-*/llr-mc-spill-*")
if [ -n "$leaked" ]; then
    echo "benchmark spill runs left scratch directories behind:"
    echo "$leaked"
    exit 1
fi

echo "ci.sh: all green"
