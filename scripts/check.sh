#!/usr/bin/env bash
# Local tier-1 gate: everything CI would run, in order of increasing
# strictness. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for every gate: bench JSON, smoke fleets, stores. The
# benches write their JSON here, so a gate run never rewrites the
# committed BENCH_*.json files. On any exit, stop the daemons a failed
# smoke may have left running (each `serve` is a background job; its
# cargo/firmres-cli child dies with it), then remove the directory.
smoke_dir="$(mktemp -d)"
kill_tree() {
  local child
  for child in $(pgrep -P "$1"); do
    kill_tree "$child"
  done
  kill "$1" 2>/dev/null || true
}
cleanup() {
  for pid in $(jobs -p); do
    kill_tree "$pid"
  done
  rm -rf "$smoke_dir"
}
trap cleanup EXIT

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark build (perfbench against the current crate APIs)"
# perfbench is a separate workspace with path dependencies on crates/*:
# building it here fails the gate when a crate change breaks an API the
# benchmark calls (SliceRenderer::with_mode, TaintEngine::trace_with_stats,
# UnitClassifier::with_cache, run_message_unit, slices_for_tree, ...).
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> benchmark tests (replay == pipeline, daemon payload checks)"
# perfbench's own suite: its per-layer replay must reproduce the
# pipeline's reports and the daemon workload's payloads must match a
# local encode — a crate change that breaks either fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> analysis-cache cold/warm smoke"
cargo run --release -q -p firmres-bench --bin cache_bench "$smoke_dir/BENCH_cache.json"

echo "==> unit-parallel determinism suite (release, 1 and N threads)"
cargo test --release -q --test pipeline_units

echo "==> pipeline scaling bench"
cargo run --release -q -p firmres-bench --bin pipeline_scaling "$smoke_dir/BENCH_pipeline.json"

echo "==> cold-path optimization gate"
# Reference vs optimized cold sweep: asserts every report is
# byte-identical under the cache codec and enforces the 1.5x
# single-thread speedup floor.
cargo run --release -q -p firmres-bench --bin coldpath_bench "$smoke_dir/BENCH_coldpath.json" 1.5

echo "==> semantics batching gate"
# PR-5 per-slice classification (nested weights, full softmax, per-image
# memo) vs the batched stack over a trained model and a 222-device
# corpus: asserts label identity across all configurations and enforces
# the 1.5x full-stack speedup floor.
cargo run --release -q -p firmres-bench --bin semantics_bench "$smoke_dir/BENCH_semantics.json" 1.5

echo "==> incremental re-analysis gate"
# Cold vs 1%-mutated re-analysis through the unit-granular store:
# asserts every result is byte-identical to the plain pipeline and
# enforces a 2x speedup floor (the corpus measures ~3.5-4x; a broken
# splice path measures ~1x — see the bench's module docs for what
# bounds the ratio on synthetic images).
cargo run --release -q -p firmres-bench --bin incremental_bench "$smoke_dir/BENCH_incremental.json" 2

echo "==> cache smoke against a parallel-produced entry"
cli() { cargo run --release -q -p firmres-suite --bin firmres-cli -- "$@"; }
cli gen 14 "$smoke_dir/dev14.fwi" > /dev/null
# Cold pass populates the store from a unit-parallel run; the warm pass
# must serve it to a sequential run with an identical report body.
cli analyze "$smoke_dir/dev14.fwi" --cache "$smoke_dir/cache" --jobs 8 > "$smoke_dir/cold.txt"
grep -q 'miss — entry stored' "$smoke_dir/cold.txt"
# The cold run must show the semantics stage going through the batched
# classification layer (counted by the corpus driver, never in the
# report body below the summary line).
grep -q 'batch-classified' "$smoke_dir/cold.txt"
cli analyze "$smoke_dir/dev14.fwi" --cache "$smoke_dir/cache" > "$smoke_dir/warm.txt"
grep -q 'hit — pipeline skipped' "$smoke_dir/warm.txt"
cmp <(tail -n +2 "$smoke_dir/cold.txt") <(tail -n +2 "$smoke_dir/warm.txt")
cli cache-stats "$smoke_dir/cache" | grep -q '1 entry'

echo "==> service smoke (serve → submit → byte-compare → drain)"
# A local analyze is the ground truth the daemon must reproduce exactly.
cli analyze "$smoke_dir/dev14.fwi" > "$smoke_dir/local.txt"
cli serve 127.0.0.1:0 --cache "$smoke_dir/serve-cache" \
    --port-file "$smoke_dir/port" > "$smoke_dir/serve.txt" &
serve_pid=$!
for _ in $(seq 1 200); do
  [ -s "$smoke_dir/port" ] && break
  sleep 0.1
done
addr="$(cat "$smoke_dir/port")"
# The served report must be byte-identical to the local run.
cli submit "$addr" "$smoke_dir/dev14.fwi" > "$smoke_dir/served.txt"
cmp "$smoke_dir/local.txt" "$smoke_dir/served.txt"
# A hash resubmit answers from the daemon's cache without the bytes.
cli submit "$addr" "$smoke_dir/dev14.fwi" --hash --events | grep -q 'served from cache'
cli status "$addr" | grep -q 'served 2 (1 cache hit'
cli drain "$addr" | grep -q 'drained after serving 2 job(s)'
wait "$serve_pid"
grep -q 'served 2 job(s)' "$smoke_dir/serve.txt"

echo "==> incremental service smoke (update submit splices stored units)"
# Submit a firmware version, then a 1%-mutated update of it: the update
# misses the image cache but splices clean units from the previous
# version's bank, and the served report still matches a local
# from-scratch analysis byte-for-byte.
cli gen 10 "$smoke_dir/dev10-v1.fwi" > /dev/null
cli mutate "$smoke_dir/dev10-v1.fwi" "$smoke_dir/dev10-v2.fwi" 1 > /dev/null
cli serve 127.0.0.1:0 --cache "$smoke_dir/incr-cache" \
    --port-file "$smoke_dir/incr-port" > "$smoke_dir/incr-serve.txt" &
incr_pid=$!
for _ in $(seq 1 200); do
  [ -s "$smoke_dir/incr-port" ] && break
  sleep 0.1
done
iaddr="$(cat "$smoke_dir/incr-port")"
cli submit "$iaddr" "$smoke_dir/dev10-v1.fwi" > /dev/null
cli submit "$iaddr" "$smoke_dir/dev10-v2.fwi" > "$smoke_dir/incr-v2.txt"
cli status "$iaddr" | grep -Eq 'units [1-9][0-9]* spliced'
cli drain "$iaddr" > /dev/null
wait "$incr_pid"
cli analyze "$smoke_dir/dev10-v2.fwi" > "$smoke_dir/incr-local.txt"
cmp "$smoke_dir/incr-local.txt" "$smoke_dir/incr-v2.txt"
cli cache-stats "$smoke_dir/incr-cache" | grep -q 'unit artifacts'

echo "==> synthetic fleet + load smoke (synth → serve → load → saturate)"
# A small synthesized fleet must be byte-deterministic at any --jobs
# count, and a bounded load run against a live daemon must finish with
# zero wire/protocol errors while the saturation sweep engages the
# QueueFull admission path. The smoke writes its JSON to the temp dir —
# the committed BENCH_load.json is the full 1000-device run
# (`cargo run --release -p firmres-bench --bin load_bench`).
cli synth 64 "$smoke_dir/fleet-a" --seed 11 --jobs 1 > /dev/null
cli synth 64 "$smoke_dir/fleet-b" --seed 11 --jobs 8 > /dev/null
diff -r "$smoke_dir/fleet-a" "$smoke_dir/fleet-b"
cli serve 127.0.0.1:0 --cache "$smoke_dir/load-cache" \
    --port-file "$smoke_dir/load-port" > "$smoke_dir/load-serve.txt" &
load_pid=$!
for _ in $(seq 1 200); do
  [ -s "$smoke_dir/load-port" ] && break
  sleep 0.1
done
laddr="$(cat "$smoke_dir/load-port")"
cli load "$laddr" "$smoke_dir/fleet-a" --mix bytes --connections 4 \
    > "$smoke_dir/load-cold.txt"
grep -q 'errors 0 wire, 0 protocol' "$smoke_dir/load-cold.txt"
cli load "$laddr" "$smoke_dir/fleet-a" --requests 128 --rate 200 \
    > "$smoke_dir/load-warm.txt"
grep -q 'completed 128 (128 from cache)' "$smoke_dir/load-warm.txt"
grep -q 'latency p50' "$smoke_dir/load-warm.txt"
# Many-connection smoke: 64 concurrent sockets against the daemon's
# fixed 2-thread io pool — every request still answers from cache.
cli load "$laddr" "$smoke_dir/fleet-a" --requests 128 --connections 64 \
    > "$smoke_dir/load-many.txt"
grep -q 'completed 128 (128 from cache)' "$smoke_dir/load-many.txt"
cli drain "$laddr" > /dev/null
wait "$load_pid"
cargo run --release -q -p firmres-bench --bin load_bench -- \
    --devices 64 --rate 200 --out "$smoke_dir/BENCH_load_smoke.json"
test -s "$smoke_dir/BENCH_load_smoke.json"
grep -q '"saturation_connections"' "$smoke_dir/BENCH_load_smoke.json"

echo "==> eviction smoke (budgeted sharded serve keeps the store at budget)"
# A 64-image fleet against a 1 MiB budget overruns the store many times
# over: the collector must keep occupancy at the budget, surface its
# counters through cache-stats, and an evicted image resubmitted later
# must re-derive byte-identically to a local analyze — a miss, never an
# error.
cat > "$smoke_dir/evict.conf" <<'EOF'
[service]
workers = 2

[store]
shards = 4
byte_budget = 1M
EOF
cli serve 127.0.0.1:0 --config "$smoke_dir/evict.conf" \
    --cache "$smoke_dir/evict-cache" \
    --port-file "$smoke_dir/evict-port" > "$smoke_dir/evict-serve.txt" &
evict_pid=$!
for _ in $(seq 1 200); do
  [ -s "$smoke_dir/evict-port" ] && break
  sleep 0.1
done
eaddr="$(cat "$smoke_dir/evict-port")"
cli load "$eaddr" "$smoke_dir/fleet-a" --mix bytes --connections 4 > /dev/null
# The fleet's first image was evicted long ago; resubmitting it is a
# clean miss whose served report matches a from-scratch local run.
cli analyze "$smoke_dir/fleet-a/synth-00000.fwi" > "$smoke_dir/evict-local.txt"
cli submit "$eaddr" "$smoke_dir/fleet-a/synth-00000.fwi" > "$smoke_dir/evict-served.txt"
cmp "$smoke_dir/evict-local.txt" "$smoke_dir/evict-served.txt"
cli drain "$eaddr" > /dev/null
wait "$evict_pid"
cli cache-stats "$smoke_dir/evict-cache" > "$smoke_dir/evict-stats.txt"
grep -q 'evictions:' "$smoke_dir/evict-stats.txt"
grep -q 'per-shard occupancy:' "$smoke_dir/evict-stats.txt"
# Tracked artifacts (.frac/.fru/.frv) ended at or under the 1 MiB budget.
find "$smoke_dir/evict-cache" -type f \
    \( -name '*.frac' -o -name '*.fru' -o -name '*.frv' \) -printf '%s\n' \
  | awk '{ s += $1 } END { exit !(s <= 1048576) }'

echo "==> known-library identification smoke (libid build → analyze → cmp)"
# Index the roster fixture libraries, then analyze a linked device with
# and without the index: the reports must be byte-identical while the
# indexed run actually skips library traversals (counter must be
# nonzero in the cache-stats survey — a zero is a silent regression of
# the whole replay path and fails the gate).
cli libid fixtures "$smoke_dir/libsrc" > /dev/null
cli libid build "$smoke_dir/libsrc" "$smoke_dir/known.flix" > "$smoke_dir/libid-build.txt"
grep -q 'indexed 6 function(s)' "$smoke_dir/libid-build.txt"
cli libid inspect "$smoke_dir/known.flix" | grep -q 'zb_pack'
cli synth 8 "$smoke_dir/libfleet" --seed 11 --libraries > /dev/null
# Device 2 of seed 11 links roster libraries (pinned by the synth
# dimension's determinism; the counter grep below re-verifies it).
libdev="$smoke_dir/libfleet/synth-00002.fwi"
cli analyze "$libdev" > "$smoke_dir/lib-off.txt"
cli analyze "$libdev" --libid "$smoke_dir/known.flix" > "$smoke_dir/lib-on.txt"
cmp "$smoke_dir/lib-off.txt" "$smoke_dir/lib-on.txt"
cli analyze "$libdev" --libid "$smoke_dir/known.flix" --cache "$smoke_dir/lib-cache" > /dev/null
cli cache-stats "$smoke_dir/lib-cache" > "$smoke_dir/lib-stats.txt"
grep -E 'library summaries: [1-9][0-9]* function\(s\) matched, [1-9][0-9]* traversal\(s\) skipped' \
    "$smoke_dir/lib-stats.txt"

echo "==> library summary-replay gate"
# Off vs On cold sweep over the library-heavy 200-device fleet: asserts
# byte-identical reports under the cache codec and enforces the 1.3x
# taint-stage speedup floor.
cargo run --release -q -p firmres-bench --bin libid_bench "$smoke_dir/BENCH_libid.json" 1.3

echo "==> service wire + end-to-end suites (release)"
cargo test --release -q -p firmres-service
cargo test --release -q --test service_end_to_end

echo "==> service cold/warm bench"
cargo run --release -q -p firmres-bench --bin service_bench "$smoke_dir/BENCH_service.json"

echo "==> all checks passed"
