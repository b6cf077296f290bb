#!/usr/bin/env bash
# Tier-1 verification plus the cheap robustness regression gates.
#
# Everything here runs offline: no network, no external crates. The
# `--smoke` report paths use tiny geometries and trial counts so a full
# run stays in CI budget while still exercising the fault-injection and
# margin layers end to end (their shape assertions run inside the report
# builders, so a regression panics the binary).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --workspace

echo "== clippy (deny warnings, all targets incl. benches) =="
cargo clippy --workspace --all-targets --features bench -- -D warnings

echo "== tests (default scheduler: calendar queue) =="
cargo test -q --workspace

echo "== differential + invariance suites (default scheduler: reference heap) =="
# The `reference-queue` / `reference-engine` / `lane-scheduler` features
# only flip which scheduler / execution engine plain constructors pick —
# every implementation is always compiled — so the differential suites
# prove byte-identical behaviour from any default.
cargo test -q --workspace --features reference-queue \
    --test sim_equivalence --test engine_equivalence \
    --test thread_invariance --test rf_conformance

echo "== engine differential suite (default engine: dyn interpreter) =="
cargo test -q --workspace --features reference-engine \
    --test engine_equivalence --test sim_equivalence --test rf_conformance

echo "== scheduler torture + three-way differential (default scheduler: lane-batched) =="
# The torture suite replays seeded raw push/pop scripts (behind-cursor
# storms, wheel wrap-around, overflow migration, lane-capacity seq ties)
# against the heap oracle, then drives scheduler-hostile circuits across
# every scheduler x engine pairing; the perf smoke re-checks the
# three-scheduler agreement without enforcing throughput floors (smoke
# soaks are scheduling noise — floors are full-run only).
cargo test -q --workspace --features lane-scheduler \
    --test scheduler_torture --test sim_equivalence --test rf_conformance
cargo test -q --workspace --test scheduler_torture

echo "== permutation differential (default placement: identity, no prefetch) =="
# `reference-layout` pins the identity cell placement (the pre-layout
# delivery path) as the default; the equivalence suite then drives the
# BFS affinity layout and seeded arbitrary permutations against it and
# requires byte-identical traces, violations, stats, and work counters.
cargo test -q --workspace --features reference-layout \
    --test engine_equivalence --test sim_equivalence --test rf_conformance

echo "== typed-vs-raw differential (digest + observable equality, every design) =="
# The registry designs elaborate through the typed `sfq_cells::typed` API
# by default; the `new_raw` constructors keep the original CircuitBuilder
# wiring as an oracle. These suites require the two paths to agree on the
# netlist digest and on every simulation observable, and that random typed
# programs are lint-clean by construction.
cargo test -q --workspace --test typed_differential --test typed_properties

echo "== no new raw connect call sites in crates/core =="
# New wiring in hiperrf must go through the typed elaboration layer; raw
# `.connect(` / `.connect_delayed(` is reserved for the frozen `new_raw`
# differential oracles and intentional lint/digest fixtures. The per-file
# budgets below pin those; any count above budget means raw wiring crept
# into new code — port it to the typed API instead of raising the budget.
RAW_CONNECT_BUDGET="
banked.rs=6
demux.rs=4
fabric.rs=1
hashing.rs=1
hc_rf.rs=11
lint.rs=1
ndro_rf.rs=4
shift_rf.rs=8
"
RAW_CONNECT_FAIL=0
for f in crates/core/src/*.rs; do
    n=$(grep -cE '\.connect(_delayed)?\(' "$f" || true)
    base=$(basename "$f")
    allowed=$(printf '%s\n' "$RAW_CONNECT_BUDGET" | awk -F= -v f="$base" '$1==f{print $2}')
    allowed=${allowed:-0}
    if [ "$n" -gt "$allowed" ]; then
        echo "error: $f has $n raw connect call sites (budget: $allowed)" >&2
        RAW_CONNECT_FAIL=1
    fi
done
if [ "$RAW_CONNECT_FAIL" -ne 0 ]; then
    echo "error: new raw connect call sites in crates/core/src — use the typed API" >&2
    exit 1
fi
echo "raw connect call sites within budget"

echo "== robustness smoke reports =="
cargo run -q --release -p hiperrf-bench --bin repro -- margins --smoke
cargo run -q --release -p hiperrf-bench --bin repro -- faults --smoke

echo "== design-registry smoke matrix =="
cargo run -q --release -p hiperrf-bench --bin repro -- designs --smoke

echo "== static lint matrix (netlist DRC + min/max-path timing) =="
# lint_matrix asserts every registered design is error-free, so this run
# doubles as the gate keeping shipped netlists DRC- and timing-clean.
cargo run -q --release -p hiperrf-bench --bin repro -- lint --smoke

echo "== no new lint suppressions =="
# The crates carry zero `#[allow(dead_code)]` / `#[allow(unused...)]`
# attributes; keep it that way rather than silencing what sfq-lint or
# clippy find.
if grep -rn --include='*.rs' -E '#\[allow\((dead_code|unused)' crates tests; then
    echo "error: new #[allow(dead_code/unused...)] suppression found" >&2
    exit 1
fi

echo "== simulator-core perf smoke (engines + schedulers + parallel MC) =="
cargo run -q --release -p hiperrf-bench --bin repro -- perf --smoke --threads 2

echo "== co-simulation smoke (CPU on pulse-level netlists) =="
cargo run -q --release -p hiperrf-bench --bin repro -- cosim --smoke

echo "== sim-as-a-service smoke (submit, cache hit, drain) =="
cargo run -q --release -p hiperrf-bench --bin repro -- serve --smoke --json

echo "== crash recovery (SIGKILL mid-batch, WAL replay, digest equality) =="
SERVE_BIN=target/release/sfq-serve
SERVE_TMP=$(mktemp -d)
SERVE_SPEC='{"kind":"margins","design":"hiperrf","trials":6,"shard_len":1,"seed":"424242"}'

serve_wait_addr() { # addr-file -> prints address once published
    for _ in $(seq 200); do
        [ -s "$1" ] && { cat "$1"; return 0; }
        sleep 0.05
    done
    echo "error: sfq-serve never published its address" >&2
    return 1
}

# Uninterrupted baseline digest.
"$SERVE_BIN" run --wal "$SERVE_TMP/base.wal" --addr 127.0.0.1:0 \
    --addr-file "$SERVE_TMP/base.addr" 2>/dev/null &
BASE_PID=$!
BASE_ADDR=$(serve_wait_addr "$SERVE_TMP/base.addr")
"$SERVE_BIN" submit --addr "$BASE_ADDR" --spec "$SERVE_SPEC" > /dev/null
BASE_DIGEST=$("$SERVE_BIN" wait --addr "$BASE_ADDR" --id 1 \
    | grep -o '"digest":"[0-9a-f]*"' | head -1)
"$SERVE_BIN" drain --addr "$BASE_ADDR" > /dev/null
wait "$BASE_PID"

# Crash run: slowed shards so SIGKILL lands mid-batch, then resume on the
# same journal and require the byte-identical digest.
"$SERVE_BIN" run --wal "$SERVE_TMP/crash.wal" --addr 127.0.0.1:0 \
    --addr-file "$SERVE_TMP/crash.addr" --shard-delay-ms 150 2>/dev/null &
CRASH_PID=$!
CRASH_ADDR=$(serve_wait_addr "$SERVE_TMP/crash.addr")
"$SERVE_BIN" submit --addr "$CRASH_ADDR" --spec "$SERVE_SPEC" > /dev/null
for _ in $(seq 200); do
    DONE=$("$SERVE_BIN" health --addr "$CRASH_ADDR" 2>/dev/null \
        | grep -o '"shards_executed":[0-9]*' | grep -o '[0-9]*$' || true)
    [ "${DONE:-0}" -ge 2 ] && break
    sleep 0.05
done
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
rm -f "$SERVE_TMP/crash.addr"
"$SERVE_BIN" run --wal "$SERVE_TMP/crash.wal" --addr 127.0.0.1:0 \
    --addr-file "$SERVE_TMP/crash.addr" 2>/dev/null &
RESUME_PID=$!
RESUME_ADDR=$(serve_wait_addr "$SERVE_TMP/crash.addr")
RESUME_DIGEST=$("$SERVE_BIN" wait --addr "$RESUME_ADDR" --id 1 \
    | grep -o '"digest":"[0-9a-f]*"' | head -1)
"$SERVE_BIN" drain --addr "$RESUME_ADDR" > /dev/null
wait "$RESUME_PID"
rm -rf "$SERVE_TMP"
if [ -z "$BASE_DIGEST" ] || [ "$BASE_DIGEST" != "$RESUME_DIGEST" ]; then
    echo "error: resumed digest (${RESUME_DIGEST:-none}) != uninterrupted digest (${BASE_DIGEST:-none})" >&2
    exit 1
fi
echo "crash recovery: resumed digest matches uninterrupted run ($BASE_DIGEST)"

echo "== repo benchmark (build, unit tests, yield/soak/serve correctness gates) =="
# The benchmark is its own cargo package that drives the crates through
# their public API only. Each short run exits nonzero when any of its
# correctness gates fails, so a public-API break or a change in results or
# simulated work fails here instead of in the next benchmark run:
# - yield-16x16: well-formed curves, shard reassembly, the seed-1
#   criticals golden;
# - soak-256x64: the seed-1 work goldens (events, slot bytes, fan-out
#   rows, peak queue depth) of every design, so a scheduler change that
#   alters the simulated work fails;
# - serve-mixed: every served result digest equals a direct
#   `job::run_shard` computation of the same job.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml
for workload in yield-16x16 soak-256x64 serve-mixed; do
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 5 --trace 0 > /dev/null
done

echo "== docs (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "verify: OK"
