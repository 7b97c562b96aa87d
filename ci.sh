#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, and the thread-count
# determinism suite (run both single-threaded and with the default
# test-runner parallelism, since the optimizer spawns its own workers
# either way).
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo build --workspace --release
run cargo test --workspace -q
run cargo clippy --workspace --all-targets -- -D warnings

# Documentation gate: rustdoc must build clean (missing_docs is warn
# in sched/sim/core/obs, promoted to an error here) and every doc
# example must run.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
run cargo test --workspace --doc -q

# The determinism harness must hold regardless of how the test runner
# itself schedules tests.
run env RUST_TEST_THREADS=1 cargo test -q --test parallel_search
run cargo test -q --test parallel_search

# The fault-injection suite likewise: injected-fault trajectories are
# part of the determinism contract (fault keys derive from expansion
# number + candidate index, never thread identity).
run env RUST_TEST_THREADS=1 cargo test -q --test fault_injection
run env RUST_TEST_THREADS=4 cargo test -q --test fault_injection
run cargo test -q --test checkpoint_resume
run cargo test -q --test robustness_properties

# Search drivers: the greedy refactor must stay bit-identical to the
# pre-SearchDriver incumbents, and MCTS must hold the same
# thread-count-independence and kill/resume trajectory-exactness
# contract — under both test-runner scheduling regimes.
run env RUST_TEST_THREADS=1 cargo test -q -p magis-core --test driver_search
run cargo test -q -p magis-core --test driver_search

# Service supervision: deadlines return best-so-far, full queues shed
# load, same-job-twice bit-identity, drain journaling, and kill -9 +
# restart resuming bit-identical to an uninterrupted run.
run cargo test -q --test serve_robustness

# Observability: count metrics and the trace-event identity set must be
# bit-identical across thread counts — and, at the service level,
# across worker-pool sizes; watch streams are monotone and inert.
run cargo test -q --test observability
run cargo test -q --test serve_observability

# Copy-on-write graph representation: CoW clones must be
# observationally identical to deep copies (WL hash, canonical record,
# full evaluation, randomized rewrite lineages), snapshots must stay
# frozen while descendants mutate, and the structural clone-cost guard
# must hold — a one-node rewrite of a 1k-node graph unshares the same
# page count as on a 2k-node graph (cost tracks the delta, not the
# untouched-node count).
run env RUST_TEST_THREADS=1 cargo test -q --test cow_graph
run cargo test -q --test cow_graph

# Incremental evaluation: every delta-scheduled / delta-profiled /
# cache-served candidate must be bit-identical to a from-scratch
# re-evaluation (paranoid cross-check on the bench workloads), and the
# eval cache must not perturb the thread-count determinism contract.
run cargo test -q --test incremental_eval

# Memory planner: allocation soundness (no time×address overlap),
# planned >= liveness dominance, coalescing reuse, and delta-vs-full
# re-planning bit-identity across the bench models and a randomized
# rewrite sequence.
run cargo test -q --test memory_planner

# The delta == from-scratch differentials again in the release build the
# benchmark times, where debug assertions and overflow checks are off.
run cargo test --release -q --test memory_planner --test incremental_eval

# Planned objective at search level: paranoid cross-checks of every
# delta-planned candidate, and thread-count determinism of the planned
# peak / fragmentation ratio / accepted-candidate sequence.
run cargo test -q --test planner_search

# Backend registry: every registered device profile evaluates the bench
# models to finite results, the default profile is bit-identical to the
# historical cost model, calibration round-trips, and the determinism
# contract holds per backend.
run cargo test -q --test backend_registry

# Backend CLI smoke: the registry is reachable end-to-end (--backend-list,
# a non-default profile, and an unknown name rejected with usage exit 2).
run ./target/release/magis --backend-list
run ./target/release/magis inspect --workload unet --scale 0.1 --backend a100
if ./target/release/magis inspect --workload unet --backend warp-drive 2>/dev/null; then
    echo "unknown backend was not rejected"; exit 1
fi

# Planner CLI smoke: a short paranoid planned-objective search runs end
# to end, and a bogus objective is rejected with usage exit 2.
run ./target/release/magis optimize --workload unet --scale 0.1 \
    --budget-ms 2000 --objective planned --paranoia all
if ./target/release/magis optimize --workload unet --objective wishful 2>/dev/null; then
    echo "unknown objective was not rejected"; exit 1
fi

# Driver CLI smoke: an MCTS search runs end to end under the planned
# objective, and an unknown strategy is rejected with usage exit 2.
run ./target/release/magis optimize --workload unet --scale 0.1 \
    --budget-ms 2000 --driver mcts --objective planned
if ./target/release/magis optimize --workload unet --driver quantum 2>/dev/null; then
    echo "unknown driver was not rejected"; exit 1
fi

# Crash-recovery smoke: hard-kill a checkpointing CLI search mid-budget,
# then resume it to completion from the survived checkpoint.
CKPT="$(mktemp -d)/unet.ckpt"
echo
echo "==> kill/resume smoke (checkpoint at $CKPT)"
# Run the built binary directly: killing `cargo run` would orphan the
# search process and leave it racing the resume step below.
timeout -s KILL 4 ./target/release/magis optimize \
    --workload unet --scale 0.2 --mode memory --budget-ms 60000 \
    --checkpoint "$CKPT" --checkpoint-every 4 || true
test -f "$CKPT" || { echo "no checkpoint survived the kill"; exit 1; }
run ./target/release/magis optimize --resume "$CKPT" --budget-ms 3000
# Only the current checkpoint format is read: the same file relabelled
# as v3 must be refused with the unsupported-version message.
sed -i '1s/^magis-checkpoint v4$/magis-checkpoint v3/' "$CKPT"
if V3_OUT="$(./target/release/magis optimize --resume "$CKPT" --budget-ms 1000 2>&1)"; then
    echo "$V3_OUT"; echo "a v3 checkpoint was not rejected"; exit 1
fi
grep -q "unsupported checkpoint version v3; this build reads v4" <<<"$V3_OUT" \
    || { echo "$V3_OUT"; echo "the v3 rejection lacks the unsupported-version message"; exit 1; }
rm -rf "$(dirname "$CKPT")"

# Deadline smoke: a hard wall limit returns a best-so-far result and
# reports the deadline stop reason in the summary.
echo
echo "==> deadline smoke"
DEADLINE_OUT="$(./target/release/magis optimize --workload unet --scale 0.15 \
    --mode memory --budget-ms 60000 --wall-limit-ms 300 2>&1)"
grep -q "stop reason *deadline" <<<"$DEADLINE_OUT" \
    || { echo "$DEADLINE_OUT"; echo "deadline stop reason missing"; exit 1; }

# Service smoke: start the daemon, push two jobs through the CLI
# client (the second hits the cross-request result cache), then
# SIGTERM and require a clean drain.
SRV_DIR="$(mktemp -d)"
echo
echo "==> serve smoke (state in $SRV_DIR)"
./target/release/magis-served --addr 127.0.0.1:0 \
    --state-dir "$SRV_DIR/state" --port-file "$SRV_DIR/port" --workers 2 &
SRV_PID=$!
for _ in $(seq 1 100); do test -s "$SRV_DIR/port" && break; sleep 0.1; done
test -s "$SRV_DIR/port" || { echo "daemon never wrote its port file"; exit 1; }
run ./target/release/magis submit --port-file "$SRV_DIR/port" \
    --workload unet --scale 0.1 --max-candidates 40
run ./target/release/magis submit --port-file "$SRV_DIR/port" \
    --workload unet --scale 0.1 --max-candidates 40

# Observability leg: attach a watcher to an in-flight job, then scrape
# the metrics surface and require real completion counts plus the
# per-job correlated trace.
SUBMIT_OUT="$(./target/release/magis submit --port-file "$SRV_DIR/port" \
    --workload unet --scale 0.15 --max-candidates 200 --wait false)"
JOB_ID="$(grep -o '[0-9]\+' <<<"$SUBMIT_OUT" | head -1)"
test -n "$JOB_ID" || { echo "$SUBMIT_OUT"; echo "no job id from nowait submit"; exit 1; }
run ./target/release/magis watch --port-file "$SRV_DIR/port" --id "$JOB_ID"
METRICS_OUT="$(./target/release/magis metrics --port-file "$SRV_DIR/port")"
grep -q '^magis_serve_queue_depth ' <<<"$METRICS_OUT" \
    || { echo "$METRICS_OUT"; echo "metrics scrape is missing the queue-depth gauge"; exit 1; }
COMPLETED="$(awk '$1 == "magis_serve_jobs_completed" { print $2 }' <<<"$METRICS_OUT")"
[ -n "$COMPLETED" ] && [ "$COMPLETED" -ge 1 ] \
    || { echo "$METRICS_OUT"; echo "magis_serve_jobs_completed is empty or zero"; exit 1; }
run ./target/release/magis trace-check \
    --trace "$SRV_DIR/state/jobs/job-$JOB_ID/trace.jsonl" --expect-job "$JOB_ID"
run ./target/release/magis top --port-file "$SRV_DIR/port" --iterations 1

kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "daemon did not exit cleanly after SIGTERM"; exit 1; }
rm -rf "$SRV_DIR"

# Traced smoke: a short optimize run must produce a JSONL trace where
# every line parses (trace-check) and a non-empty metrics snapshot.
OBS_DIR="$(mktemp -d)"
echo
echo "==> traced smoke (artifacts in $OBS_DIR)"
run ./target/release/magis optimize \
    --workload unet --scale 0.15 --mode memory --budget-ms 3000 \
    --trace-out "$OBS_DIR/trace.jsonl" --metrics-out "$OBS_DIR/metrics.txt" \
    --log-level info
run ./target/release/magis trace-check --trace "$OBS_DIR/trace.jsonl"
test -s "$OBS_DIR/metrics.txt" || { echo "metrics snapshot is empty"; exit 1; }
grep -q "magis_core_expansions" "$OBS_DIR/metrics.txt" \
    || { echo "metrics snapshot is missing core counters"; exit 1; }
rm -rf "$OBS_DIR"

# Benchmark smoke: the greedy-conv workload runs its search on 2
# threads over DP windows of more than 256 nodes, so it exercises both
# the fan-out's claim gate and the wide-key DP. Every result it checks
# must be correct.
echo
echo "==> perfbench greedy-conv smoke"
BENCH_OUT="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload greedy-conv --seed 1 --seconds 1 --trace 0)"
tail -1 <<<"$BENCH_OUT" | grep -q '"correct":true' \
    || { echo "$BENCH_OUT"; echo "perfbench greedy-conv reported incorrect results"; exit 1; }

# Planned benchmark smoke: mcts-tfm searches every model under the
# planned objective. Its fingerprint replay requires every replayed
# child, delta plan included, to be bit-identical to
# `MState::from_applied`, and each result's planned peak must equal a
# fresh `memory_plan` of its order.
echo
echo "==> perfbench mcts-tfm smoke"
BENCH_OUT="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload mcts-tfm --seed 1 --seconds 1 --trace 0)"
tail -1 <<<"$BENCH_OUT" | grep -q '"correct":true' \
    || { echo "$BENCH_OUT"; echo "perfbench mcts-tfm reported incorrect results"; exit 1; }

# Served benchmark smoke: jobs on an in-process daemon checkpoint
# every 16 evaluations and stream progress snapshots, and every served
# result must equal the same request run in process.
echo
echo "==> perfbench serve-mixed smoke"
BENCH_OUT="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve-mixed --seed 1 --seconds 1 --trace 0)"
tail -1 <<<"$BENCH_OUT" | grep -q '"correct":true' \
    || { echo "$BENCH_OUT"; echo "perfbench serve-mixed reported incorrect results"; exit 1; }

# Overhead guard: with tracing disabled, the always-on instrumentation
# must stay within 5% (+ noise floor) of a fully suppressed run.
run ./target/release/obs_overhead --check --out "$(mktemp -d)"

echo
echo "CI gate passed."
