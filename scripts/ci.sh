#!/usr/bin/env bash
# The full CI gate, runnable locally: build, tests, formatting, lints.
# Everything must pass before a change merges.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> benchmark tests and meta_churn smoke"
# The benchmark's own tests (generator, percentiles, oracle), then a
# 3-second meta_churn run on a loopback cluster: its last line is one
# JSON object, which must report a correct run with no failed call or
# check.
python3 perfbench/run.py test
bench_json=$(python3 perfbench/run.py --workload meta_churn --seed 7 --seconds 3 --trace 0 | tail -1)
if ! grep -q '"correct": true' <<<"$bench_json" || ! grep -q '"failed": 0,' <<<"$bench_json"; then
    echo "benchmark smoke: meta_churn run incorrect or with failures" >&2
    printf '%s\n' "$bench_json" >&2
    exit 1
fi
echo "benchmark smoke: meta_churn correct, 0 failed"

echo "==> metrics smoke test"
# Boot a networked cluster, do one write/read, and check the merged
# metrics snapshot exposes the expected series from every layer.
smoke_out=$(cargo run --release --quiet --example metrics_smoke)
for series in master_requests_total master_live_workers \
    worker_requests_total worker_write_bytes_total worker_read_bytes_total \
    rpc_client_requests_total rpc_client_request_us_bucket \
    client_write_bytes_total client_read_bytes_total; do
    if ! grep -q "^${series}" <<<"$smoke_out"; then
        echo "metrics smoke: missing series ${series}" >&2
        exit 1
    fi
done
echo "metrics smoke: all expected series present"

echo "==> trace smoke test"
# Boot a networked cluster, run a traced write/read, and check the JSONL
# dump stitches one client→master→worker span tree under a single trace id.
cargo run --release --quiet --example trace_smoke >/dev/null
dump=results/traces/smoke.jsonl
if [ ! -s "$dump" ]; then
    echo "trace smoke: missing or empty ${dump}" >&2
    exit 1
fi
read_trace=$(grep '"name":"client.read_file"' "$dump" | head -1 |
    sed 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/')
if [ -z "$read_trace" ]; then
    echo "trace smoke: no client.read_file root span in ${dump}" >&2
    exit 1
fi
for node in '"node":"client"' '"node":"master"' '"node":"worker-'; do
    if ! grep "\"trace_id\":\"${read_trace}\"" "$dump" | grep -q "$node"; then
        echo "trace smoke: trace ${read_trace} has no span with ${node}" >&2
        exit 1
    fi
done
echo "trace smoke: stitched client→master→worker tree under trace ${read_trace}"

echo "==> parallel I/O stress smoke"
# The windowed-data-path concurrency suite, then the quick window sweep on
# a real TCP cluster. The GATE line asserts window=4 beats the serial
# client; results/parallel_io.json is the machine-readable artifact CI
# uploads and diffs across runs.
cargo test --release -q -p octopus-core --test parallel_io
pio_out=$(cargo run --release --quiet -p octopus-bench --bin exp_parallel_io -- --quick)
if ! grep -q "^GATE parallel_io .* pass=true" <<<"$pio_out"; then
    echo "parallel I/O smoke: window sweep gate failed" >&2
    grep "^GATE" <<<"$pio_out" >&2 || true
    exit 1
fi
if [ ! -s results/parallel_io.json ]; then
    echo "parallel I/O smoke: missing results/parallel_io.json" >&2
    exit 1
fi
grep "^GATE" <<<"$pio_out"

echo "==> aggregate I/O scaling smoke"
# The multiplexed-transport suite (interleaved responses, in-flight caps,
# idle reaping, pipeline tail-kill), then the quick client sweep on a real
# TCP cluster. The GATE line asserts 64 concurrent clients achieve at
# least 3x the single-client aggregate; results/aggregate_io.json is the
# machine-readable artifact CI uploads and diffs across runs.
cargo test --release -q -p octopus-core --test multiplex
agg_out=$(cargo run --release --quiet -p octopus-bench --bin exp_aggregate_io -- --quick)
if ! grep -q "^GATE aggregate_io .* pass=true" <<<"$agg_out"; then
    echo "aggregate I/O smoke: client sweep gate failed" >&2
    grep "^GATE" <<<"$agg_out" >&2 || true
    exit 1
fi
if [ ! -s results/aggregate_io.json ]; then
    echo "aggregate I/O smoke: missing results/aggregate_io.json" >&2
    exit 1
fi
grep "^GATE" <<<"$agg_out"

echo "==> heat telemetry smoke"
# The heat/audit/series suite on a real TCP cluster, then the example
# (worker touch rings → heartbeat piggyback → master EWMA, plus the
# audited placement of a block cross-checked against the block map),
# then the quick hot/cold separation sweep. The GATE line asserts the
# re-read file scores above its untouched sibling in ≥95% of epochs;
# results/heat.json is the machine-readable artifact CI uploads.
cargo test --release -q -p octopus-core --test telemetry
heat_out=$(cargo run --release --quiet --example heat_smoke)
for line in "^HEAT-SMOKE hot " "^HEAT-SMOKE cold " "^HEAT-SMOKE placement .* ok=true"; do
    if ! grep -q "$line" <<<"$heat_out"; then
        echo "heat smoke: missing line matching ${line}" >&2
        exit 1
    fi
done
heat_sweep=$(cargo run --release --quiet -p octopus-bench --bin exp_heat -- --quick)
if ! grep -q "^GATE heat .* pass=true" <<<"$heat_sweep"; then
    echo "heat smoke: hot/cold separation gate failed" >&2
    grep "^GATE" <<<"$heat_sweep" >&2 || true
    exit 1
fi
if [ ! -s results/heat.json ]; then
    echo "heat smoke: missing results/heat.json" >&2
    exit 1
fi
grep "^GATE" <<<"$heat_sweep"

echo "==> auto-tiering smoke"
# The migration robustness suite on a real TCP cluster (promote/demote
# rounds, setrep downgrade convergence, bandwidth-cap pacing, worker
# death on both sides of a copy, fault-injected abort/retry, foreground
# p99 under a live autotier daemon), then the quick shifting-working-set
# sweep. The GATE line asserts auto-tiering beats static placement
# ≥1.3x end-to-end with every working-set file promoted;
# results/autotier.json is the machine-readable artifact CI uploads
# and diffs across runs.
cargo test --release -q -p octopus-core --test autotier
autotier_out=$(cargo run --release --quiet -p octopus-bench --bin exp_autotier -- --quick)
if ! grep -q "^GATE autotier .* pass=true" <<<"$autotier_out"; then
    echo "auto-tiering smoke: shifting-working-set gate failed" >&2
    grep "^GATE" <<<"$autotier_out" >&2 || true
    exit 1
fi
if [ ! -s results/autotier.json ]; then
    echo "auto-tiering smoke: missing results/autotier.json" >&2
    exit 1
fi
grep "^GATE" <<<"$autotier_out"

echo "==> metadata path smoke"
# The master torture suites first: seeded multi-threaded
# create/rename/delete/stat/list/set_replication mixes with full
# invariant audits (replay equivalence, namespace↔blockmap bijection,
# contiguous offsets, no unreachable inodes), the opposing-rename
# deadlock canary, the rename-vs-delete races, the RPC-level
# cross-directory e2e, and the group-commit crash-replay property
# (byte-level log truncations replay into serially-reachable states).
cargo test --release -q -p octopus-master --test master_stress
cargo test --release -q -p octopus-core --test namespace_e2e
cargo test --release -q --test properties group_commit_crash_replay
# Then the lockstat unit suite (contended/uncontended wait accounting)
# and the quick 100k-file metadata microbenchmark against an in-process
# master. The GATE line asserts a
# minimum aggregate ops/sec and that ≥90% of measured op time is
# attributed to the named segments (lock wait, work under lock,
# edit-log append); results/metadata.json is the machine-readable
# artifact CI uploads and diffs across runs.
cargo test --release -q -p octopus-common lockstat
meta_out=$(cargo run --release --quiet -p octopus-bench --bin exp_metadata -- --quick)
if ! grep -q "^GATE metadata .* pass=true" <<<"$meta_out"; then
    echo "metadata smoke: throughput/attribution gate failed" >&2
    grep "^GATE" <<<"$meta_out" >&2 || true
    exit 1
fi
if [ ! -s results/metadata.json ]; then
    echo "metadata smoke: missing results/metadata.json" >&2
    exit 1
fi
grep "^GATE" <<<"$meta_out"

echo "==> operator status smoke"
# Boot the real daemons (one master, two workers) and check that
# `octofs-remote status` renders the live cluster: every tier line must
# report a non-zero capacity once the workers have heartbeated in.
status_dir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$status_dir"' EXIT
./target/release/octofs-master --listen 127.0.0.1:0 --workers 2 \
    --heartbeat-ms 100 >"$status_dir/master.log" 2>&1 &
for _ in $(seq 50); do
    master_addr=$(sed -n 's/^octofs-master listening on //p' "$status_dir/master.log")
    [ -n "$master_addr" ] && break
    sleep 0.1
done
if [ -z "${master_addr:-}" ]; then
    echo "status smoke: master did not report a listen address" >&2
    cat "$status_dir/master.log" >&2
    exit 1
fi
for w in 0 1; do
    ./target/release/octofs-worker --master "$master_addr" --id "$w" \
        --workers 2 --heartbeat-ms 100 >"$status_dir/worker$w.log" 2>&1 &
done
# Tier reports materialize as worker heartbeats register media, so poll
# until at least one non-zero-capacity tier line and a live worker show.
status_out=""
for _ in $(seq 50); do
    status_out=$(./target/release/octofs-remote --master "$master_addr" status || true)
    if grep -q "^tier " <<<"$status_out" &&
        ! grep "^tier " <<<"$status_out" | grep -q "capacity=0 B" &&
        grep -q "^worker .* live " <<<"$status_out"; then
        break
    fi
    sleep 0.2
done
if ! grep -q "^tier " <<<"$status_out"; then
    echo "status smoke: no tier lines in octofs-remote status output" >&2
    printf '%s\n' "$status_out" >&2
    exit 1
fi
if grep "^tier " <<<"$status_out" | grep -q "capacity=0 B"; then
    echo "status smoke: a tier reports zero capacity" >&2
    printf '%s\n' "$status_out" >&2
    exit 1
fi
echo "status smoke: $(grep -c "^tier " <<<"$status_out") tiers with non-zero capacity"

# The contention observatory against the same live daemons: after one
# metadata op, `status` must render per-op latency lines and `perf` must
# rank ops and tabulate master lock wait/hold statistics.
./target/release/octofs-remote --master "$master_addr" mkdir /ci-perf
status_out=$(./target/release/octofs-remote --master "$master_addr" status)
if ! grep -q "^meta mkdir .*p99=" <<<"$status_out"; then
    echo "status smoke: no per-op metadata line for mkdir" >&2
    printf '%s\n' "$status_out" >&2
    exit 1
fi
perf_out=$(./target/release/octofs-remote --master "$master_addr" perf)
if ! grep -q "^mkdir " <<<"$perf_out"; then
    echo "perf smoke: mkdir missing from the op ranking" >&2
    printf '%s\n' "$perf_out" >&2
    exit 1
fi
if ! grep -q "^master.ns " <<<"$perf_out"; then
    echo "perf smoke: master.ns missing from the lock table" >&2
    printf '%s\n' "$perf_out" >&2
    exit 1
fi
echo "perf smoke: per-op ranking and lock table rendered"

echo "CI green."
