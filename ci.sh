#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite, benchmark output checks.
# Everything runs offline against the vendored workspace dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings + dead code) =="
# -D dead_code keeps a deleted duplicate event loop from lingering as an
# unreferenced module after the serve/fleet floor unification.
cargo clippy --workspace --all-targets -- -D warnings -D dead_code

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo test --doc =="
cargo test --workspace --doc -q

echo "== cargo doc (deny broken intra-doc links) =="
# Links left dangling by a deleted item fail here instead of rotting.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

echo "== serving_trace example (lifecycle/counter export end-to-end) =="
cargo run --release -p skip-suite --example serving_trace

echo "== skip serve CLI (chunked-prefill policy behind the JSQ router) =="
# capture, then grep: piping straight into grep -q races the CLI against
# grep's early exit (broken pipe) under pipefail
serve_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --platform gh200 --policy chunked --chunk-tokens 64 --router jsq --replicas 4 \
  --requests 40 --qps 100 --seq 256 --tokens 8 --slo-ttft-ms 200)
grep -q "completed    : 40 requests" <<<"$serve_out"

echo "== skip serve CLI (disaggregated heterogeneous fleet with autoscaling) =="
fleet_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --fleet gh200:1,intel_h100:3 --disagg --autoscale --arrivals bursty \
  --qps 10 --peak-qps 300 --requests 40 --seq 256 --tokens 8 --slo-ttft-ms 200)
grep -q "completed    : 40 requests" <<<"$fleet_out"

echo "== skip serve CLI (disaggregated fleet under chunked prefill) =="
chunked_fleet_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --fleet gh200:1,intel_h100:3 --disagg --policy chunked --chunk-tokens 64 \
  --qps 40 --requests 40 --seq 256 --tokens 8 --slo-ttft-ms 200)
grep -q "completed    : 40 requests" <<<"$chunked_fleet_out"
grep -q "KV handoff" <<<"$chunked_fleet_out"

echo "== skip serve CLI (fleet mode rejects a single-node flag instead of ignoring it) =="
# the command must fail, so capture it inside `if` (set -e does not fire
# there), then grep the captured output for the named flag
if reject_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --fleet intel_h100:2 --kv-blocks 4 2>&1); then
  echo "skip serve --fleet accepted --kv-blocks"
  exit 1
fi
grep -q "^error: --kv-blocks" <<<"$reject_out"

echo "== skip plan CLI (capacity planner frontier over the candidate space) =="
plan_out=$(cargo run --release -p skip-suite --bin skip -- plan --model gpt2 \
  --qps 80 --requests 48 --seq 128 --tokens 4 --max-replicas 3 \
  --slo-ttft-ms 400 --slo-e2e-ms 2000)
grep -q "cost-optimal fleet:" <<<"$plan_out"

echo "== skip plan CLI (pruned generational sweep over an 8-replica space) =="
plan8_out=$(cargo run --release -p skip-suite --bin skip -- plan --model llama-2-7b \
  --qps 50 --requests 64 --seq 512 --tokens 16 --max-replicas 8 \
  --slo-ttft-ms 600 --slo-e2e-ms 2500)
grep -q "cost-optimal fleet:" <<<"$plan8_out"
grep -q "pruned sweep:" <<<"$plan8_out"

echo "== parallel determinism (byte-identical renders at any --threads) =="
cargo test --release --test parallel_determinism -q

echo "== perfbench output checks (every workload once: digests and paper accuracy, not times) =="
# perfbench is a workspace of its own; its last line is one JSON object
# whose "correct" covers every output digest against perfbench/ref
for workload in characterize serve_kv fleet_autoscale plan_grid; do
  bench_out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0)
  bench_last=$(tail -n 1 <<<"$bench_out")
  if ! grep -q '"correct": true' <<<"$bench_last" || ! grep -qE '"failed": 0[,}]' <<<"$bench_last"; then
    echo "perfbench $workload failed its output checks: $bench_last"
    exit 1
  fi
done

echo "== perf suite (writes BENCH_SUITE.json; >2x wall + throughput-drop gates," \
     "plus the 100k-request population smoke under an absolute wall budget) =="
cargo run --release -p skip-bench --bin perf -- --baseline BENCH_BASELINE.json --budget-ms 5000
test -s BENCH_SUITE.json || { echo "BENCH_SUITE.json missing"; exit 1; }

echo "CI OK"
