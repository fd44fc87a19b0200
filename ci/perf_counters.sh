#!/usr/bin/env bash
# Deterministic work counters of the benchmark, pinned like figure output.
#
# Runs the traced campaign and storm workloads of perfbench at seed 7,
# keeps only the counters that are a pure function of (workload, seed) —
# engine events and OOM kills per policy, baseline-cache hits and misses,
# the service's arrival/admission/shed/deferral/breaker/OOM/retry/fault
# counts and the prediction-table counters — and compares them byte for
# byte with ci/perf_counters.expected. Wall-clock metrics are dropped: CI
# cannot trust them. Traced counts do not depend on --seconds, so a one
# second budget is enough.
#
# A change that moves a counter on purpose re-records the expected file
# from this script's "actual" output, printed on a mismatch.
#
# Usage (from anywhere): bash ci/perf_counters.sh
set -euo pipefail

cd "$(dirname "$0")/.."

keep='^(scheduler\.events\.|scheduler\.oom_kills\.|harness\.baseline\.(hits|misses) |service\.(arrivals|admitted|shed|deferrals|breaker_trips|oom_kills|retries|faults_delivered) |predictors\.table\.)'

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT

for workload in campaign storm; do
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 7 --seconds 1 --trace 1 |
    grep -E "$keep" |
    awk -v w="$workload" '{ print w, $1, $2 }' >> "$actual"
done

if ! cmp -s ci/perf_counters.expected "$actual"; then
  echo "perf counters drifted from ci/perf_counters.expected:" >&2
  diff ci/perf_counters.expected "$actual" >&2 || true
  echo "actual:" >&2
  cat "$actual" >&2
  exit 1
fi
echo "perf counters identical: $(wc -l < "$actual") lines"
