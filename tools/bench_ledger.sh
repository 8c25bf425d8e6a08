#!/usr/bin/env bash
# Allocation ledger: one traced krispbench run per workload, written as
# JSON, with each workload's heap-allocation count held to its ceiling.
#
#   tools/bench_ledger.sh OUT.json
#
# Each run is `--trace 1 --seed 0 --seconds 1`. A traced run replays a
# fixed job list, so its counts (kernels, requests, allocations,
# Algorithm 1 calls, obs events) repeat exactly on one toolchain and can
# gate; host times, the traced run's `obs.overhead` and `obs.export_ms`,
# and `host.ref_ms` vary run to run and are recorded as context only.
# The script exits 1 when any job fails its digest check or a workload
# allocates more than its line in tools/alloc_ceilings.txt.
# Needs cargo and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:?usage: tools/bench_ledger.sh OUT.json}
ceilings=tools/alloc_ceilings.txt
workloads=(closed_krisp cluster_static chaos_mix)

ceiling_of() {
  awk -v w="$1" '$1 == w { print $2 }' "$ceilings"
}

fail=0
entries=()
for w in "${workloads[@]}"; do
  log=$(cargo run --release --quiet --offline --manifest-path krispbench/Cargo.toml -- \
    --workload "$w" --seed 0 --seconds 1 --trace 1)
  # "untraced 2722.5 ms, traced 8831.3 ms, 11622 requests, 1580029 kernels, 9163719 allocations"
  allocations=
  read -r untraced_ms traced_ms requests kernels allocations < <(
    sed -nE 's/^untraced ([0-9.]+) ms, traced ([0-9.]+) ms, ([0-9]+) requests, ([0-9]+) kernels, ([0-9]+) allocations$/\1 \2 \3 \4 \5/p' <<<"$log"
  ) || true
  result=$(tail -n 1 <<<"$log")
  ceiling=$(ceiling_of "$w")
  if [[ -z "$allocations" || -z "$ceiling" ]]; then
    echo "$w: could not read the allocation count or its ceiling" >&2
    exit 1
  fi
  correct=$(jq -r '.correct' <<<"$result")
  failed=$(jq -r '.failed' <<<"$result")
  echo "$w: $allocations allocations (ceiling $ceiling), $kernels kernels, $requests requests, correct $correct, failed $failed"
  if [[ "$correct" != true || "$failed" != 0 ]]; then
    echo "$w: a krispbench job failed its digest check" >&2
    fail=1
  fi
  if ((allocations > ceiling)); then
    echo "$w: $allocations heap allocations exceed the ceiling $ceiling" >&2
    fail=1
  fi
  entries+=("$(jq -n \
    --arg w "$w" --argjson result "$result" \
    --argjson requests "$requests" --argjson kernels "$kernels" \
    --argjson allocations "$allocations" --argjson ceiling "$ceiling" \
    --argjson untraced_ms "$untraced_ms" --argjson traced_ms "$traced_ms" '
    ($result.metrics | with_entries(.value = .value.value)) as $m
    | {($w): {
        correct: $result.correct,
        failed: $result.failed,
        counts: {
          "sim.kernels": $kernels,
          requests: $requests,
          allocations: $allocations,
          "core.alloc_calls": $m["core.alloc_calls"],
          "runtime.launches": $m["runtime.launches"],
          "obs.events": $m["obs.events"]
        },
        ratios: {
          "host.allocs_per_kernel": $m["host.allocs_per_kernel"],
          "host.allocs_per_request": $m["host.allocs_per_request"]
        },
        allocation_ceiling: $ceiling,
        context: {
          untraced_ms: $untraced_ms,
          traced_ms: $traced_ms,
          "host.ns_per_kernel": $m["host.ns_per_kernel"],
          "core.alloc_ns": $m["core.alloc_ns"],
          "obs.overhead": $m["obs.overhead"],
          "obs.export_ms": $m["obs.export_ms"],
          "host.ref_ms": $m["host.ref_ms"]
        }
      }}')")
done

printf '%s\n' "${entries[@]}" | jq -s '{
  run: "krispbench --seed 0 --seconds 1 --trace 1",
  note: "counts repeat exactly and gate against tools/alloc_ceilings.txt; context is host wall-clock and does not gate",
  workloads: add
}' >"$out"
echo "wrote $out"
exit "$fail"
