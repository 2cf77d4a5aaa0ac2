#!/usr/bin/env bash
# Regenerate the paper's full evaluation: every bench binary in order, with
# section separators, into stdout (tee to a file to archive a run).
#
#   scripts/run_all_benches.sh [--json <dir>] [build-dir]
#
# With --json, each binary additionally writes machine-readable records to
# <dir>/<bench>.json (schema in docs/benchmarks.md) — the nightly workflow
# archives that directory so the perf trajectory accrues per commit.
#
# The binary list is explicit (not a directory glob) so a bench that fails to
# build is a loud error here rather than a silently missing section.
set -euo pipefail

BUILD_DIR="build"
JSON_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --json)
      [[ $# -ge 2 ]] || { echo "error: --json needs a directory" >&2; exit 2; }
      JSON_DIR="$2"
      shift 2
      ;;
    -*) echo "unknown flag: $1" >&2; exit 2 ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done
if [[ -n "${JSON_DIR}" ]]; then
  mkdir -p "${JSON_DIR}"
fi
if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: '${BUILD_DIR}/bench' not found — build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -G Ninja && cmake --build ${BUILD_DIR}" >&2
  exit 1
fi

BENCHES=(
  bench_gemm
  bench_collectives
  bench_eq5_crossover
  bench_fig4_batch_size
  bench_fig6_strong_scaling
  bench_fig7_fc_only
  bench_fig8_overlap
  bench_fig9_weak_scaling
  bench_fig10_domain_extension
  bench_hierarchy
  bench_latency_ablation
  bench_layer_breakdown
  bench_machine_sensitivity
  bench_memory_model
  bench_rnn_fc_heavy
  bench_summa_ablation
  bench_trace_replay
  bench_validation_volume
  bench_executable_scaling
  bench_recovery
  bench_obs_overhead
  bench_serving
)

for name in "${BENCHES[@]}"; do
  b="${BUILD_DIR}/bench/${name}"
  if [[ ! -x "$b" ]]; then
    echo "error: bench binary missing: $b" >&2
    exit 1
  fi
  echo
  echo "################################################################"
  echo "## ${name}"
  echo "################################################################"
  if [[ -n "${JSON_DIR}" ]]; then
    "$b" --json "${JSON_DIR}/${name}.json"
  else
    "$b"
  fi
done
