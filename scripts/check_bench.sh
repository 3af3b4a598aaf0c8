#!/usr/bin/env bash
# Benchmark gate check, one command: builds the gated benches and runs each
# once, with every report (--out, and --obs-out where a bench has one)
# written to a temporary directory, so the checked-in BENCH_*.json files
# stay as they are. Prints each bench's gate result and exits 1 when any
# gate failed.
#
#   matmul_bench       GEMM thread scaling, bit-identical across thread
#                      counts, and the fp32 / int8 encode speedups
#   route_bench        hash affinity, failover, hot reload, tracing overhead
#   retrieval_bench    HNSW recall and speed against flat search
#   quant_eval --fast  the int8 accuracy budget on the small config
#   serve_loadgen      engine speedup and the serve SLO alert demo
#   stream_loadgen     online == offline verdicts and the stream alert demo
#
# It stays out of scripts/check_tier1.sh: the six runs take minutes.
#
# Usage: scripts/check_bench.sh   (from anywhere inside the repo)

set -uo pipefail
cd "$(git rev-parse --show-toplevel)"

BENCHES=(matmul_bench route_bench retrieval_bench quant_eval serve_loadgen
         stream_loadgen)
cmake -B build -S . >/dev/null || exit 1
cmake --build build -j --target "${BENCHES[@]}" >/dev/null || exit 1

OUT=$(mktemp -d)
trap 'rm -rf "${OUT}"' EXIT
echo "check_bench: nproc=$(nproc)" \
  "TELEKIT_COMPUTE_THREADS=${TELEKIT_COMPUTE_THREADS:-unset}" \
  "TELEKIT_SIMD=${TELEKIT_SIMD:-auto}"

FAILED=()
# run_bench <name> <args...>: runs build/bench/<name> with its output in a
# log, prints the log's last lines and the bench's gate result.
run_bench() {
  local name=$1
  shift
  local log="${OUT}/${name}.log"
  local start=${SECONDS}
  "./build/bench/${name}" "$@" --log-level=warn >"${log}" 2>&1
  local code=$?
  tail -n 6 "${log}" | sed "s/^/  ${name} | /"
  if [[ ${code} -eq 0 ]]; then
    echo "== ${name}: PASS ($((SECONDS - start)) s)"
  else
    echo "== ${name}: FAIL, exit ${code} ($((SECONDS - start)) s)"
    FAILED+=("${name}")
  fi
}

run_bench matmul_bench --out="${OUT}/BENCH_matmul.json"
run_bench route_bench --out="${OUT}/BENCH_route.json"
run_bench retrieval_bench --out="${OUT}/BENCH_retrieval.json"
run_bench quant_eval --fast --out="${OUT}/BENCH_quant.json"
run_bench serve_loadgen --out="${OUT}/BENCH_serve.json" \
  --obs-out="${OUT}/BENCH_obs_serve.json"
run_bench stream_loadgen --out="${OUT}/BENCH_stream.json" \
  --obs-out="${OUT}/BENCH_obs_stream.json"

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "check_bench: FAILED (${FAILED[*]})"
  exit 1
fi
echo "check_bench: OK"
