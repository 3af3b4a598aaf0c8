#!/usr/bin/env bash
# Tier-1 regression check, one command (see ROADMAP.md):
#   1. configure + build everything
#   2. run the full ctest suite
#   3. SIMD parity: re-run the tensor/core/serve suites with
#      TELEKIT_SIMD=off, so the scalar kernel backend stays green (the
#      vector-vs-scalar agreement itself is asserted in-process by the
#      SimdKernelTest cases, which force both backends; the inference
#      forward's bit-identity tests in serve_test run here too).
#   4. int8 accuracy gate: quant_eval --fast, its report to a temporary file.
#   5. rebuild every target under -Wall -Wextra -Werror in a separate
#      tree, so new warnings fail loudly instead of scrolling by, and run
#      the obs/stream/route/tensor/index suites from it.
#   6. flag contract: one table of (command, expected exit code) rows.
#      Every daemon and bench binary (micro_components keeps google-
#      benchmark's own parser) exits 64 on a usage error (unknown or
#      removed flag, malformed or out-of-range number, value outside a
#      choice set, malformed or missing --replica, a bad
#      TELEKIT_LOG_LEVEL) and 0 on --help, before any work starts.
#   7. admin smoke: start telekit_serve with --admin-port on loopback,
#      poll /healthz until live, assert /metrics serves a non-empty
#      Prometheus exposition, then drive one traced request through the
#      TCP protocol and assert the observability loop closes end to end:
#      /timeseriesz accumulates samples, /alertz is healthy on a clean
#      run, a /metrics latency bucket carries a trace exemplar whose id
#      resolves via /requestz to a wide event with matching total_us and
#      via /tracez to a Chrome slice carrying it, and the --request-log
#      NDJSON round-trips through telekit_jsonlint.
#      Also drives one request at "precision": "int8" and asserts it
#      succeeds and lands on the serve/precision_int8_requests counter,
#      and asserts the loaded model variant's generation is visible in
#      both /statusz (models section) and /metrics (serve/model/*/
#      generation gauge).
#   8. retrieval smoke: start telekit_serve with --index-path, drive
#      retrieve (k docs, descending scores, ef_search override) and
#      troubleshoot (verdict + supporting docs) through the NDJSON
#      protocol, assert /statusz gained an index section and the traced
#      troubleshoot request shows index/search + serve/troubleshoot spans
#      on /spanz, then restart on the same snapshot and assert the warm
#      start loaded it instead of rebuilding (build_ms near zero).
#   9. streamd smoke: replay a small seeded stream through telekit_streamd
#      with --linger, assert /statusz reports a finished run with >0
#      episodes and 0 late drops, and that the per-op serve counters made
#      it into the Prometheus exposition.
#  10. router smoke: start 2 telekit_serve replicas behind telekit_router
#      (with --request-log), assert /fleetz shows both routable with probe
#      telemetry, assert /fleetmetricz sums the replicas' request counters,
#      drive traced traffic (including retrieve + troubleshoot) through
#      the routed NDJSON path, SIGKILL one
#      replica and assert a traced request that retried assembles into a
#      multi-hop trace via /tracezd (failed hop marked, replica serve span
#      attached, Chrome export works) while traffic keeps succeeding and
#      the ejection lands in /metrics, then /reloadz a model swap with
#      zero failed requests, drain the router via /quitquitquit, and lint
#      the router's wide-event request log with telekit_jsonlint.
#  11. ASan+UBSan: build the tensor, autograd, core, pretrain, zoo, serve,
#      text, index, stream and route suites in build_asan/ with
#      -fsanitize=address,undefined -fno-sanitize-recover=all
#      -D_GLIBCXX_ASSERTIONS (TELEKIT_ASAN) and run them, so an
#      out-of-bounds access in a raw-pointer kernel (the GEMM tiles, the
#      fused tape nodes' per-head offsets, the inference forward's [CLS]-only
#      last layer that serving runs), a reply callback outliving its NDJSON
#      session (route_test holds the NdjsonServer tests) or undefined
#      behaviour fails. The suites run at TELEKIT_COMPUTE_THREADS=4: only a
#      GEMM of 2 MFLOP or more fans out over the compute pool, so the pool's
#      workers run tensor_test's larger MatMuls; at the model's shapes (the
#      core, pretrain, zoo and serve suites) every kernel runs on the
#      calling thread.
#
# Optional: TELEKIT_TSAN=1 scripts/check_tier1.sh additionally builds the
# concurrency-heavy tests (serve engine, stream pipeline, embedding cache,
# ANN index, metrics registry, admin server, tensor ComputePool) under
# ThreadSanitizer in build_tsan/ and runs them — tensor_test, serve_test,
# stream_test, route_test and index_test with TELEKIT_COMPUTE_THREADS=4.
# The pool is exercised by tensor_test alone: its MatMuls above the 2 MFLOP
# floor fan out, and ComputePoolTest.ConcurrentMatMulsKeepSerialBits runs
# two callers at once, so one of them takes the pool's try-lock fallback.
# serve_test's concurrent encodes run at the model's shapes and do not
# reach the pool. Off by default: the TSan tree roughly doubles check time.
#
# Stages 7-10 start their daemons with start_daemon and poll them with
# wait_ready (below); one EXIT trap stops whatever is still running and
# removes the stages' logs.
#
# Usage: scripts/check_tier1.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Daemons started by start_daemon, with their log files (same index).
DAEMON_PIDS=()
DAEMON_LOGS=()
SMOKE_DIR=$(mktemp -d)

# start_daemon <log> <command...>: runs the command in the background with
# stdout and stderr in <log>; its pid is left in LAST_PID.
start_daemon() {
  local log=$1
  shift
  "$@" >"${log}" 2>&1 &
  LAST_PID=$!
  DAEMON_PIDS+=("${LAST_PID}")
  DAEMON_LOGS+=("${log}")
}

# wait_ready <stage> <url> <tries> <period_s> [<pattern>]: polls <url> until
# it answers (with a body matching <pattern>, when given). Fails the script
# when <tries> polls pass, or when a started daemon dies meanwhile (its log
# is printed).
wait_ready() {
  local stage=$1 url=$2 tries=$3 period=$4 pattern=${5:-} body i d
  for ((i = 0; i < tries; ++i)); do
    if body=$(curl -sf -m 2 "${url}" 2>/dev/null) \
        && { [[ -z "${pattern}" ]] || grep -q "${pattern}" <<<"${body}"; }; then
      return 0
    fi
    for d in "${!DAEMON_PIDS[@]}"; do
      if ! kill -0 "${DAEMON_PIDS[d]}" 2>/dev/null; then
        echo "${stage}: a daemon died during start-up:"
        cat "${DAEMON_LOGS[d]}"
        exit 1
      fi
    done
    sleep "${period}"
  done
  echo "${stage}: ${url} never became ready"
  exit 1
}

# stop_daemons: SIGTERM every started daemon still running and reap them.
stop_daemons() {
  local pid
  for pid in "${DAEMON_PIDS[@]}"; do kill "${pid}" 2>/dev/null || true; done
  for pid in "${DAEMON_PIDS[@]}"; do wait "${pid}" 2>/dev/null || true; done
  DAEMON_PIDS=()
  DAEMON_LOGS=()
}
trap 'stop_daemons; rm -rf "${SMOKE_DIR}"' EXIT

echo "== [1/11] configure + build =="
cmake -B build -S .
cmake --build build -j

echo "== [2/11] ctest =="
ctest --test-dir build --output-on-failure -j

echo "== [3/11] TELEKIT_SIMD=off scalar-backend parity =="
# The full suites must stay green with the vector backend disabled; the
# off-vs-on numeric agreement is asserted in-process by SimdKernelTest
# (which forces scalar and the detected backend against each other).
TELEKIT_SIMD=off ./build/tests/tensor_test --gtest_brief=1
TELEKIT_SIMD=off ./build/tests/core_test --gtest_brief=1
TELEKIT_SIMD=off ./build/tests/serve_test --gtest_brief=1

echo "== [4/11] int8 accuracy gate (quant_eval --fast) =="
# The int8 twin runs the shared inference forward with its own dense
# layers: gate its RCA/EAP/FCT deltas end to end (--fast doubles the 5 pp
# budget for its tiny corpus). The report goes to a temporary file, so
# BENCH_serve.json keeps its recorded full-config section.
QUANT_REPORT=$(mktemp)
./build/bench/quant_eval --fast --out="${QUANT_REPORT}" --log-level=warn
rm -f "${QUANT_REPORT}"

echo "== [5/11] -Werror build of every target =="
cmake -B build_strict -S . -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror"
cmake --build build_strict -j
./build_strict/tests/obs_test --gtest_brief=1
./build_strict/tests/obs_admin_test --gtest_brief=1
./build_strict/tests/obs_timeseries_test --gtest_brief=1
./build_strict/tests/stream_test --gtest_brief=1
./build_strict/tests/route_test --gtest_brief=1
./build_strict/tests/tensor_test --gtest_brief=1
./build_strict/tests/index_test --gtest_brief=1

echo "== [6/11] flag contract (64 on a usage error, 0 on --help) =="
SERVE=./build/src/serve/telekit_serve
ROUTER=./build/src/route/telekit_router
STREAMD=./build/src/stream/telekit_streamd
BENCHES=(ablation_kge_models ablation_pretraining ablation_retraining
  fig10_numeric_space lowresource_rca matmul_bench quant_eval
  retrieval_bench route_bench serve_loadgen stream_loadgen
  table2_strategies table3_rca_stats table4_rca_results table5_eap_stats
  table6_eap_results table7_fct_stats table8_fct_results)
# "<expected exit code> <command>" per row.
FLAG_ROWS=(
  "64 ${SERVE} --port=abc"
  "64 ${SERVE} --precision=fp16"
  "64 ${SERVE} --max-wait-us=2000"  # removed flags fail loudly
  "64 ${SERVE} --no-batching"
  "64 ${SERVE} --max-batch=8"
  "64 ${SERVE} --bogus"
  "64 ${SERVE} --log-level=bogus"
  "64 ${SERVE} --models=,"
  "64 ${ROUTER} --vnodes=abc --replica=18000:18001"
  "64 ${ROUTER} --bogus --replica=18000:18001"
  "64 ${ROUTER} --policy=bogus --replica=18000:18001"
  "64 ${ROUTER} --replica=a:b:c:d"
  "64 ${ROUTER}"
  "64 ${STREAMD} --episodes=abc"
  "64 ${STREAMD} --bogus"
  "64 ${STREAMD} --max-batch=8"
  "64 ./build/bench/serve_loadgen --max-wait-us=2000"
  "64 ./build/bench/serve_loadgen --max-batch=8"
  "64 ./build/bench/stream_loadgen --max-batch=8"
  "64 ./build/bench/route_bench --replicas=abc"
  "64 ./build/bench/stream_loadgen --mean-gap=1x2"
  "64 ./build/bench/matmul_bench --iters=-3"
  "64 ./build/bench/retrieval_bench --queries=1e3"
  "64 ./build/bench/table4_rca_results --log-level=bogus"
  "64 env TELEKIT_LOG_LEVEL=bogus ./build/bench/table3_rca_stats --help"
  "0 ${SERVE} --help"
  "0 ${ROUTER} --help"
  "0 ${STREAMD} --help"
)
for bench in "${BENCHES[@]}"; do
  FLAG_ROWS+=("64 ./build/bench/${bench} --bogus" "0 ./build/bench/${bench} --help")
done
for row in "${FLAG_ROWS[@]}"; do
  read -r want cmd <<<"${row}"
  rc=0
  # shellcheck disable=SC2086  # the command is word-split on purpose
  timeout 20 ${cmd} >/dev/null 2>&1 </dev/null || rc=$?
  if [[ "${rc}" -ne "${want}" ]]; then
    echo "flag contract: '${cmd}' exited ${rc}, want ${want}"
    exit 1
  fi
done
echo "flag contract: OK (${#FLAG_ROWS[@]} rows)"

echo "== [7/11] admin endpoint smoke =="
SERVE_PORT=18473
ADMIN_PORT=18474
REQUEST_LOG="${SMOKE_DIR}/serve_requests.ndjson"
# TCP mode (not stdin) so the server stays up while we scrape it.
# --compute-threads=2 smoke-checks the intra-op pool flag end to end;
# --ts-interval-s=0.2 makes the sampler tick fast enough to observe.
start_daemon "${SMOKE_DIR}/serve.log" ./build/src/serve/telekit_serve \
  --port="${SERVE_PORT}" --admin-port="${ADMIN_PORT}" --slow-request-ms=100 \
  --compute-threads=2 --ts-interval-s=0.2 --request-log="${REQUEST_LOG}"

# /healthz answers as soon as the admin thread is up; /readyz stays 503
# until the model is built, so wait for both before scraping.
wait_ready "admin smoke" "http://127.0.0.1:${ADMIN_PORT}/readyz" 60 1
HEALTH=$(curl -sf -m 2 "http://127.0.0.1:${ADMIN_PORT}/healthz")
[[ "${HEALTH}" == "ok" ]] || { echo "admin smoke: bad /healthz: ${HEALTH}"; exit 1; }
STATUSZ=$(curl -sf -m 2 "http://127.0.0.1:${ADMIN_PORT}/statusz")
if ! grep -q '"queue_depth"' <<<"${STATUSZ}"; then
  echo "admin smoke: /statusz missing engine stats: ${STATUSZ}"
  exit 1
fi
METRICS=$(curl -sf -m 2 "http://127.0.0.1:${ADMIN_PORT}/metrics")
if [[ -z "${METRICS}" ]] || ! grep -q "telekit_" <<<"${METRICS}"; then
  echo "admin smoke: /metrics exposition empty or missing telekit_ prefix"
  exit 1
fi

# The hosted model variant and its bundle generation must be visible on
# both surfaces: /statusz lists the variant with a generation field, and
# /metrics carries the serve/model/<name>/generation gauge.
if ! grep -q '"model": "telebert"' <<<"${STATUSZ}" \
    || ! grep -q '"generation"' <<<"${STATUSZ}"; then
  echo "admin smoke: /statusz missing model variant / generation: ${STATUSZ}"
  exit 1
fi
MODEL_GEN=$(sed -n 's/^telekit_serve_model_telebert_generation \([0-9.]*\).*/\1/p' \
  <<<"${METRICS}")
if [[ -z "${MODEL_GEN}" ]] || ! awk -v g="${MODEL_GEN}" \
    'BEGIN { exit (g >= 1) ? 0 : 1 }'; then
  echo "admin smoke: serve/model/telebert/generation gauge missing or zero"
  exit 1
fi

# Drive one traced request through the NDJSON TCP protocol so the wide-event
# log, exemplar store, and latency histograms all see real traffic.
exec 3<>"/dev/tcp/127.0.0.1/${SERVE_PORT}"
printf '{"op": "rca", "text": "ospf neighbor down on core router", "trace": true}\n' >&3
IFS= read -r SERVE_REPLY <&3 || true
exec 3<&- 3>&-
if ! grep -Eq '"ok": ?true' <<<"${SERVE_REPLY}"; then
  echo "admin smoke: traced rca request failed: ${SERVE_REPLY}"
  exit 1
fi

# The int8 quantized encode path: the request must succeed and land on
# its dedicated counter in the Prometheus exposition.
exec 3<>"/dev/tcp/127.0.0.1/${SERVE_PORT}"
printf '{"op": "encode", "text": "ospf neighbor down on core router", "precision": "int8"}\n' >&3
IFS= read -r INT8_REPLY <&3 || true
exec 3<&- 3>&-
if ! grep -Eq '"ok": ?true' <<<"${INT8_REPLY}"; then
  echo "admin smoke: int8 encode request failed: ${INT8_REPLY}"
  exit 1
fi
INT8_COUNT=$(curl -sf -m 2 "http://127.0.0.1:${ADMIN_PORT}/metrics" \
  | sed -n 's/^telekit_serve_precision_int8_requests \([0-9.]*\).*/\1/p')
if [[ -z "${INT8_COUNT}" ]] || ! awk -v c="${INT8_COUNT}" \
    'BEGIN { exit (c >= 1) ? 0 : 1 }'; then
  echo "admin smoke: serve/precision_int8_requests counter missing or zero"
  exit 1
fi

# The background sampler (0.2 s period) must accumulate history.
SAMPLES=0
for _ in $(seq 1 50); do
  TIMESERIES=$(curl -sf -m 2 \
    "http://127.0.0.1:${ADMIN_PORT}/timeseriesz?window=60" 2>/dev/null || true)
  SAMPLES=$(sed -n 's/.*"samples_taken": \([0-9]*\).*/\1/p' <<<"${TIMESERIES}")
  [[ -n "${SAMPLES}" && "${SAMPLES}" -ge 2 ]] && break
  sleep 0.2
done
if [[ -z "${SAMPLES}" || "${SAMPLES}" -lt 2 ]]; then
  echo "admin smoke: /timeseriesz never accumulated 2 samples: ${TIMESERIES}"
  exit 1
fi
if ! grep -q '"serve/request_ms/p95"' <<<"${TIMESERIES}"; then
  echo "admin smoke: /timeseriesz missing serve/request_ms quantile series"
  exit 1
fi

# A clean run must not have any SLO alert firing.
ALERTZ=$(curl -sf -m 2 "http://127.0.0.1:${ADMIN_PORT}/alertz")
if ! grep -q '"firing": 0' <<<"${ALERTZ}"; then
  echo "admin smoke: /alertz reports firing alerts on a clean run: ${ALERTZ}"
  exit 1
fi

# Close the exemplar loop: a latency bucket line in /metrics carries
# ` # {trace_id="..."} value_ms unix_s`; that trace id must resolve via
# /requestz to a wide event whose total_us matches value_ms within 10 us.
METRICS2=$(curl -sf -m 2 "http://127.0.0.1:${ADMIN_PORT}/metrics")
EXEMPLAR_LINE=$(grep 'telekit_serve_request_ms_bucket{le="[^+]*"} .* # {trace_id="' \
  <<<"${METRICS2}" | head -1)
if [[ -z "${EXEMPLAR_LINE}" ]]; then
  echo "admin smoke: /metrics has no exemplar on serve_request_ms buckets"
  exit 1
fi
EXEMPLAR_TRACE=$(sed -n 's/.*# {trace_id="\([0-9a-f]*\)"}.*/\1/p' <<<"${EXEMPLAR_LINE}")
EXEMPLAR_MS=$(sed -n 's/.*# {trace_id="[0-9a-f]*"} \([0-9.eE+-]*\) .*/\1/p' \
  <<<"${EXEMPLAR_LINE}")
REQUESTZ=$(curl -sf -m 2 \
  "http://127.0.0.1:${ADMIN_PORT}/requestz?trace_id=${EXEMPLAR_TRACE}")
WIDE_US=$(sed -n 's/.*"total_us": \([0-9]*\).*/\1/p' <<<"${REQUESTZ}" | head -1)
if [[ -z "${WIDE_US}" ]]; then
  echo "admin smoke: exemplar trace ${EXEMPLAR_TRACE} not found in /requestz"
  exit 1
fi
if ! awk -v us="${WIDE_US}" -v ms="${EXEMPLAR_MS}" \
    'BEGIN { d = us - ms * 1000; if (d < 0) d = -d; exit (d <= 10) ? 0 : 1 }'; then
  echo "admin smoke: exemplar value ${EXEMPLAR_MS} ms disagrees with wide event ${WIDE_US} us"
  exit 1
fi
# /tracez renders the same request log as a Chrome trace: the exemplar's
# request must come back as slices that carry its trace id.
TRACEZ=$(curl -sf -m 2 \
  "http://127.0.0.1:${ADMIN_PORT}/tracez?trace_id=${EXEMPLAR_TRACE}")
if ! grep -q "\"trace\": \"${EXEMPLAR_TRACE}\"" <<<"${TRACEZ}"; then
  echo "admin smoke: /tracez has no slice for trace ${EXEMPLAR_TRACE}: ${TRACEZ}"
  exit 1
fi

stop_daemons

# The NDJSON request log must round-trip through the repo's own parser.
if [[ ! -s "${REQUEST_LOG}" ]]; then
  echo "admin smoke: --request-log sink is empty"
  exit 1
fi
if ! ./build/src/obs/telekit_jsonlint <"${REQUEST_LOG}"; then
  echo "admin smoke: --request-log NDJSON failed jsonlint"
  exit 1
fi
echo "admin smoke: OK (/healthz + /readyz + /statusz + /timeseriesz + /alertz live," \
  "exemplar -> /requestz + /tracez loop closed, request log lints)"

echo "== [8/11] retrieval smoke (retrieve + troubleshoot + snapshot warm start) =="
RETR_PORT=18482
RETR_ADMIN_PORT=18483
INDEX_SNAPSHOT="${SMOKE_DIR}/index.snapshot"
RETR_SERVE=(./build/src/serve/telekit_serve --port="${RETR_PORT}"
  --admin-port="${RETR_ADMIN_PORT}" --ef-search=48
  --index-path="${INDEX_SNAPSHOT}")
start_daemon "${SMOKE_DIR}/retrieval.log" "${RETR_SERVE[@]}"
wait_ready "retrieval smoke" "http://127.0.0.1:${RETR_ADMIN_PORT}/readyz" 60 1

# Cold start: /statusz must carry the index section, built (not loaded)
# from the corpus, honouring the --ef-search default.
RETR_STATUSZ=$(curl -sf -m 2 "http://127.0.0.1:${RETR_ADMIN_PORT}/statusz")
if ! grep -q '"index"' <<<"${RETR_STATUSZ}" \
    || ! grep -q '"loaded_from_snapshot": false' <<<"${RETR_STATUSZ}" \
    || ! grep -q '"ef_search": 48' <<<"${RETR_STATUSZ}"; then
  echo "retrieval smoke: /statusz missing cold-start index section: ${RETR_STATUSZ}"
  exit 1
fi

# retrieve: top_k docs with descending scores, ef_search overridable.
exec 3<>"/dev/tcp/127.0.0.1/${RETR_PORT}"
printf '{"op": "retrieve", "text": "kpi deviation after alarm storm on core site", "top_k": 5}\n' >&3
IFS= read -r RETRIEVE_REPLY <&3 || true
printf '{"op": "retrieve", "text": "signaling anomaly during handover", "top_k": 3, "ef_search": 96}\n' >&3
IFS= read -r RETRIEVE_EF_REPLY <&3 || true
TROUBLE_TRACE="00000000beefcafe"
printf '{"op": "troubleshoot", "text": "customers report degradation after link flap", "top_k": 4, "trace": "%s"}\n' \
  "${TROUBLE_TRACE}" >&3
IFS= read -r TROUBLESHOOT_REPLY <&3 || true
exec 3<&- 3>&-
if ! grep -Eq '"ok": ?true' <<<"${RETRIEVE_REPLY}"; then
  echo "retrieval smoke: retrieve failed: ${RETRIEVE_REPLY}"
  exit 1
fi
DOC_COUNT=$(grep -o '"doc_id"' <<<"${RETRIEVE_REPLY}" | wc -l)
if [[ "${DOC_COUNT}" -ne 5 ]]; then
  echo "retrieval smoke: retrieve returned ${DOC_COUNT} docs, want 5: ${RETRIEVE_REPLY}"
  exit 1
fi
# Doc scores must come back best-first (non-increasing).
if ! grep -o '"score": *[0-9.eE+-]*' <<<"${RETRIEVE_REPLY}" | sed 's/.*://' \
    | awk '{ if (NR > 1 && $1 > prev + 1e-6) exit 1; prev = $1 }'; then
  echo "retrieval smoke: retrieve scores not descending: ${RETRIEVE_REPLY}"
  exit 1
fi
if ! grep -Eq '"ok": ?true' <<<"${RETRIEVE_EF_REPLY}" \
    || [[ "$(grep -o '"doc_id"' <<<"${RETRIEVE_EF_REPLY}" | wc -l)" -ne 3 ]]; then
  echo "retrieval smoke: retrieve with ef_search override failed: ${RETRIEVE_EF_REPLY}"
  exit 1
fi

# troubleshoot: RCA verdicts plus the supporting evidence docs.
if ! grep -Eq '"ok": ?true' <<<"${TROUBLESHOOT_REPLY}" \
    || ! grep -q '"results"' <<<"${TROUBLESHOOT_REPLY}" \
    || ! grep -q '"docs"' <<<"${TROUBLESHOOT_REPLY}"; then
  echo "retrieval smoke: troubleshoot failed: ${TROUBLESHOOT_REPLY}"
  exit 1
fi
if ! grep -q "\"trace\": *\"${TROUBLE_TRACE}\"" <<<"${TROUBLESHOOT_REPLY}"; then
  echo "retrieval smoke: troubleshoot reply lost its trace id: ${TROUBLESHOOT_REPLY}"
  exit 1
fi
SPANZ=$(curl -sf -m 2 \
  "http://127.0.0.1:${RETR_ADMIN_PORT}/spanz?trace_id=${TROUBLE_TRACE}")
if ! grep -q '"index/search"' <<<"${SPANZ}" \
    || ! grep -q '"serve/troubleshoot"' <<<"${SPANZ}"; then
  echo "retrieval smoke: span chain missing index/search or serve/troubleshoot: ${SPANZ}"
  exit 1
fi

# Per-op latency histograms must land in the Prometheus exposition.
RETR_METRICS=$(curl -sf -m 2 "http://127.0.0.1:${RETR_ADMIN_PORT}/metrics")
if ! grep -q '^telekit_serve_retrieve_request_ms_count' <<<"${RETR_METRICS}" \
    || ! grep -q '^telekit_serve_troubleshoot_request_ms_count' <<<"${RETR_METRICS}" \
    || ! grep -q '^telekit_index_size' <<<"${RETR_METRICS}"; then
  echo "retrieval smoke: per-op retrieval metrics missing from /metrics"
  exit 1
fi

# Warm restart: the second process must load the snapshot the first one
# wrote instead of rebuilding (near-zero build time, same answers).
stop_daemons
if [[ ! -s "${INDEX_SNAPSHOT}" ]]; then
  echo "retrieval smoke: --index-path snapshot was never written"
  exit 1
fi
start_daemon "${SMOKE_DIR}/retrieval_warm.log" "${RETR_SERVE[@]}"
wait_ready "retrieval smoke" "http://127.0.0.1:${RETR_ADMIN_PORT}/readyz" 60 1
RETR_STATUSZ=$(curl -sf -m 2 "http://127.0.0.1:${RETR_ADMIN_PORT}/statusz")
if ! grep -q '"loaded_from_snapshot": true' <<<"${RETR_STATUSZ}"; then
  echo "retrieval smoke: warm start did not load snapshot: ${RETR_STATUSZ}"
  exit 1
fi
WARM_BUILD_MS=$(sed -n 's/.*"build_ms": \([0-9.]*\).*/\1/p' <<<"${RETR_STATUSZ}" | head -1)
if [[ -z "${WARM_BUILD_MS}" ]] || ! awk -v ms="${WARM_BUILD_MS}" \
    'BEGIN { exit (ms < 50) ? 0 : 1 }'; then
  echo "retrieval smoke: warm-start build_ms=${WARM_BUILD_MS}, want near zero"
  exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/${RETR_PORT}"
printf '{"op": "retrieve", "text": "kpi deviation after alarm storm on core site", "top_k": 5}\n' >&3
IFS= read -r WARM_REPLY <&3 || true
exec 3<&- 3>&-
if ! grep -Eq '"ok": ?true' <<<"${WARM_REPLY}" \
    || [[ "$(grep -o '"doc_id"' <<<"${WARM_REPLY}" | wc -l)" -ne 5 ]]; then
  echo "retrieval smoke: warm-start retrieve failed: ${WARM_REPLY}"
  exit 1
fi

stop_daemons
echo "retrieval smoke: OK (retrieve + ef_search override + troubleshoot," \
  "span chain visible, snapshot warm start build_ms=${WARM_BUILD_MS})"

echo "== [9/11] streamd replay smoke =="
STREAMD_ADMIN_PORT=18475
# Unpaced deterministic replay of a small seeded stream; --linger keeps the
# admin server up after the replay finishes so /statusz can be scraped
# without racing the run.
start_daemon "${SMOKE_DIR}/streamd.log" ./build/src/stream/telekit_streamd \
  --seed=4242 --episodes=6 --admin-port="${STREAMD_ADMIN_PORT}" \
  --workers=2 --compute-threads=2 --linger

# Wait until the replay reports itself done through /statusz.
STATUSZ_URL="http://127.0.0.1:${STREAMD_ADMIN_PORT}/statusz"
wait_ready "streamd smoke" "${STATUSZ_URL}" 120 1 '"done": true'
STREAM_STATUS=$(curl -sf -m 2 "${STATUSZ_URL}")
EPISODES=$(sed -n 's/.*"episodes": \([0-9]*\).*/\1/p' <<<"${STREAM_STATUS}")
LATE=$(sed -n 's/.*"late_drops": \([0-9]*\).*/\1/p' <<<"${STREAM_STATUS}")
if [[ -z "${EPISODES}" || "${EPISODES}" -eq 0 ]]; then
  echo "streamd smoke: /statusz reports no flushed episodes: ${STREAM_STATUS}"
  exit 1
fi
if [[ -z "${LATE}" || "${LATE}" -ne 0 ]]; then
  echo "streamd smoke: /statusz reports late drops: ${STREAM_STATUS}"
  exit 1
fi
STREAM_METRICS=$(curl -sf -m 2 "http://127.0.0.1:${STREAMD_ADMIN_PORT}/metrics")
for metric in telekit_stream_episodes telekit_serve_rca_requests \
    telekit_serve_eap_requests telekit_serve_fct_requests; do
  if ! grep -q "${metric}" <<<"${STREAM_METRICS}"; then
    echo "streamd smoke: /metrics missing ${metric}"
    exit 1
  fi
done
stop_daemons
echo "streamd smoke: OK (${EPISODES} episodes, 0 late drops, per-op serve metrics live)"

echo "== [10/11] router fleet smoke =="
REP1_PORT=18476; REP1_ADMIN=18477
REP2_PORT=18478; REP2_ADMIN=18479
ROUTER_PORT=18480; ROUTER_ADMIN=18481
ROUTER_REQLOG="${SMOKE_DIR}/router_requests.ndjson"
start_daemon "${SMOKE_DIR}/replica1.log" ./build/src/serve/telekit_serve \
  --port="${REP1_PORT}" --admin-port="${REP1_ADMIN}" --workers=2 \
  --compute-threads=2
start_daemon "${SMOKE_DIR}/replica2.log" ./build/src/serve/telekit_serve \
  --port="${REP2_PORT}" --admin-port="${REP2_ADMIN}" --workers=2 \
  --compute-threads=2
REP2_PID=${LAST_PID}
wait_ready "router smoke" "http://127.0.0.1:${REP1_ADMIN}/readyz" 60 1
wait_ready "router smoke" "http://127.0.0.1:${REP2_ADMIN}/readyz" 60 1

start_daemon "${SMOKE_DIR}/router.log" ./build/src/route/telekit_router \
  --port="${ROUTER_PORT}" --admin-port="${ROUTER_ADMIN}" \
  --replica="${REP1_PORT}:${REP1_ADMIN}" \
  --replica="${REP2_PORT}:${REP2_ADMIN}" \
  --probe-interval-ms=100 --eject-after=2 --readmit-after=2 \
  --request-log="${ROUTER_REQLOG}"
ROUTER_PID=${LAST_PID}
wait_ready "router smoke" "http://127.0.0.1:${ROUTER_ADMIN}/readyz" 30 0.5

# Both replicas must be routable before the chaos starts, and each entry
# must carry its probe telemetry (probe freshness + failure streak).
FLEETZ=$(curl -sf -m 2 "http://127.0.0.1:${ROUTER_ADMIN}/fleetz")
if ! grep -q '"routable": 2' <<<"${FLEETZ}"; then
  echo "router smoke: /fleetz does not show 2 routable replicas: ${FLEETZ}"
  exit 1
fi
for field in last_probe_ms consecutive_failures; do
  if ! grep -q "\"${field}\"" <<<"${FLEETZ}"; then
    echo "router smoke: /fleetz missing per-replica ${field}: ${FLEETZ}"
    exit 1
  fi
done

# Traced traffic through the routed NDJSON path: every reply must be ok
# and carry the router's attribution stamp.
route_burst() {  # route_burst <count> -> echoes number of ok replies
  local count=$1 ok=0 reply
  exec 4<>"/dev/tcp/127.0.0.1/${ROUTER_PORT}"
  for i in $(seq 1 "${count}"); do
    printf '{"op": "rca", "text": "bgp flap on edge %s", "trace": true}\n' \
      "${i}" >&4
    IFS= read -r reply <&4 || break
    grep -Eq '"ok": ?true' <<<"${reply}" && ok=$((ok + 1))
  done
  exec 4<&- 4>&-
  echo "${ok}"
}
OK_BEFORE=$(route_burst 10)
if [[ "${OK_BEFORE}" -ne 10 ]]; then
  echo "router smoke: pre-kill traffic lost requests (${OK_BEFORE}/10)"
  exit 1
fi

# Retrieval ops ride the same routed path: the router keys on the query
# text, the replica answers from its own index.
retrieval_burst() {  # echoes number of ok retrieval replies (max 2)
  local ok=0 reply
  exec 4<>"/dev/tcp/127.0.0.1/${ROUTER_PORT}"
  printf '{"op": "retrieve", "text": "kpi deviation on core site", "top_k": 3}\n' >&4
  IFS= read -r reply <&4 || true
  if grep -Eq '"ok": ?true' <<<"${reply}" && grep -q '"docs"' <<<"${reply}"; then
    ok=$((ok + 1))
  fi
  printf '{"op": "troubleshoot", "text": "degradation after alarm storm", "top_k": 3}\n' >&4
  IFS= read -r reply <&4 || true
  if grep -Eq '"ok": ?true' <<<"${reply}" && grep -q '"results"' <<<"${reply}"; then
    ok=$((ok + 1))
  fi
  exec 4<&- 4>&-
  echo "${ok}"
}
RETRIEVAL_OK=$(retrieval_burst)
if [[ "${RETRIEVAL_OK}" -ne 2 ]]; then
  echo "router smoke: routed retrieve/troubleshoot failed (${RETRIEVAL_OK}/2)"
  exit 1
fi

# Fleet metrics aggregation: with both replicas idle after the burst, the
# fleet-wide rca counter must equal the sum of the per-replica counters.
FLEETMETRICZ=$(curl -sf -m 5 "http://127.0.0.1:${ROUTER_ADMIN}/fleetmetricz")
if ! grep -q '^telekit_fleet_replicas 2' <<<"${FLEETMETRICZ}"; then
  echo "router smoke: /fleetmetricz does not report 2 replicas"
  exit 1
fi
UP_COUNT=$(grep -c '^telekit_fleet_replica_up{replica="[^"]*"} 1' \
  <<<"${FLEETMETRICZ}" || true)
if [[ "${UP_COUNT}" -ne 2 ]]; then
  echo "router smoke: /fleetmetricz does not show both replicas up (${UP_COUNT})"
  exit 1
fi
REP1_RCA=$(curl -sf -m 2 "http://127.0.0.1:${REP1_ADMIN}/metrics" \
  | sed -n 's/^telekit_serve_rca_requests \([0-9.]*\).*/\1/p')
REP2_RCA=$(curl -sf -m 2 "http://127.0.0.1:${REP2_ADMIN}/metrics" \
  | sed -n 's/^telekit_serve_rca_requests \([0-9.]*\).*/\1/p')
FLEET_RCA=$(sed -n 's/^telekit_serve_rca_requests \([0-9.]*\).*/\1/p' \
  <<<"${FLEETMETRICZ}")
if ! awk -v a="${REP1_RCA:-0}" -v b="${REP2_RCA:-0}" -v f="${FLEET_RCA:-x}" \
    'BEGIN { exit (f == a + b && f > 0) ? 0 : 1 }'; then
  echo "router smoke: /fleetmetricz rca counter ${FLEET_RCA} != ${REP1_RCA} + ${REP2_RCA}"
  exit 1
fi

# SIGKILL one replica mid-fleet: traffic must keep succeeding via retry
# failover, and the ejection must land in the router's /metrics.
kill -9 "${REP2_PID}"

# Fire a spread of traced keys immediately — before the prober ejects the
# dead replica — so at least one request fails its first hop and retries.
exec 4<>"/dev/tcp/127.0.0.1/${ROUTER_PORT}"
for i in $(seq 1 12); do
  TRACE_HEX=$(printf '%016x' $((0xfeed0000 + i)))
  printf '{"op": "rca", "text": "link down on rack %s", "trace": "%s"}\n' \
    "${i}" "${TRACE_HEX}" >&4
  IFS= read -r _ <&4 || break
done
exec 4<&- 4>&-
# /tracezd assembles router attempt spans with the live replica's serve
# spans (scraped over /spanz); the retried request shows up as >= 2 hops
# with the losing hop marked failed.
MULTI_HOP_TRACE=""
TRACEZD=""
for i in $(seq 1 12); do
  TRACE_HEX=$(printf '%016x' $((0xfeed0000 + i)))
  TRACEZD=$(curl -sf -m 5 \
    "http://127.0.0.1:${ROUTER_ADMIN}/tracezd?trace_id=${TRACE_HEX}" || true)
  HOPS=$(sed -n 's/.*"hops": \([0-9]*\).*/\1/p' <<<"${TRACEZD}")
  if [[ -n "${HOPS}" && "${HOPS}" -ge 2 ]]; then
    MULTI_HOP_TRACE="${TRACE_HEX}"
    break
  fi
done
if [[ -z "${MULTI_HOP_TRACE}" ]]; then
  echo "router smoke: no traced request assembled a multi-hop retry trace"
  exit 1
fi
if ! grep -q '"outcome": "failed"' <<<"${TRACEZD}"; then
  echo "router smoke: multi-hop trace has no failed hop: ${TRACEZD}"
  exit 1
fi
if ! grep -q '"name": "serve/request"' <<<"${TRACEZD}"; then
  echo "router smoke: trace is missing the replica serve span: ${TRACEZD}"
  exit 1
fi
CHROME=$(curl -sf -m 5 "http://127.0.0.1:${ROUTER_ADMIN}/tracezd?trace_id=${MULTI_HOP_TRACE}&format=chrome")
if ! grep -q '"traceEvents"' <<<"${CHROME}"; then
  echo "router smoke: chrome trace export failed: ${CHROME}"
  exit 1
fi

OK_AFTER=$(route_burst 20)
if [[ "${OK_AFTER}" -ne 20 ]]; then
  echo "router smoke: post-kill traffic lost requests (${OK_AFTER}/20)"
  exit 1
fi
EJECTED=0
for _ in $(seq 1 30); do
  ROUTE_METRICS=$(curl -sf -m 2 "http://127.0.0.1:${ROUTER_ADMIN}/metrics")
  EJECTED=$(sed -n 's/^telekit_route_ejections \([0-9]*\).*/\1/p' \
    <<<"${ROUTE_METRICS}")
  [[ -n "${EJECTED}" && "${EJECTED}" -ge 1 ]] && break
  sleep 0.2
done
if [[ -z "${EJECTED}" || "${EJECTED}" -lt 1 ]]; then
  echo "router smoke: ejection never reached /metrics"
  exit 1
fi

# Hot reload fan-out through the router (the dead replica reports an
# error entry, the live one accepts): traffic across the swap must not
# fail, and a response must eventually carry the new generation.
RELOADZ=$(curl -sf -m 5 \
  "http://127.0.0.1:${ROUTER_ADMIN}/reloadz?model=telebert&seed=4343")
if ! grep -q '"status"' <<<"${RELOADZ}"; then
  echo "router smoke: /reloadz fan-out returned no replica statuses: ${RELOADZ}"
  exit 1
fi
GEN2_SEEN=0
for _ in $(seq 1 60); do
  OK_RELOAD=$(route_burst 5)
  if [[ "${OK_RELOAD}" -ne 5 ]]; then
    echo "router smoke: traffic failed during hot reload (${OK_RELOAD}/5)"
    exit 1
  fi
  RETRIEVAL_RELOAD=$(retrieval_burst)
  if [[ "${RETRIEVAL_RELOAD}" -ne 2 ]]; then
    echo "router smoke: retrieval failed during hot reload (${RETRIEVAL_RELOAD}/2)"
    exit 1
  fi
  exec 4<>"/dev/tcp/127.0.0.1/${ROUTER_PORT}"
  printf '{"op": "encode", "text": "post reload probe"}\n' >&4
  IFS= read -r RELOAD_REPLY <&4 || true
  exec 4<&- 4>&-
  if grep -Eq '"generation": ?2' <<<"${RELOAD_REPLY}"; then
    GEN2_SEEN=1
    break
  fi
  sleep 0.5
done
if [[ "${GEN2_SEEN}" -ne 1 ]]; then
  echo "router smoke: reload never produced a generation-2 response"
  exit 1
fi

# Drain: /quitquitquit answers, then the router exits on its own.
DRAIN=$(curl -sf -m 2 "http://127.0.0.1:${ROUTER_ADMIN}/quitquitquit")
if ! grep -q draining <<<"${DRAIN}"; then
  echo "router smoke: /quitquitquit did not acknowledge: ${DRAIN}"
  exit 1
fi
for _ in $(seq 1 30); do
  kill -0 "${ROUTER_PID}" 2>/dev/null || break
  sleep 0.5
done
if kill -0 "${ROUTER_PID}" 2>/dev/null; then
  echo "router smoke: router did not exit after /quitquitquit"
  exit 1
fi
stop_daemons

# The router's wide-event request log must be valid NDJSON and carry the
# routed attribution fields alongside the serve-side shape.
if [[ ! -s "${ROUTER_REQLOG}" ]]; then
  echo "router smoke: router --request-log sink is empty"
  exit 1
fi
if ! ./build/src/obs/telekit_jsonlint <"${ROUTER_REQLOG}"; then
  echo "router smoke: router --request-log NDJSON failed jsonlint"
  exit 1
fi
if ! grep -q '"attempts"' "${ROUTER_REQLOG}"; then
  echo "router smoke: router request log has no routed attempts field"
  exit 1
fi
echo "router smoke: OK (fleet healthy + probe telemetry, fleet metrics sum," \
  "kill survived, retry trace assembled via /tracezd, ejection exported," \
  "hot reload zero-failure, drain clean, request log lints)"

echo "== [11/11] ASan+UBSan (tensor + autograd + core + pretrain + zoo + serve + text + index + stream + route) =="
ASAN_SUITES=(tensor_test autograd_test core_test pretrain_test zoo_test
             serve_test text_test index_test stream_test route_test)
cmake -B build_asan -S . -DTELEKIT_ASAN=ON
cmake --build build_asan -j --target "${ASAN_SUITES[@]}"
for suite in "${ASAN_SUITES[@]}"; do
  TELEKIT_COMPUTE_THREADS=4 "./build_asan/tests/${suite}" --gtest_brief=1
done

if [[ "${TELEKIT_TSAN:-0}" == "1" ]]; then
  echo "== [tsan] ThreadSanitizer pass (tensor + serve + stream + route + index + obs + admin) =="
  cmake -B build_tsan -S . -DTELEKIT_TSAN=ON
  cmake --build build_tsan -j --target \
    tensor_test serve_test stream_test route_test index_test obs_test \
    obs_admin_test obs_timeseries_test
  TELEKIT_COMPUTE_THREADS=4 ./build_tsan/tests/tensor_test --gtest_brief=1
  TELEKIT_COMPUTE_THREADS=4 ./build_tsan/tests/serve_test --gtest_brief=1
  TELEKIT_COMPUTE_THREADS=4 ./build_tsan/tests/index_test --gtest_brief=1
  TELEKIT_COMPUTE_THREADS=4 ./build_tsan/tests/stream_test --gtest_brief=1
  TELEKIT_COMPUTE_THREADS=4 ./build_tsan/tests/route_test --gtest_brief=1
  ./build_tsan/tests/obs_test --gtest_brief=1
  ./build_tsan/tests/obs_admin_test --gtest_brief=1
  ./build_tsan/tests/obs_timeseries_test --gtest_brief=1
fi

echo "check_tier1: OK"
