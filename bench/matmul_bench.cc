// matmul_bench: intra-op ComputePool scaling on square GEMMs, plus the
// SIMD and int8 single-thread sweeps.
//
// Sweeps compute_threads over {1, 2, 4, 8} on square MatMuls (>= 256) and
// records throughput + speedup-vs-1-thread into BENCH_serve.json under
// "matmul_scaling" (merging with an existing report, so serve_loadgen and
// this bench share one artifact). Also asserts that every thread count
// produces bit-identical outputs — the ComputePool determinism contract.
//
// The "simd" section compares the scalar kernel backend against the
// runtime-detected vector backend (AVX2/NEON) at one thread: a GEMM
// GFLOP/s sweep, the served fp32 encoder forward (InferCls), and the
// fp32-vs-int8 comparison of the two serving forwards.
//
// Exit code 1 when a gate applies and fails:
//   - >= 4 hardware threads but 4-thread speedup < 2.5x;
//   - a vector backend is available but the single-thread encode speedup
//     over scalar is < 1.5x.
// On hosts where a gate cannot apply (no parallelism / no vector unit)
// the sweep still records honest numbers and the gate reports "skipped".
//
// Flags: see --help.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flag_parse.h"
#include "core/qencode.h"
#include "core/transformer.h"
#include "tensor/compute_pool.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"

namespace telekit {
namespace bench {
namespace {

constexpr int kSizes[] = {256, 384, 512};
constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr double kGateSpeedup = 2.5;
constexpr int kGateThreads = 4;
constexpr double kGateEncodeSpeedup = 1.5;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

tensor::Tensor RandomMatrix(int n, uint64_t seed) {
  Rng rng(seed);
  return tensor::Tensor::Rand({n, n}, rng, -1.0f, 1.0f);
}

struct SizeResult {
  int size = 0;
  // Indexed like kThreadCounts.
  std::vector<double> gflops;
  std::vector<double> speedup;
  bool bit_identical = true;
};

SizeResult BenchSize(int n, int iters_flag) {
  tensor::NoGradGuard no_grad;
  const tensor::Tensor a = RandomMatrix(n, 0x5eed0000u + n);
  const tensor::Tensor b = RandomMatrix(n, 0xfeed0000u + n);
  const double flops_per_mm = 2.0 * n * n * static_cast<double>(n);

  SizeResult result;
  result.size = n;

  // Calibrate the iteration count at 1 thread so each measurement runs
  // ~0.3 s regardless of host speed.
  tensor::SetComputeThreads(1);
  const double t0 = NowSeconds();
  std::vector<float> reference = tensor::MatMul(a, b).data();
  const double once = std::max(NowSeconds() - t0, 1e-6);
  const int iters =
      iters_flag > 0 ? iters_flag
                     : std::max(3, static_cast<int>(std::lround(0.3 / once)));

  for (int threads : kThreadCounts) {
    tensor::SetComputeThreads(threads);
    tensor::Tensor warm = tensor::MatMul(a, b);  // spawn workers off-clock
    if (warm.data() != reference) result.bit_identical = false;
    const double start = NowSeconds();
    for (int it = 0; it < iters; ++it) {
      tensor::Tensor c = tensor::MatMul(a, b);
      if (c.data() != reference) result.bit_identical = false;
    }
    const double elapsed = std::max(NowSeconds() - start, 1e-9);
    result.gflops.push_back(flops_per_mm * iters / elapsed / 1e9);
    result.speedup.push_back(result.gflops.back() / result.gflops.front());
  }
  return result;
}

// Times `fn` with an auto-calibrated iteration count (~0.3 s per
// measurement) and returns seconds per call.
template <typename Fn>
double TimePerCall(const Fn& fn, int iters_flag) {
  const double t0 = NowSeconds();
  fn();
  const double once = std::max(NowSeconds() - t0, 1e-6);
  const int iters =
      iters_flag > 0 ? iters_flag
                     : std::max(3, static_cast<int>(std::lround(0.3 / once)));
  const double start = NowSeconds();
  for (int it = 0; it < iters; ++it) fn();
  return std::max(NowSeconds() - start, 1e-9) / iters;
}

// Scalar-vs-vector GEMM sweep at one thread. Returns the "gemm" rows.
obs::JsonValue BenchSimdGemm(tensor::simd::Backend vector_backend,
                             int iters_flag) {
  tensor::NoGradGuard no_grad;
  tensor::SetComputeThreads(1);
  obs::JsonValue rows = obs::JsonValue::Array();
  std::printf("%6s %14s %14s %8s\n", "size", "scalar GFLOP/s",
              "vector GFLOP/s", "speedup");
  for (int n : kSizes) {
    const tensor::Tensor a = RandomMatrix(n, 0x51u + n);
    const tensor::Tensor b = RandomMatrix(n, 0x52u + n);
    const double flops = 2.0 * n * n * static_cast<double>(n);
    tensor::simd::ForceBackend(tensor::simd::Backend::kScalar);
    const double scalar_s =
        TimePerCall([&] { tensor::MatMul(a, b); }, iters_flag);
    tensor::simd::ForceBackend(vector_backend);
    const double vector_s =
        TimePerCall([&] { tensor::MatMul(a, b); }, iters_flag);
    const double speedup = scalar_s / vector_s;
    std::printf("%6d %14.2f %14.2f %8.2f\n", n, flops / scalar_s / 1e9,
                flops / vector_s / 1e9, speedup);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("size", obs::JsonValue(n));
    row.Set("scalar_gflops", obs::JsonValue(flops / scalar_s / 1e9));
    row.Set("vector_gflops", obs::JsonValue(flops / vector_s / 1e9));
    row.Set("speedup", obs::JsonValue(speedup));
    rows.Append(std::move(row));
  }
  return rows;
}

// The serve encode path in miniature: the served encoder forward on one
// max-length sequence, single-threaded. This is the gated measurement —
// the SIMD layer earns its keep here, not just on square GEMMs.
core::EncoderConfig EncodeBenchConfig() {
  core::EncoderConfig config;
  config.vocab_size = 512;
  config.d_model = 128;
  config.num_heads = 4;
  config.num_layers = 4;
  config.ffn_dim = 256;
  config.max_len = 64;
  config.dropout = 0.0f;
  return config;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  int iters = 0;  // 0 = auto
  FlagSet flags("matmul_bench");
  flags.String("out=PATH", &out_path,
               "report file (default BENCH_serve.json)");
  flags.Int("iters=N", &iters, 1, 1 << 30,
            "timed calls per cell (default: auto)");
  ObsSession obs_session(argc, argv, &flags);

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("matmul_bench: hardware_concurrency=%d\n", hw);
  std::printf("%6s %8s", "size", "threads:");
  for (int t : kThreadCounts) std::printf(" %8d", t);
  std::printf("\n");

  obs::JsonValue sizes_json = obs::JsonValue::Array();
  bool all_identical = true;
  double gate_speedup = 0.0;
  for (int n : kSizes) {
    const SizeResult r = BenchSize(n, iters);
    all_identical = all_identical && r.bit_identical;
    std::printf("%6d %8s", n, "GFLOP/s");
    for (double g : r.gflops) std::printf(" %8.2f", g);
    std::printf("\n%6s %8s", "", "speedup");
    for (double s : r.speedup) std::printf(" %8.2f", s);
    std::printf("  bit-identical=%s\n", r.bit_identical ? "yes" : "NO");

    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("size", obs::JsonValue(r.size));
    obs::JsonValue per_thread = obs::JsonValue::Array();
    for (size_t i = 0; i < r.gflops.size(); ++i) {
      obs::JsonValue cell = obs::JsonValue::Object();
      cell.Set("threads", obs::JsonValue(kThreadCounts[i]));
      cell.Set("gflops", obs::JsonValue(r.gflops[i]));
      cell.Set("speedup_vs_1", obs::JsonValue(r.speedup[i]));
      per_thread.Append(std::move(cell));
    }
    row.Set("runs", std::move(per_thread));
    row.Set("bit_identical", obs::JsonValue(r.bit_identical));
    sizes_json.Append(std::move(row));
    for (size_t i = 0; i < r.speedup.size(); ++i) {
      if (kThreadCounts[i] == kGateThreads) {
        gate_speedup = std::max(gate_speedup, r.speedup[i]);
      }
    }
  }
  // --- SIMD sweeps: scalar vs vector backend at one thread ---------------
  const tensor::simd::Backend entry_backend = tensor::simd::ActiveBackend();
  const tensor::simd::Backend vector_backend = tensor::simd::DetectBackend();
  const bool have_vector = vector_backend != tensor::simd::Backend::kScalar;
  std::printf("matmul_bench: simd backend=%s\n",
              tensor::simd::BackendName(vector_backend));

  obs::JsonValue simd_section = obs::JsonValue::Object();
  simd_section.Set("backend",
                   obs::JsonValue(std::string(
                       tensor::simd::BackendName(vector_backend))));
  simd_section.Set("gemm", BenchSimdGemm(vector_backend, iters));

  double encode_speedup = 0.0;
  double int8_speedup = 0.0;
  {
    tensor::SetComputeThreads(1);
    const core::EncoderConfig config = EncodeBenchConfig();
    Rng init_rng(0x51dee5eedULL);
    const core::TransformerEncoder encoder(config, init_rng);
    std::vector<int> ids(config.max_len);
    for (int i = 0; i < config.max_len; ++i) {
      ids[i] = 1 + static_cast<int>(init_rng.UniformInt(
                       static_cast<int64_t>(config.vocab_size - 1)));
    }
    // The served fp32 forward (what TeleBert::ServiceVector runs), so the
    // int8 ratio below compares the two serving paths.
    std::vector<float> cls(static_cast<size_t>(config.d_model));
    const auto encode_once = [&] {
      encoder.InferCls(ids, config.max_len, {}, cls.data());
    };
    tensor::simd::ForceBackend(tensor::simd::Backend::kScalar);
    const double scalar_s = TimePerCall(encode_once, iters);
    tensor::simd::ForceBackend(vector_backend);
    const double vector_s = TimePerCall(encode_once, iters);
    encode_speedup = scalar_s / vector_s;

    // fp32 vs int8 on the same weights and sequence (vector backend).
    const core::QuantizedEncoder quantized(encoder);
    text::EncodedInput input;
    input.ids = ids;
    input.length = config.max_len;
    const double int8_s =
        TimePerCall([&] { quantized.Encode(input); }, iters);
    int8_speedup = vector_s / int8_s;

    obs::JsonValue encode = obs::JsonValue::Object();
    encode.Set("scalar_ms", obs::JsonValue(scalar_s * 1e3));
    encode.Set("vector_ms", obs::JsonValue(vector_s * 1e3));
    encode.Set("speedup", obs::JsonValue(encode_speedup));
    encode.Set("gate_min_speedup", obs::JsonValue(kGateEncodeSpeedup));
    encode.Set("gate",
               obs::JsonValue(std::string(
                   !have_vector
                       ? "skipped (no vector backend on this host)"
                       : (encode_speedup >= kGateEncodeSpeedup ? "pass"
                                                               : "fail"))));
    simd_section.Set("encode", std::move(encode));

    obs::JsonValue int8_json = obs::JsonValue::Object();
    int8_json.Set("fp32_ms", obs::JsonValue(vector_s * 1e3));
    int8_json.Set("int8_ms", obs::JsonValue(int8_s * 1e3));
    int8_json.Set("speedup_vs_fp32", obs::JsonValue(int8_speedup));
    simd_section.Set("int8_encode", std::move(int8_json));

    std::printf(
        "encode: scalar %.3f ms, %s %.3f ms (%.2fx); int8 %.3f ms "
        "(%.2fx vs fp32)\n",
        scalar_s * 1e3, tensor::simd::BackendName(vector_backend),
        vector_s * 1e3, encode_speedup, int8_s * 1e3, int8_speedup);
  }
  tensor::simd::ForceBackend(entry_backend);  // undo the sweep's forcing
  tensor::SetComputeThreads(0);  // restore the env/hardware default

  const bool gate_applies = hw >= kGateThreads;
  const bool gate_ok = gate_speedup >= kGateSpeedup;
  obs::JsonValue section = obs::JsonValue::Object();
  section.Set("hardware_concurrency", obs::JsonValue(hw));
  section.Set("sizes", std::move(sizes_json));
  section.Set("bit_identical_across_threads", obs::JsonValue(all_identical));
  section.Set("best_speedup_at_4_threads", obs::JsonValue(gate_speedup));
  section.Set("gate_min_speedup", obs::JsonValue(kGateSpeedup));
  section.Set("gate", obs::JsonValue(std::string(
                          !gate_applies ? "skipped (host has < 4 hardware "
                                          "threads; no real parallelism "
                                          "available)"
                                        : (gate_ok ? "pass" : "fail"))));

  // Merge into the shared serve benchmark artifact instead of clobbering
  // whatever serve_loadgen already wrote there.
  MergeJsonSection(out_path, "matmul_scaling", std::move(section));
  MergeJsonSection(out_path, "simd", std::move(simd_section));
  const bool encode_gate_ok = encode_speedup >= kGateEncodeSpeedup;
  std::printf(
      "matmul_bench: wrote %s (4-thread speedup %.2fx, gate %s; "
      "simd encode speedup %.2fx, gate %s)\n",
      out_path.c_str(), gate_speedup,
      !gate_applies ? "skipped: <4 hardware threads"
                    : (gate_ok ? "pass" : "FAIL"),
      encode_speedup,
      !have_vector ? "skipped: no vector backend"
                   : (encode_gate_ok ? "pass" : "FAIL"));
  if (!all_identical) {
    std::fprintf(stderr,
                 "matmul_bench: outputs differ across thread counts\n");
    return 1;
  }
  if (have_vector && !encode_gate_ok) {
    std::fprintf(stderr,
                 "matmul_bench: simd encode speedup %.2fx below the %.1fx "
                 "gate\n",
                 encode_speedup, kGateEncodeSpeedup);
    return 1;
  }
  return gate_applies && !gate_ok ? 1 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace telekit

int main(int argc, char** argv) { return telekit::bench::Main(argc, argv); }
