#ifndef TELEKIT_TENSOR_SIMD_H_
#define TELEKIT_TENSOR_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace telekit {
namespace tensor {
namespace simd {

/// Vector backends for the hot float kernels (DESIGN.md §3). One backend
/// is chosen per process: AVX2(+FMA) on x86-64 when the CPU reports it,
/// NEON on AArch64, scalar otherwise. The TELEKIT_SIMD environment
/// variable overrides detection (see ConfigureFromEnv below); tests and
/// benches can switch in-process with ForceBackend.
enum class Backend { kScalar, kAvx2, kNeon };

/// The backend the kernels below currently dispatch to. Resolved once on
/// first use (cpuid / feature detection + TELEKIT_SIMD); cheap to call.
Backend ActiveBackend();

/// "scalar" | "avx2" | "neon".
const char* BackendName(Backend backend);
const char* ActiveBackendName();

/// True when a vector backend (not scalar) is active.
bool Enabled();

/// Highest backend this build + CPU supports (ignores TELEKIT_SIMD).
Backend DetectBackend();

/// Test/bench hook: installs `backend` process-wide, falling back to
/// scalar when the CPU lacks it. Returns the backend actually installed.
/// Not thread-safe against concurrent kernel calls; call it only from
/// single-threaded setup code (tests, bench harnesses).
Backend ForceBackend(Backend backend);

/// Parses a TELEKIT_SIMD value: "on" | "1" | "auto" | "" -> detect,
/// "off" | "0" | "scalar" -> scalar, "avx2" / "neon" -> that backend
/// (false when unsupported by this build + CPU). Any other value returns
/// false. Used by the startup path; exposed for tests.
bool ParseSimdEnv(const char* value, Backend* backend);

// --- Float kernels -----------------------------------------------------------
//
// Each kernel is a pure function of its operands: for a fixed backend the
// result depends only on the inputs (never on thread count or call site),
// which preserves the ComputePool bit-identical-across-threads contract.
// Per-element ops (Add/Sub/Mul/Scale/AddScalar/Relu, Axpy) are bit-exact
// across backends except where FMA fuses the multiply-add rounding (Axpy);
// reductions (Dot, ReduceSum, ReduceSumSqDiff) reassociate the sum into
// vector lanes and agree with scalar only within float round-off.

/// y[i] += alpha * x[i].
void Axpy(float alpha, const float* x, float* y, int n);

/// sum_i a[i] * b[i].
float Dot(const float* a, const float* b, int n);

/// max_i x[i]; n must be >= 1.
float ReduceMax(const float* x, int n);

/// sum_i x[i].
float ReduceSum(const float* x, int n);

/// sum_i (x[i] - mean)^2.
float ReduceSumSqDiff(const float* x, float mean, int n);

/// out[i] = a[i] + b[i] (out may alias a or b).
void Add(const float* a, const float* b, float* out, int n);
/// out[i] = a[i] - b[i].
void Sub(const float* a, const float* b, float* out, int n);
/// out[i] = a[i] * b[i].
void Mul(const float* a, const float* b, float* out, int n);

/// out[i] = x[i] * alpha (out may alias x).
void ScaleTo(const float* x, float alpha, float* out, int n);
/// out[i] = x[i] + c.
void AddScalarTo(const float* x, float c, float* out, int n);
/// out[i] = max(x[i], 0).
void ReluTo(const float* x, float* out, int n);

/// Layer-norm epilogue: xhat[i] = (x[i] - mean) * istd and
/// out[i] = xhat[i] * gain[i] + bias[i]. `xhat` may be null when the
/// normalized activations are not needed (inference).
void NormalizeAffine(const float* x, float mean, float istd,
                     const float* gain, const float* bias, float* xhat,
                     float* out, int n);

// --- Approximate transcendental kernels --------------------------------------
//
// They replace per-element libm calls with one polynomial approximation
// that every backend evaluates in the same steps, so backends differ only
// where a vector backend fuses a multiply-add. Each result is within a
// stated bound of the double-precision function (DESIGN.md §3.1), and is a
// function of its own element alone: never of n or of the element's
// position, so a row gives the same bits whole or in chunks.

/// out[i] = exp(x[i]), for softmax rows after the max shift. Relative
/// error <= kExpMaxRelError for x in [kExpMin, kExpMax]; x < kExpMin
/// gives +0 (the true value is below FLT_MIN), x > kExpMax and +inf give
/// +inf, NaN stays NaN. out may alias x.
void Exp(const float* x, float* out, int n);
constexpr float kExpMin = -87.33654f;  // ln FLT_MIN
constexpr float kExpMax = 88.37626f;   // 127.5 ln 2
constexpr double kExpMaxRelError = 1.5e-7;

/// GELU, tanh approximation as in BERT:
///   out[i] = 0.5 x (1 + tanh(u)),  u = sqrt(2/pi) (x + 0.044715 x^3),
/// evaluated as x * sigmoid(2u) on Exp's polynomial. Absolute error
/// <= kGeluMaxAbsError against that formula in double precision, for
/// every finite x (libm's tanhf gives 4.4e-7); +inf gives +inf, -inf
/// gives +0 (the limit), NaN stays NaN. `tanh_u`, when not null, receives
/// tanh(u) as 2 sigmoid(2u) - 1, within the same bound: the term GELU's
/// backward needs. out may alias x.
void Gelu(const float* x, float* out, float* tanh_u, int n);
constexpr double kGeluMaxAbsError = 6e-7;

// --- Training loops -----------------------------------------------------------
//
// Per-element steps of the backward passes and the optimizer. Each kernel
// runs its scalar loop's operations on every element in that loop's order,
// rounding after each one; the vector forms are compiled without FMA, so
// no multiply-add is fused. Every backend therefore gives the scalar
// loop's bits.

/// acc[i] += a[i] * b[i].
void MulAcc(const float* a, const float* b, float* acc, int n);

/// One layer-norm row's input gradient: with dxhat = dy[i] * gain[i],
/// dx[i] += istd * (dxhat - mean_dxhat - xhat[i] * mean_dxhat_xhat).
void LayerNormDx(const float* dy, const float* gain, const float* xhat,
                 float mean_dxhat, float mean_dxhat_xhat, float istd,
                 float* dx, int n);

/// GELU's backward, from x and Gelu's tanh_u t:
/// dx[i] += dy[i] * (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2))
/// with c = sqrt(2/pi).
void GeluBackward(const float* x, const float* tanh_u, const float* dy,
                  float* dx, int n);

/// The constants of one Adam step (tensor::Adam::Step).
struct AdamStep {
  float beta1 = 0.0f;
  float beta2 = 0.0f;
  float bias1 = 0.0f;  // 1 - beta1^t
  float bias2 = 0.0f;  // 1 - beta2^t
  float lr = 0.0f;
  float eps = 0.0f;
  /// g += l2 * value first, when `coupled_decay` (Adam with L2).
  bool coupled_decay = false;
  float l2 = 0.0f;
  /// update += lr_decay * value, when `decoupled_decay` (AdamW).
  bool decoupled_decay = false;
  float lr_decay = 0.0f;
};

/// One Adam update of n weights: m = b1 m + (1 - b1) g,
/// v = b2 v + (1 - b2) g g, value -= lr (m / bias1) / (sqrt(v / bias2) +
/// eps), with the step's weight decay.
void AdamUpdate(const AdamStep& step, const float* grad, float* m, float* v,
                float* value, int n);

// --- GEMM tile kernels -------------------------------------------------------
//
// The register tiles under MatMul (DESIGN.md §3). Each keeps a block of C
// in registers while it runs the whole reduction, yet gives every output
// element exactly the arithmetic of the loop it replaces on the same
// backend: the k-ascending Axpy sequence (NN, TN) or one Dot (NT), with
// the same multiply-add, the same Dot lane partials and the same
// horizontal sum. A tile's result therefore never depends on where a tile
// or a thread's chunk starts.

/// Rows of C per tile, the same on every backend, so MatMul's chunk grid
/// depends only on the shape.
constexpr int kAxpyTileRows = 6;
constexpr int kDotTileRows = 4;

struct GemmKernels {
  /// For r < rows (<= kAxpyTileRows) and j < n:
  /// c[r*n + j] += a[r*a_row + p*a_red] * b[p*n + j] for p = 0..k-1 in
  /// order, bit for bit what Axpy(a[r*a_row + p*a_red], b + p*n,
  /// c + r*n, n) does for each p in turn.
  void (*axpy_tile)(int rows, int k, int n, const float* a, size_t a_row,
                    size_t a_red, const float* b, float* c);
  /// For r < rows (<= kDotTileRows) and q < cols:
  /// c[r*cols + q] += Dot(a + r*n, b + q*n, n), bit for bit.
  void (*dot_tile)(int rows, int cols, int n, const float* a, const float* b,
                   float* c);
};

/// The active backend's GEMM tiles. A GEMM looks them up once, not per
/// tile.
const GemmKernels& ActiveGemmKernels();

// --- Int8 kernels ------------------------------------------------------------

/// sum_i a[i] * b[i] with int32 accumulation. Integer arithmetic: the
/// result is bit-identical across backends.
int32_t DotI8(const int8_t* a, const int8_t* b, int n);

/// Symmetric per-row quantization: scale = min(max_i |x[i]|, clip) / 127
/// (clip <= 0 disables clipping), out[i] = lround(x[i] * (127 / that
/// max)) saturated to [-127, 127]. Returns the scale (0 when the row is
/// all zero — the quantized row is then all zero too). For finite inputs
/// every backend gives the scalar lround loop's bytes: the vector forms
/// truncate, add ±1 when the dropped fraction is >= 0.5, and clamp.
float QuantizeRow(const float* x, int n, float clip, int8_t* out);

}  // namespace simd
}  // namespace tensor
}  // namespace telekit

#endif  // TELEKIT_TENSOR_SIMD_H_
