#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/check.h"
#include "obs/log.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define TELEKIT_SIMD_X86 1
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define TELEKIT_SIMD_NEON 1
#endif

namespace telekit {
namespace tensor {
namespace simd {

namespace {

// --- Scalar reference kernels ------------------------------------------------
//
// These are byte-for-byte the loops ops.cc ran before the dispatch seam
// existed: ascending-index accumulation, no FMA contraction. TELEKIT_SIMD=off
// therefore reproduces the historical numerics exactly.

void AxpyScalar(float alpha, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

float DotScalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float ReduceMaxScalar(const float* x, int n) {
  float m = x[0];
  for (int i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

float ReduceSumScalar(const float* x, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) acc += x[i];
  return acc;
}

float ReduceSumSqDiffScalar(const float* x, float mean, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) acc += (x[i] - mean) * (x[i] - mean);
  return acc;
}

void AddScalarKernel(const float* a, const float* b, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void SubScalarKernel(const float* a, const float* b, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void MulScalarKernel(const float* a, const float* b, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleToScalar(const float* x, float alpha, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = x[i] * alpha;
}

void AddScalarToScalar(const float* x, float c, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = x[i] + c;
}

void ReluToScalar(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void NormalizeAffineScalar(const float* x, float mean, float istd,
                           const float* gain, const float* bias, float* xhat,
                           float* out, int n) {
  for (int i = 0; i < n; ++i) {
    const float xh = (x[i] - mean) * istd;
    if (xhat != nullptr) xhat[i] = xh;
    out[i] = xh * gain[i] + bias[i];
  }
}

void MulAccScalar(const float* a, const float* b, float* acc, int n) {
  for (int i = 0; i < n; ++i) acc[i] += a[i] * b[i];
}

void LayerNormDxScalar(const float* dy, const float* gain, const float* xhat,
                       float mean_dxhat, float mean_dxhat_xhat, float istd,
                       float* dx, int n) {
  for (int i = 0; i < n; ++i) {
    const float dxh = dy[i] * gain[i];
    dx[i] += istd * (dxh - mean_dxhat - xhat[i] * mean_dxhat_xhat);
  }
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
constexpr float kGelu3A = 3.0f * kGeluA;

void GeluBackwardScalar(const float* x, const float* tanh_u, const float* dy,
                        float* dx, int n) {
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = tanh_u[i];
    const float dinner = kGeluC * (1.0f + kGelu3A * v * v);
    dx[i] += dy[i] * (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner);
  }
}

void AdamUpdateScalar(const AdamStep& s, const float* grad, float* m,
                      float* v, float* value, int n) {
  const float one_minus_beta1 = 1.0f - s.beta1;
  const float one_minus_beta2 = 1.0f - s.beta2;
  for (int i = 0; i < n; ++i) {
    float g = grad[i];
    if (s.coupled_decay) g += s.l2 * value[i];
    m[i] = s.beta1 * m[i] + one_minus_beta1 * g;
    v[i] = s.beta2 * v[i] + one_minus_beta2 * g * g;
    const float m_hat = m[i] / s.bias1;
    const float v_hat = v[i] / s.bias2;
    float update = s.lr * m_hat / (std::sqrt(v_hat) + s.eps);
    if (s.decoupled_decay) update += s.lr_decay * value[i];
    value[i] -= update;
  }
}

int32_t DotI8Scalar(const int8_t* a, const int8_t* b, int n) {
  int32_t acc = 0;
  for (int i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

// --- Exp and GELU, shared steps ----------------------------------------------
//
// exp(x): x = k ln2 + r with k = round(x log2 e) and |r| <= ln2/2 (ln2 split
// in two so k * kLn2Hi is exact), exp(r) by its degree-7 Taylor polynomial,
// and 2^k added through the exponent bits. x is clamped to [kExpMin,
// kExpMax] first, so 2^k stays a normal float. GELU is x * sigmoid(2u)
// with sigmoid(2u) = 1 / (1 + exp(-2u)): the exp argument is capped at
// kGeluExpCap, which keeps the sigmoid a normal float (no subnormal
// slow path), and x < kGeluZeroBelow, where |GELU| < 1e-33, returns +0,
// which also maps -inf to its limit. The vector backends run these steps
// with fused multiply-adds, the scalar one with a multiply then an add.

constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693145751953125f;  // 16 significant bits
constexpr float kLn2Lo = 1.42860682030941723e-6f;
// (v + kRoundMagic) - kRoundMagic rounds |v| < 2^22 to the nearest integer,
// ties to even, in any float arithmetic.
constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
// 1/7!, 1/6!, ..., 1/1!, 1/0!: Horner order.
constexpr float kExpPoly[] = {1.0f / 5040, 1.0f / 720, 1.0f / 120, 1.0f / 24,
                              1.0f / 6,    0.5f,       1.0f,       1.0f};
constexpr float kGeluNeg2C = -2.0f * kGeluC;  // exact: a power-of-two scale
constexpr float kGeluExpCap = 80.0f;
constexpr float kGeluZeroBelow = -10.0f;

float ExpScalarOne(float x) {
  if (x > kExpMax) return std::numeric_limits<float>::infinity();
  if (x < kExpMin) return 0.0f;
  if (x != x) return x;
  const float k = (x * kLog2e + kRoundMagic) - kRoundMagic;
  float r = x - k * kLn2Hi;
  r = r - k * kLn2Lo;
  float p = kExpPoly[0];
  for (int i = 1; i < 8; ++i) p = p * r + kExpPoly[i];
  return p * std::bit_cast<float>((static_cast<int32_t>(k) + 127) << 23);
}

void ExpScalar(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = ExpScalarOne(x[i]);
}

void GeluScalar(const float* x, float* out, float* tanh_u, int n) {
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = v + kGeluA * (v * v * v);
    const float z = std::min(inner * kGeluNeg2C, kGeluExpCap);
    const float s = 1.0f / (1.0f + ExpScalarOne(z));
    out[i] = v < kGeluZeroBelow ? 0.0f : v * s;
    if (tanh_u != nullptr) tanh_u[i] = (s + s) - 1.0f;
  }
}

// lround(v) saturated to [-127, 127]. v is clamped to ±128 first: the
// same result, and defined where lround would overflow (glibc's lround
// then returns LONG_MIN, which saturates a huge positive activation past
// a calibrated clip to -127).
int8_t QuantizeOne(float v) {
  const long q = std::lround(std::clamp(v, -128.0f, 128.0f));
  return static_cast<int8_t>(std::clamp<long>(q, -127, 127));
}

float QuantizeRowScalar(const float* x, int n, float clip, int8_t* out) {
  float max_abs = 0.0f;
  for (int i = 0; i < n; ++i) max_abs = std::max(max_abs, std::fabs(x[i]));
  if (clip > 0.0f) max_abs = std::min(max_abs, clip);
  if (max_abs == 0.0f) {
    for (int i = 0; i < n; ++i) out[i] = 0;
    return 0.0f;
  }
  const float inv = 127.0f / max_abs;
  for (int i = 0; i < n; ++i) out[i] = QuantizeOne(x[i] * inv);
  return max_abs / 127.0f;
}

// --- GEMM tiles, shared shape ------------------------------------------------
//
// Every backend tiles the same way. NN/TN: kAxpyTileRows x 16 tiles of C,
// then narrower vector tiles, then the columns its Axpy leaves to a scalar
// tail, run with that tail's own expression. NT: kDotTileRows x 3 blocks of
// Dots, x 2 and x 1 at the right edge.

constexpr int kDotTileCols = 3;

// Calls fn(std::integral_constant<int, rows>) for 1 <= rows <= kMax, so a
// tile can be instantiated for each row count it meets at a bottom edge.
template <int kMax, typename Fn>
void ForRows(int rows, const Fn& fn) {
  if constexpr (kMax > 1) {
    if (rows < kMax) return ForRows<kMax - 1>(rows, fn);
  }
  fn(std::integral_constant<int, kMax>());
}

// --- Scalar GEMM tiles -------------------------------------------------------
//
// AxpyScalar's and DotScalar's expressions, in their order, per element.
// The 16 columns of a tile are independent, so the compiler may vectorize
// across them without changing any element's arithmetic.

template <int MR>
void AxpyTileScalarRows(int k, int n, const float* a, size_t a_row,
                        size_t a_red, const float* b, float* c) {
  constexpr int kCols = 16;
  int j = 0;
  for (; j + kCols <= n; j += kCols) {
    float acc[MR][kCols];
    for (int r = 0; r < MR; ++r) {
      for (int jj = 0; jj < kCols; ++jj) {
        acc[r][jj] = c[static_cast<size_t>(r) * n + j + jj];
      }
    }
    for (int p = 0; p < k; ++p) {
      const float* brow = b + static_cast<size_t>(p) * n + j;
      for (int r = 0; r < MR; ++r) {
        const float av = a[r * a_row + p * a_red];
        for (int jj = 0; jj < kCols; ++jj) acc[r][jj] += av * brow[jj];
      }
    }
    for (int r = 0; r < MR; ++r) {
      for (int jj = 0; jj < kCols; ++jj) {
        c[static_cast<size_t>(r) * n + j + jj] = acc[r][jj];
      }
    }
  }
  for (; j < n; ++j) {
    float acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = c[static_cast<size_t>(r) * n + j];
    for (int p = 0; p < k; ++p) {
      const float bv = b[static_cast<size_t>(p) * n + j];
      for (int r = 0; r < MR; ++r) acc[r] += a[r * a_row + p * a_red] * bv;
    }
    for (int r = 0; r < MR; ++r) c[static_cast<size_t>(r) * n + j] = acc[r];
  }
}

void AxpyTileScalar(int rows, int k, int n, const float* a, size_t a_row,
                    size_t a_red, const float* b, float* c) {
  ForRows<kAxpyTileRows>(rows, [&](auto mr) {
    AxpyTileScalarRows<decltype(mr)::value>(k, n, a, a_row, a_red, b, c);
  });
}

template <int MR, int NR>
void DotBlockScalar(int n, const float* a, const float* b, float* c,
                    int ldc) {
  float acc[MR][NR] = {};
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < MR; ++r) {
      for (int q = 0; q < NR; ++q) {
        acc[r][q] += a[static_cast<size_t>(r) * n + i] *
                     b[static_cast<size_t>(q) * n + i];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int q = 0; q < NR; ++q) c[r * ldc + q] += acc[r][q];
  }
}

template <int MR>
void DotTileScalarRows(int cols, int n, const float* a, const float* b,
                       float* c) {
  int q = 0;
  for (; q + kDotTileCols <= cols; q += kDotTileCols) {
    DotBlockScalar<MR, kDotTileCols>(n, a, b + static_cast<size_t>(q) * n,
                                     c + q, cols);
  }
  const float* bq = b + static_cast<size_t>(q) * n;
  if (cols - q == 2) DotBlockScalar<MR, 2>(n, a, bq, c + q, cols);
  if (cols - q == 1) DotBlockScalar<MR, 1>(n, a, bq, c + q, cols);
}

void DotTileScalar(int rows, int cols, int n, const float* a, const float* b,
                   float* c) {
  ForRows<kDotTileRows>(rows, [&](auto mr) {
    DotTileScalarRows<decltype(mr)::value>(cols, n, a, b, c);
  });
}

// --- AVX2(+FMA) kernels ------------------------------------------------------
//
// Compiled with per-function target attributes so the baseline build stays
// generic x86-64; these bodies only execute after cpuid confirms support.
// A scalar tail's multiply-add is written as std::fma: GCC contracts
// `y += a * x` to an FMA under target("fma") at -O2 but not at -O1, and the
// explicit form gives the -O2 bits at every optimisation level.

#if defined(TELEKIT_SIMD_X86)

__attribute__((target("avx2,fma"))) void AxpyAvx2(float alpha, const float* x,
                                                  float* y, int n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, vx, vy));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

__attribute__((target("avx2,fma"))) float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
  return _mm_cvtss_f32(sum);
}

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a,
                                                  const float* b, int n) {
  __m256 acc = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  float sum = HSum(acc);
  for (; i < n; ++i) sum = std::fma(a[i], b[i], sum);
  return sum;
}

__attribute__((target("avx2,fma"))) float ReduceMaxAvx2(const float* x,
                                                        int n) {
  if (n < 8) return ReduceMaxScalar(x, n);
  __m256 acc = _mm256_loadu_ps(x);
  int i = 8;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
  }
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  float best = _mm_cvtss_f32(m);
  for (; i < n; ++i) best = std::max(best, x[i]);
  return best;
}

__attribute__((target("avx2,fma"))) float ReduceSumAvx2(const float* x,
                                                        int n) {
  __m256 acc = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
  float sum = HSum(acc);
  for (; i < n; ++i) sum += x[i];
  return sum;
}

__attribute__((target("avx2,fma"))) float ReduceSumSqDiffAvx2(const float* x,
                                                              float mean,
                                                              int n) {
  const __m256 vm = _mm256_set1_ps(mean);
  __m256 acc = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x + i), vm);
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float sum = HSum(acc);
  for (; i < n; ++i) {
    const float d = x[i] - mean;
    sum = std::fma(d, d, sum);
  }
  return sum;
}

__attribute__((target("avx2,fma"))) void AddAvx2(const float* a,
                                                 const float* b, float* out,
                                                 int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

__attribute__((target("avx2,fma"))) void SubAvx2(const float* a,
                                                 const float* b, float* out,
                                                 int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2,fma"))) void MulAvx2(const float* a,
                                                 const float* b, float* out,
                                                 int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

__attribute__((target("avx2,fma"))) void ScaleToAvx2(const float* x,
                                                     float alpha, float* out,
                                                     int n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * alpha;
}

__attribute__((target("avx2,fma"))) void AddScalarToAvx2(const float* x,
                                                         float c, float* out,
                                                         int n) {
  const __m256 vc = _mm256_set1_ps(c);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(x + i), vc));
  }
  for (; i < n; ++i) out[i] = x[i] + c;
}

__attribute__((target("avx2,fma"))) void ReluToAvx2(const float* x, float* out,
                                                    int n) {
  const __m256 zero = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

__attribute__((target("avx2,fma"))) void NormalizeAffineAvx2(
    const float* x, float mean, float istd, const float* gain,
    const float* bias, float* xhat, float* out, int n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const __m256 vs = _mm256_set1_ps(istd);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xh =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm), vs);
    if (xhat != nullptr) _mm256_storeu_ps(xhat + i, xh);
    _mm256_storeu_ps(out + i, _mm256_fmadd_ps(xh, _mm256_loadu_ps(gain + i),
                                              _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) {
    const float xh = (x[i] - mean) * istd;
    if (xhat != nullptr) xhat[i] = xh;
    out[i] = std::fma(xh, gain[i], bias[i]);
  }
}

// The training loops (simd.h) on 8 lanes, the last n % 8 elements by the
// scalar loops. target("avx2") without "fma": the compiler may not fuse a
// multiply into an add, so each step rounds as the scalar loop's does.

__attribute__((target("avx2"))) void MulAccAvx2(const float* a,
                                                const float* b, float* acc,
                                                int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        acc + i,
        _mm256_add_ps(_mm256_loadu_ps(acc + i),
                      _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                    _mm256_loadu_ps(b + i))));
  }
  MulAccScalar(a + i, b + i, acc + i, n - i);
}

__attribute__((target("avx2"))) void LayerNormDxAvx2(
    const float* dy, const float* gain, const float* xhat, float mean_dxhat,
    float mean_dxhat_xhat, float istd, float* dx, int n) {
  const __m256 m1 = _mm256_set1_ps(mean_dxhat);
  const __m256 m2 = _mm256_set1_ps(mean_dxhat_xhat);
  const __m256 s = _mm256_set1_ps(istd);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 dxh =
        _mm256_mul_ps(_mm256_loadu_ps(dy + i), _mm256_loadu_ps(gain + i));
    const __m256 centered =
        _mm256_sub_ps(_mm256_sub_ps(dxh, m1),
                      _mm256_mul_ps(_mm256_loadu_ps(xhat + i), m2));
    _mm256_storeu_ps(dx + i, _mm256_add_ps(_mm256_loadu_ps(dx + i),
                                           _mm256_mul_ps(s, centered)));
  }
  LayerNormDxScalar(dy + i, gain + i, xhat + i, mean_dxhat, mean_dxhat_xhat,
                    istd, dx + i, n - i);
}

__attribute__((target("avx2"))) void GeluBackwardAvx2(const float* x,
                                                      const float* tanh_u,
                                                      const float* dy,
                                                      float* dx, int n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 c = _mm256_set1_ps(kGeluC);
  const __m256 a3 = _mm256_set1_ps(kGelu3A);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 t = _mm256_loadu_ps(tanh_u + i);
    const __m256 dinner = _mm256_mul_ps(
        c, _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(a3, v), v)));
    const __m256 slope = _mm256_add_ps(
        _mm256_mul_ps(half, _mm256_add_ps(one, t)),
        _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, v),
                                    _mm256_sub_ps(one, _mm256_mul_ps(t, t))),
                      dinner));
    _mm256_storeu_ps(dx + i,
                     _mm256_add_ps(_mm256_loadu_ps(dx + i),
                                   _mm256_mul_ps(_mm256_loadu_ps(dy + i),
                                                 slope)));
  }
  GeluBackwardScalar(x + i, tanh_u + i, dy + i, dx + i, n - i);
}

__attribute__((target("avx2"))) void AdamUpdateAvx2(const AdamStep& s,
                                                    const float* grad,
                                                    float* m, float* v,
                                                    float* value, int n) {
  const __m256 b1 = _mm256_set1_ps(s.beta1);
  const __m256 b2 = _mm256_set1_ps(s.beta2);
  const __m256 c1 = _mm256_set1_ps(1.0f - s.beta1);
  const __m256 c2 = _mm256_set1_ps(1.0f - s.beta2);
  const __m256 bias1 = _mm256_set1_ps(s.bias1);
  const __m256 bias2 = _mm256_set1_ps(s.bias2);
  const __m256 lr = _mm256_set1_ps(s.lr);
  const __m256 eps = _mm256_set1_ps(s.eps);
  const __m256 l2 = _mm256_set1_ps(s.l2);
  const __m256 lr_decay = _mm256_set1_ps(s.lr_decay);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 w = _mm256_loadu_ps(value + i);
    __m256 g = _mm256_loadu_ps(grad + i);
    if (s.coupled_decay) g = _mm256_add_ps(g, _mm256_mul_ps(l2, w));
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(c1, g));
    const __m256 vi =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(c2, g), g));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    __m256 update = _mm256_div_ps(
        _mm256_mul_ps(lr, _mm256_div_ps(mi, bias1)),
        _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vi, bias2)), eps));
    if (s.decoupled_decay) {
      update = _mm256_add_ps(update, _mm256_mul_ps(lr_decay, w));
    }
    _mm256_storeu_ps(value + i, _mm256_sub_ps(w, update));
  }
  AdamUpdateScalar(s, grad + i, m + i, v + i, value + i, n - i);
}

__attribute__((target("avx2"))) int32_t DotI8Avx2(const int8_t* a,
                                                  const int8_t* b, int n) {
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i b16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
  }
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i sum = _mm_add_epi32(lo, hi);
  sum = _mm_add_epi32(sum, _mm_unpackhi_epi64(sum, sum));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 1));
  int32_t total = _mm_cvtsi128_si32(sum);
  for (; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

// Exp and GELU: ExpScalarOne's and GeluScalar's steps on 8 lanes. max/min
// return their second operand when either is NaN, so the clamps below keep
// x second and NaN flows through to the result.
__attribute__((target("avx2,fma"))) __m256 ExpAvx2Lanes(__m256 x) {
  const __m256 overflow =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpMax), _CMP_GT_OQ);
  const __m256 underflow =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpMin), _CMP_LT_OQ);
  x = _mm256_min_ps(_mm256_set1_ps(kExpMax),
                    _mm256_max_ps(_mm256_set1_ps(kExpMin), x));
  const __m256 magic = _mm256_set1_ps(kRoundMagic);
  const __m256 k = _mm256_sub_ps(
      _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), magic), magic);
  __m256 r = _mm256_fnmadd_ps(k, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(k, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpPoly[0]);
  for (int i = 1; i < 8; ++i) {
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpPoly[i]));
  }
  const __m256i pow2 = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(k), _mm256_set1_epi32(127)), 23);
  const __m256 e = _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
  return _mm256_blendv_ps(
      _mm256_andnot_ps(underflow, e),
      _mm256_set1_ps(std::numeric_limits<float>::infinity()), overflow);
}

__attribute__((target("avx2,fma"))) __m256 GeluAvx2Lanes(__m256 x,
                                                        __m256* tanh_u) {
  const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
  const __m256 inner = _mm256_fmadd_ps(_mm256_set1_ps(kGeluA), x3, x);
  const __m256 z = _mm256_min_ps(_mm256_set1_ps(kGeluExpCap),
                                 _mm256_mul_ps(inner,
                                               _mm256_set1_ps(kGeluNeg2C)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 s =
      _mm256_div_ps(one, _mm256_add_ps(one, ExpAvx2Lanes(z)));
  *tanh_u = _mm256_sub_ps(_mm256_add_ps(s, s), one);
  const __m256 zero_below =
      _mm256_cmp_ps(x, _mm256_set1_ps(kGeluZeroBelow), _CMP_LT_OQ);
  return _mm256_andnot_ps(zero_below, _mm256_mul_ps(x, s));
}

// One pass of Exp (kGelu false) or GELU (true) lanes over n elements. The
// last n % 8 go through the same lanes from a padded copy, so no element's
// result depends on where it sits.
template <bool kGelu>
__attribute__((target("avx2,fma"))) __m256 MapLanes(__m256 v, __m256* t) {
  if constexpr (kGelu) {
    return GeluAvx2Lanes(v, t);
  } else {
    return ExpAvx2Lanes(v);
  }
}

template <bool kGelu>
__attribute__((target("avx2,fma"))) void MapAvx2(const float* x, float* out,
                                                float* tanh_u, int n) {
  constexpr auto lanes = MapLanes<kGelu>;
  __m256 t = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, lanes(_mm256_loadu_ps(x + i), &t));
    if (tanh_u != nullptr) _mm256_storeu_ps(tanh_u + i, t);
  }
  if (i == n) return;
  const size_t rest = sizeof(float) * static_cast<size_t>(n - i);
  alignas(32) float buf[8] = {};
  alignas(32) float tbuf[8];
  std::memcpy(buf, x + i, rest);
  _mm256_store_ps(buf, lanes(_mm256_load_ps(buf), &t));
  _mm256_store_ps(tbuf, t);
  std::memcpy(out + i, buf, rest);
  if (tanh_u != nullptr) std::memcpy(tanh_u + i, tbuf, rest);
}

void ExpAvx2(const float* x, float* out, int n) {
  MapAvx2<false>(x, out, nullptr, n);
}

void GeluAvx2(const float* x, float* out, float* tanh_u, int n) {
  MapAvx2<true>(x, out, tanh_u, n);
}

// QuantizeRowScalar's bytes: the same max (exact, and NaN-skipping with
// |x| as max's first operand), the same inv and ±128 clamp, then lround as
// truncate, ±1 when the dropped fraction is >= 0.5, and clamp.
__attribute__((target("avx2,fma"))) float QuantizeRowAvx2(const float* x,
                                                          int n, float clip,
                                                          int8_t* out) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 vmax = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(x + i)), vmax);
  }
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                        _mm256_extractf128_ps(vmax, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  float max_abs = _mm_cvtss_f32(m);
  for (; i < n; ++i) max_abs = std::max(max_abs, std::fabs(x[i]));
  if (clip > 0.0f) max_abs = std::min(max_abs, clip);
  if (max_abs == 0.0f) {
    std::memset(out, 0, static_cast<size_t>(n));
    return 0.0f;
  }
  const float inv = 127.0f / max_abs;
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 bound = _mm256_set1_ps(128.0f);
  const __m256 qmax = _mm256_set1_ps(127.0f);
  for (i = 0; i + 8 <= n; i += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    v = _mm256_min_ps(_mm256_max_ps(v, _mm256_sub_ps(_mm256_setzero_ps(),
                                                     bound)),
                      bound);
    const __m256 t =
        _mm256_round_ps(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 frac = _mm256_sub_ps(v, t);
    const __m256 up =
        _mm256_and_ps(_mm256_cmp_ps(frac, half, _CMP_GE_OQ), one);
    const __m256 down = _mm256_and_ps(
        _mm256_cmp_ps(frac, _mm256_xor_ps(half, sign), _CMP_LE_OQ), one);
    __m256 q = _mm256_sub_ps(_mm256_add_ps(t, up), down);
    q = _mm256_min_ps(_mm256_max_ps(q, _mm256_xor_ps(qmax, sign)), qmax);
    const __m256i qi = _mm256_cvttps_epi32(q);
    const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(qi),
                                        _mm256_extracti128_si256(qi, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(q16, q16));
  }
  for (; i < n; ++i) out[i] = QuantizeOne(x[i] * inv);
  return max_abs / 127.0f;
}

// GEMM tiles: AxpyAvx2's FMA per element in p order (its scalar tail's
// expression for the columns past the last full vector), and per Dot,
// DotAvx2's eight lane partials, HSum and tail. kVecs vectors of 8 columns
// per row of the block; 6 x 2 accumulators + 2 B vectors + 1 broadcast fill
// the 16 ymm registers.
template <int MR, int kVecs>
__attribute__((target("avx2,fma"))) void AxpyBlockAvx2(
    int k, int n, const float* a, size_t a_row, size_t a_red, const float* b,
    float* c) {
  __m256 acc[MR][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = _mm256_loadu_ps(c + static_cast<size_t>(r) * n + 8 * v);
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n;
    const float* acol = a + p * a_red;
    __m256 bv[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) bv[v] = _mm256_loadu_ps(brow + 8 * v);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(acol + r * a_row);
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      _mm256_storeu_ps(c + static_cast<size_t>(r) * n + 8 * v, acc[r][v]);
    }
  }
}

template <int MR>
__attribute__((target("avx2,fma"))) void AxpyTileAvx2Rows(
    int k, int n, const float* a, size_t a_row, size_t a_red, const float* b,
    float* c) {
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    AxpyBlockAvx2<MR, 2>(k, n, a, a_row, a_red, b + j, c + j);
  }
  if (j + 8 <= n) {
    AxpyBlockAvx2<MR, 1>(k, n, a, a_row, a_red, b + j, c + j);
    j += 8;
  }
  for (; j < n; ++j) {
    for (int r = 0; r < MR; ++r) {
      float* cj = c + static_cast<size_t>(r) * n + j;
      float acc = *cj;
      for (int p = 0; p < k; ++p) {
        acc = std::fma(a[r * a_row + p * a_red],
                       b[static_cast<size_t>(p) * n + j], acc);
      }
      *cj = acc;
    }
  }
}

void AxpyTileAvx2(int rows, int k, int n, const float* a, size_t a_row,
                  size_t a_red, const float* b, float* c) {
  ForRows<kAxpyTileRows>(rows, [&](auto mr) {
    AxpyTileAvx2Rows<decltype(mr)::value>(k, n, a, a_row, a_red, b, c);
  });
}

// MR x NR Dots at once: 4 x 3 accumulators + 3 B vectors + 1 A vector.
template <int MR, int NR>
__attribute__((target("avx2,fma"))) void DotBlockAvx2(int n, const float* a,
                                                      const float* b,
                                                      float* c, int ldc) {
  __m256 acc[MR][NR];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 3
    for (int q = 0; q < NR; ++q) acc[r][q] = _mm256_setzero_ps();
  }
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 bv[NR];
#pragma GCC unroll 3
    for (int q = 0; q < NR; ++q) {
      bv[q] = _mm256_loadu_ps(b + static_cast<size_t>(q) * n + i);
    }
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_loadu_ps(a + static_cast<size_t>(r) * n + i);
#pragma GCC unroll 3
      for (int q = 0; q < NR; ++q) {
        acc[r][q] = _mm256_fmadd_ps(av, bv[q], acc[r][q]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    const float* arow = a + static_cast<size_t>(r) * n;
    for (int q = 0; q < NR; ++q) {
      const float* brow = b + static_cast<size_t>(q) * n;
      float sum = HSum(acc[r][q]);
      for (int t = i; t < n; ++t) sum = std::fma(arow[t], brow[t], sum);
      c[r * ldc + q] += sum;
    }
  }
}

template <int MR>
void DotTileAvx2Rows(int cols, int n, const float* a, const float* b,
                     float* c) {
  int q = 0;
  for (; q + kDotTileCols <= cols; q += kDotTileCols) {
    DotBlockAvx2<MR, kDotTileCols>(n, a, b + static_cast<size_t>(q) * n,
                                   c + q, cols);
  }
  const float* bq = b + static_cast<size_t>(q) * n;
  if (cols - q == 2) DotBlockAvx2<MR, 2>(n, a, bq, c + q, cols);
  if (cols - q == 1) DotBlockAvx2<MR, 1>(n, a, bq, c + q, cols);
}

void DotTileAvx2(int rows, int cols, int n, const float* a, const float* b,
                 float* c) {
  ForRows<kDotTileRows>(rows, [&](auto mr) {
    DotTileAvx2Rows<decltype(mr)::value>(cols, n, a, b, c);
  });
}

#endif  // TELEKIT_SIMD_X86

// --- NEON kernels ------------------------------------------------------------

#if defined(TELEKIT_SIMD_NEON)

void AxpyNeon(float alpha, const float* x, float* y, int n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

float DotNeon(const float* a, const float* b, int n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float ReduceMaxNeon(const float* x, int n) {
  if (n < 4) return ReduceMaxScalar(x, n);
  float32x4_t acc = vld1q_f32(x);
  int i = 4;
  for (; i + 4 <= n; i += 4) acc = vmaxq_f32(acc, vld1q_f32(x + i));
  float best = vmaxvq_f32(acc);
  for (; i < n; ++i) best = std::max(best, x[i]);
  return best;
}

float ReduceSumNeon(const float* x, int n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) acc = vaddq_f32(acc, vld1q_f32(x + i));
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += x[i];
  return sum;
}

float ReduceSumSqDiffNeon(const float* x, float mean, int n) {
  const float32x4_t vm = vdupq_n_f32(mean);
  float32x4_t acc = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(x + i), vm);
    acc = vfmaq_f32(acc, d, d);
  }
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += (x[i] - mean) * (x[i] - mean);
  return sum;
}

void AddNeon(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void SubNeon(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void MulNeon(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleToNeon(const float* x, float alpha, float* out, int n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * alpha;
}

void AddScalarToNeon(const float* x, float c, float* out, int n) {
  const float32x4_t vc = vdupq_n_f32(c);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(x + i), vc));
  }
  for (; i < n; ++i) out[i] = x[i] + c;
}

void ReluToNeon(const float* x, float* out, int n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmaxq_f32(vld1q_f32(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void NormalizeAffineNeon(const float* x, float mean, float istd,
                         const float* gain, const float* bias, float* xhat,
                         float* out, int n) {
  const float32x4_t vm = vdupq_n_f32(mean);
  const float32x4_t vs = vdupq_n_f32(istd);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t xh = vmulq_f32(vsubq_f32(vld1q_f32(x + i), vm), vs);
    if (xhat != nullptr) vst1q_f32(xhat + i, xh);
    vst1q_f32(out + i, vfmaq_f32(vld1q_f32(bias + i), xh, vld1q_f32(gain + i)));
  }
  for (; i < n; ++i) {
    const float xh = (x[i] - mean) * istd;
    if (xhat != nullptr) xhat[i] = xh;
    out[i] = xh * gain[i] + bias[i];
  }
}

int32_t DotI8Neon(const int8_t* a, const int8_t* b, int n) {
  int32x4_t acc = vdupq_n_s32(0);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t prod = vmull_s8(vld1_s8(a + i), vld1_s8(b + i));
    acc = vpadalq_s16(acc, prod);
  }
  int32_t total = vaddvq_s32(acc);
  for (; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

// GEMM tiles: AxpyNeon's FMA per element in p order (its scalar tail's
// expression past the last full vector), and per Dot, DotNeon's four lane
// partials, vaddvq and tail. 6 x 4 accumulators + 4 B vectors + 1 broadcast
// fit the 32 q registers.
template <int MR, int kVecs>
void AxpyBlockNeon(int k, int n, const float* a, size_t a_row, size_t a_red,
                   const float* b, float* c) {
  float32x4_t acc[MR][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = vld1q_f32(c + static_cast<size_t>(r) * n + 4 * v);
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n;
    const float* acol = a + p * a_red;
    float32x4_t bv[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) bv[v] = vld1q_f32(brow + 4 * v);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const float32x4_t av = vdupq_n_f32(acol[r * a_row]);
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = vfmaq_f32(acc[r][v], av, bv[v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      vst1q_f32(c + static_cast<size_t>(r) * n + 4 * v, acc[r][v]);
    }
  }
}

template <int MR>
void AxpyTileNeonRows(int k, int n, const float* a, size_t a_row,
                      size_t a_red, const float* b, float* c) {
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    AxpyBlockNeon<MR, 4>(k, n, a, a_row, a_red, b + j, c + j);
  }
  for (; j + 4 <= n; j += 4) {
    AxpyBlockNeon<MR, 1>(k, n, a, a_row, a_red, b + j, c + j);
  }
  for (; j < n; ++j) {
    for (int r = 0; r < MR; ++r) {
      float* cj = c + static_cast<size_t>(r) * n + j;
      float acc = *cj;
      for (int p = 0; p < k; ++p) {
        acc += a[r * a_row + p * a_red] * b[static_cast<size_t>(p) * n + j];
      }
      *cj = acc;
    }
  }
}

void AxpyTileNeon(int rows, int k, int n, const float* a, size_t a_row,
                  size_t a_red, const float* b, float* c) {
  ForRows<kAxpyTileRows>(rows, [&](auto mr) {
    AxpyTileNeonRows<decltype(mr)::value>(k, n, a, a_row, a_red, b, c);
  });
}

template <int MR, int NR>
void DotBlockNeon(int n, const float* a, const float* b, float* c, int ldc) {
  float32x4_t acc[MR][NR];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 3
    for (int q = 0; q < NR; ++q) acc[r][q] = vdupq_n_f32(0.0f);
  }
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t bv[NR];
#pragma GCC unroll 3
    for (int q = 0; q < NR; ++q) {
      bv[q] = vld1q_f32(b + static_cast<size_t>(q) * n + i);
    }
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const float32x4_t av = vld1q_f32(a + static_cast<size_t>(r) * n + i);
#pragma GCC unroll 3
      for (int q = 0; q < NR; ++q) {
        acc[r][q] = vfmaq_f32(acc[r][q], av, bv[q]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    const float* arow = a + static_cast<size_t>(r) * n;
    for (int q = 0; q < NR; ++q) {
      const float* brow = b + static_cast<size_t>(q) * n;
      float sum = vaddvq_f32(acc[r][q]);
      for (int t = i; t < n; ++t) sum += arow[t] * brow[t];
      c[r * ldc + q] += sum;
    }
  }
}

template <int MR>
void DotTileNeonRows(int cols, int n, const float* a, const float* b,
                     float* c) {
  int q = 0;
  for (; q + kDotTileCols <= cols; q += kDotTileCols) {
    DotBlockNeon<MR, kDotTileCols>(n, a, b + static_cast<size_t>(q) * n,
                                   c + q, cols);
  }
  const float* bq = b + static_cast<size_t>(q) * n;
  if (cols - q == 2) DotBlockNeon<MR, 2>(n, a, bq, c + q, cols);
  if (cols - q == 1) DotBlockNeon<MR, 1>(n, a, bq, c + q, cols);
}

void DotTileNeon(int rows, int cols, int n, const float* a, const float* b,
                 float* c) {
  ForRows<kDotTileRows>(rows, [&](auto mr) {
    DotTileNeonRows<decltype(mr)::value>(cols, n, a, b, c);
  });
}

#endif  // TELEKIT_SIMD_NEON

// --- Dispatch ----------------------------------------------------------------

struct VTable {
  void (*axpy)(float, const float*, float*, int);
  float (*dot)(const float*, const float*, int);
  float (*reduce_max)(const float*, int);
  float (*reduce_sum)(const float*, int);
  float (*reduce_sum_sq_diff)(const float*, float, int);
  void (*add)(const float*, const float*, float*, int);
  void (*sub)(const float*, const float*, float*, int);
  void (*mul)(const float*, const float*, float*, int);
  void (*scale_to)(const float*, float, float*, int);
  void (*add_scalar_to)(const float*, float, float*, int);
  void (*relu_to)(const float*, float*, int);
  void (*normalize_affine)(const float*, float, float, const float*,
                           const float*, float*, float*, int);
  void (*exp)(const float*, float*, int);
  void (*gelu)(const float*, float*, float*, int);
  int32_t (*dot_i8)(const int8_t*, const int8_t*, int);
  float (*quantize_row)(const float*, int, float, int8_t*);
  GemmKernels gemm;
  void (*mul_acc)(const float*, const float*, float*, int);
  void (*layer_norm_dx)(const float*, const float*, const float*, float,
                        float, float, float*, int);
  void (*gelu_backward)(const float*, const float*, const float*, float*,
                        int);
  void (*adam_update)(const AdamStep&, const float*, float*, float*, float*,
                      int);
};

constexpr VTable kScalarTable = {
    AxpyScalar,         DotScalar,         ReduceMaxScalar,
    ReduceSumScalar,    ReduceSumSqDiffScalar,
    AddScalarKernel,    SubScalarKernel,   MulScalarKernel,
    ScaleToScalar,      AddScalarToScalar, ReluToScalar,
    NormalizeAffineScalar, ExpScalar,    GeluScalar,
    DotI8Scalar,        QuantizeRowScalar,
    {AxpyTileScalar, DotTileScalar},
    MulAccScalar,       LayerNormDxScalar, GeluBackwardScalar,
    AdamUpdateScalar,
};

#if defined(TELEKIT_SIMD_X86)
constexpr VTable kAvx2Table = {
    AxpyAvx2,         DotAvx2,         ReduceMaxAvx2,
    ReduceSumAvx2,    ReduceSumSqDiffAvx2,
    AddAvx2,          SubAvx2,         MulAvx2,
    ScaleToAvx2,      AddScalarToAvx2, ReluToAvx2,
    NormalizeAffineAvx2, ExpAvx2,    GeluAvx2,
    DotI8Avx2,        QuantizeRowAvx2,
    {AxpyTileAvx2, DotTileAvx2},
    MulAccAvx2,       LayerNormDxAvx2, GeluBackwardAvx2,
    AdamUpdateAvx2,
};
#endif

#if defined(TELEKIT_SIMD_NEON)
constexpr VTable kNeonTable = {
    AxpyNeon,         DotNeon,         ReduceMaxNeon,
    ReduceSumNeon,    ReduceSumSqDiffNeon,
    AddNeon,          SubNeon,         MulNeon,
    ScaleToNeon,      AddScalarToNeon, ReluToNeon,
    // Exp, GELU and QuantizeRow run the portable scalar forms on NEON.
    NormalizeAffineNeon, ExpScalar,    GeluScalar,
    DotI8Neon,        QuantizeRowScalar,
    {AxpyTileNeon, DotTileNeon},
    // The training loops run their scalar forms on NEON too.
    MulAccScalar,     LayerNormDxScalar, GeluBackwardScalar,
    AdamUpdateScalar,
};
#endif

std::atomic<const VTable*> g_table{&kScalarTable};
std::atomic<Backend> g_backend{Backend::kScalar};

const VTable* TableFor(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarTable;
    case Backend::kAvx2:
#if defined(TELEKIT_SIMD_X86)
      return &kAvx2Table;
#else
      return nullptr;
#endif
    case Backend::kNeon:
#if defined(TELEKIT_SIMD_NEON)
      return &kNeonTable;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Backend ResolveStartupBackend() {
  Backend backend = DetectBackend();
  const char* env = std::getenv("TELEKIT_SIMD");
  if (env != nullptr) {
    Backend requested;
    TELEKIT_CHECK(ParseSimdEnv(env, &requested))
        << "bad TELEKIT_SIMD value '" << env
        << "' (want on|off|auto|1|0|scalar|avx2|neon, and the CPU/build "
           "must support the named backend)";
    backend = requested;
  }
  return backend;
}

void Install(Backend backend) {
  const VTable* table = TableFor(backend);
  if (table == nullptr) {
    backend = Backend::kScalar;
    table = &kScalarTable;
  }
  g_table.store(table, std::memory_order_relaxed);
  g_backend.store(backend, std::memory_order_relaxed);
}

struct InitOnce {
  InitOnce() {
    const Backend backend = ResolveStartupBackend();
    Install(backend);
    TELEKIT_LOG(INFO) << "tensor/simd backend selected"
                      << obs::F("backend", BackendName(backend));
  }
};

const VTable& Active() {
  static InitOnce init;
  return *g_table.load(std::memory_order_relaxed);
}

}  // namespace

Backend DetectBackend() {
#if defined(TELEKIT_SIMD_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend::kAvx2;
  }
#endif
#if defined(TELEKIT_SIMD_NEON)
  return Backend::kNeon;
#endif
  return Backend::kScalar;
}

Backend ActiveBackend() {
  Active();
  return g_backend.load(std::memory_order_relaxed);
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

const char* ActiveBackendName() { return BackendName(ActiveBackend()); }

bool Enabled() { return ActiveBackend() != Backend::kScalar; }

Backend ForceBackend(Backend backend) {
  Active();  // run env-based init first so it never overwrites a force
  if (TableFor(backend) == nullptr) backend = Backend::kScalar;
  Install(backend);
  return backend;
}

bool ParseSimdEnv(const char* value, Backend* backend) {
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "on" || v == "1" || v == "auto") {
    *backend = DetectBackend();
    return true;
  }
  if (v == "off" || v == "0" || v == "scalar") {
    *backend = Backend::kScalar;
    return true;
  }
  if (v == "avx2") {
    *backend = Backend::kAvx2;
    return DetectBackend() == Backend::kAvx2;
  }
  if (v == "neon") {
    *backend = Backend::kNeon;
    return TableFor(Backend::kNeon) != nullptr;
  }
  return false;
}

void Axpy(float alpha, const float* x, float* y, int n) {
  Active().axpy(alpha, x, y, n);
}

float Dot(const float* a, const float* b, int n) {
  return Active().dot(a, b, n);
}

float ReduceMax(const float* x, int n) { return Active().reduce_max(x, n); }

float ReduceSum(const float* x, int n) { return Active().reduce_sum(x, n); }

float ReduceSumSqDiff(const float* x, float mean, int n) {
  return Active().reduce_sum_sq_diff(x, mean, n);
}

void Add(const float* a, const float* b, float* out, int n) {
  Active().add(a, b, out, n);
}

void Sub(const float* a, const float* b, float* out, int n) {
  Active().sub(a, b, out, n);
}

void Mul(const float* a, const float* b, float* out, int n) {
  Active().mul(a, b, out, n);
}

void ScaleTo(const float* x, float alpha, float* out, int n) {
  Active().scale_to(x, alpha, out, n);
}

void AddScalarTo(const float* x, float c, float* out, int n) {
  Active().add_scalar_to(x, c, out, n);
}

void ReluTo(const float* x, float* out, int n) {
  Active().relu_to(x, out, n);
}

void NormalizeAffine(const float* x, float mean, float istd,
                     const float* gain, const float* bias, float* xhat,
                     float* out, int n) {
  Active().normalize_affine(x, mean, istd, gain, bias, xhat, out, n);
}

const GemmKernels& ActiveGemmKernels() { return Active().gemm; }

int32_t DotI8(const int8_t* a, const int8_t* b, int n) {
  return Active().dot_i8(a, b, n);
}

void Exp(const float* x, float* out, int n) { Active().exp(x, out, n); }

void Gelu(const float* x, float* out, float* tanh_u, int n) {
  Active().gelu(x, out, tanh_u, n);
}

float QuantizeRow(const float* x, int n, float clip, int8_t* out) {
  return Active().quantize_row(x, n, clip, out);
}

void MulAcc(const float* a, const float* b, float* acc, int n) {
  Active().mul_acc(a, b, acc, n);
}

void LayerNormDx(const float* dy, const float* gain, const float* xhat,
                 float mean_dxhat, float mean_dxhat_xhat, float istd,
                 float* dx, int n) {
  Active().layer_norm_dx(dy, gain, xhat, mean_dxhat, mean_dxhat_xhat, istd,
                         dx, n);
}

void GeluBackward(const float* x, const float* tanh_u, const float* dy,
                  float* dx, int n) {
  Active().gelu_backward(x, tanh_u, dy, dx, n);
}

void AdamUpdate(const AdamStep& step, const float* grad, float* m, float* v,
                float* value, int n) {
  Active().adam_update(step, grad, m, v, value, n);
}

}  // namespace simd
}  // namespace tensor
}  // namespace telekit
