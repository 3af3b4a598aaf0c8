#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "obs/metrics.h"
#include "tensor/compute_pool.h"
#include "tensor/simd.h"

namespace telekit {
namespace tensor {

namespace {

thread_local int g_no_grad_depth = 0;

}  // namespace

NoGradGuard::NoGradGuard() { ++g_no_grad_depth; }
NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }

bool GradEnabled() { return g_no_grad_depth == 0; }

namespace {

using internal::Node;
using NodePtr = std::shared_ptr<Node>;

NodePtr NewNode(const Shape& shape, bool requires_grad) {
  // Every op dispatch allocates exactly one node, so this counter is the
  // op-dispatch rate. Cached reference + relaxed atomic: ~1ns per op.
  static obs::Counter& dispatched =
      obs::MetricsRegistry::Global().GetCounter("tensor/ops_dispatched");
  dispatched.Increment();
  auto node = std::make_shared<Node>();
  node->shape = shape;
  node->value.assign(static_cast<size_t>(ShapeSize(shape)), 0.0f);
  node->requires_grad = requires_grad && GradEnabled();
  return node;
}

bool AnyGrad(const Tensor& a) { return a.requires_grad(); }
bool AnyGrad(const Tensor& a, const Tensor& b) {
  return a.requires_grad() || b.requires_grad();
}

// --- Register-tiled, parallel GEMM -------------------------------------------
//
// All three products partition the rows of C across the ComputePool (each
// output row owned by exactly one worker) and walk each chunk in tiles of
// the backend's register kernels (simd::GemmKernels). A tile gives every
// element of C exactly the arithmetic of the per-(row, k) Axpy or
// per-element Dot loop on the same backend, so results are bit-identical
// for any thread count and any tiling (DESIGN.md §3).

// Chunk size (in rows) for a row-partitioned kernel where each row costs
// `flops_per_row`, rounded up to whole `tile`-row tiles. Fixed per shape —
// never a function of the thread count — so the chunk grid is
// deterministic. Returns `rows` (one serial chunk) when the whole op is too
// small to amortize a fan-out.
int RowGrain(int rows, size_t flops_per_row, int tile = 1) {
  constexpr size_t kMinChunkFlops = 1 << 15;
  const size_t per_row = std::max<size_t>(flops_per_row, 1);
  if (static_cast<size_t>(rows) * per_row < 2 * kMinChunkFlops) return rows;
  const size_t grain = std::max<size_t>(1, kMinChunkFlops / per_row);
  return static_cast<int>((grain + tile - 1) / tile * tile);
}

// Chunk size for flat elementwise loops; ops smaller than 2x this run
// serially inside ParallelFor.
constexpr int kElemGrain = 16384;

// C[rows,n] += Â[rows,k] * B[k,n] with Â[r,p] = a[r*a_row + p*a_red]: A
// itself for NN, A^T for TN.
void MmAxpyTiles(const float* a, size_t a_row, size_t a_red, const float* b,
                 float* c, int rows, int k, int n) {
  constexpr int kTile = simd::kAxpyTileRows;
  const auto tile = simd::ActiveGemmKernels().axpy_tile;
  ParallelFor(rows, RowGrain(rows, 2ull * k * n, kTile),
              [=](int i0, int i1) {
                for (int i = i0; i < i1; i += kTile) {
                  tile(std::min(kTile, i1 - i), k, n, a + i * a_row, a_row,
                       a_red, b, c + static_cast<size_t>(i) * n);
                }
              });
}

// C[m,k] += A[m,n] * B[k,n]^T  (i.e. C = A * B^T): one Dot per element.
void MmAccNT(const float* a, const float* b, float* c, int m, int n, int k) {
  constexpr int kTile = simd::kDotTileRows;
  const auto tile = simd::ActiveGemmKernels().dot_tile;
  ParallelFor(m, RowGrain(m, 2ull * n * k, kTile), [=](int i0, int i1) {
    for (int i = i0; i < i1; i += kTile) {
      tile(std::min(kTile, i1 - i), k, n, a + static_cast<size_t>(i) * n, b,
           c + static_cast<size_t>(i) * k);
    }
  });
}

// C[k,n] += A[m,k]^T * B[m,n]. Partitioned over the rows of C (p), not the
// rows of A (i): the serial i-outer form scatters every A row into all of C,
// which would race across workers. Per output element the reduction is still
// over i ascending, exactly as the i-outer form, so the bits match.
void MmAccTN(const float* a, const float* b, float* c, int m, int k, int n) {
  MmAxpyTiles(a, 1, k, b, c, k, m, n);
}

// One [m, k] x [k, n] product in tensor/matmul_calls and
// tensor/matmul_flops.
void CountMatMul(int m, int k, int n) {
  static obs::Counter& calls =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
  static obs::Counter& flops =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  calls.Increment();
  flops.Increment(2ULL * static_cast<uint64_t>(m) * static_cast<uint64_t>(k) *
                  static_cast<uint64_t>(n));
}

// Broadcasting classification for binary elementwise ops.
enum class Broadcast { kSame, kRow, kScalar };

Broadcast ClassifyBroadcast(const Tensor& a, const Tensor& b) {
  if (b.size() == 1) return Broadcast::kScalar;
  if (a.shape() == b.shape()) return Broadcast::kSame;
  if (a.rank() == 2 && b.rank() == 1 && b.dim(0) == a.dim(1)) {
    return Broadcast::kRow;
  }
  TELEKIT_CHECK(false) << "incompatible shapes " << ShapeToString(a.shape())
                       << " vs " << ShapeToString(b.shape());
  return Broadcast::kSame;
}

// Maps a flat index of `a` to the corresponding flat index of `b`.
size_t BIndex(Broadcast bc, size_t a_index, int a_cols) {
  switch (bc) {
    case Broadcast::kSame:
      return a_index;
    case Broadcast::kRow:
      return a_index % static_cast<size_t>(a_cols);
    case Broadcast::kScalar:
      return 0;
  }
  return 0;
}

// Forward of a binary elementwise op with broadcasting: fwd(x, y) per
// element, or the optional simd kernels `vsame(a, b, out, n)` (kSame
// directly, kRow by splitting each chunk at row boundaries) and
// `vscalar(a, c, out, n)` (kScalar).
template <typename Fwd, typename VSame, typename VScalar>
NodePtr BinaryForward(const Tensor& a, const Tensor& b, Broadcast bc,
                      int a_cols, Fwd fwd, VSame vsame, VScalar vscalar) {
  NodePtr out = NewNode(a.shape(), AnyGrad(a, b));
  const auto& av = a.data();
  const auto& bv = b.data();
  ParallelFor(static_cast<int>(av.size()), kElemGrain, [&](int lo, int hi) {
    if constexpr (!std::is_same_v<VSame, std::nullptr_t>) {
      if (bc == Broadcast::kSame) {
        vsame(av.data() + lo, bv.data() + lo, out->value.data() + lo,
              hi - lo);
        return;
      }
      if (bc == Broadcast::kRow) {
        int i = lo;
        while (i < hi) {
          const int col0 = static_cast<int>(i % static_cast<size_t>(a_cols));
          const int len = std::min(hi - i, a_cols - col0);
          vsame(av.data() + i, bv.data() + col0, out->value.data() + i, len);
          i += len;
        }
        return;
      }
    }
    if constexpr (!std::is_same_v<VScalar, std::nullptr_t>) {
      if (bc == Broadcast::kScalar) {
        vscalar(av.data() + lo, bv[0], out->value.data() + lo, hi - lo);
        return;
      }
    }
    for (int i = lo; i < hi; ++i) {
      out->value[i] = fwd(av[i], bv[BIndex(bc, i, a_cols)]);
    }
  });
  return out;
}

int ColsOf(const Tensor& a) {
  return a.rank() == 2 ? a.dim(1) : static_cast<int>(a.size());
}

// Generic binary elementwise op (Mul, Div): BinaryForward, and a backward
// where dfa/dfb give d(out)/dx and d(out)/dy as functions of (x, y).
template <typename Fwd, typename Dfa, typename Dfb,
          typename VSame = std::nullptr_t, typename VScalar = std::nullptr_t>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fwd fwd, Dfa dfa, Dfb dfb,
                VSame vsame = nullptr, VScalar vscalar = nullptr) {
  const Broadcast bc = ClassifyBroadcast(a, b);
  const int a_cols = ColsOf(a);
  NodePtr out = BinaryForward(a, b, bc, a_cols, fwd, vsame, vscalar);
  if (out->requires_grad) {
    out->parents = {a.node_ptr(), b.node_ptr()};
    out->backward = [an = a.node_ptr(), bn = b.node_ptr(), bc, a_cols, dfa,
                     dfb](Node* self) {
      if (an->requires_grad) an->EnsureGrad();
      if (bn->requires_grad) bn->EnsureGrad();
      auto range = [&](int lo, int hi) {
        for (int i = lo; i < hi; ++i) {
          const size_t bi = BIndex(bc, static_cast<size_t>(i), a_cols);
          const float g = self->grad[i];
          if (g == 0.0f) continue;
          const float x = an->value[i];
          const float y = bn->value[bi];
          if (an->requires_grad) an->grad[i] += g * dfa(x, y);
          if (bn->requires_grad) bn->grad[bi] += g * dfb(x, y);
        }
      };
      const int size = static_cast<int>(self->grad.size());
      if (bc == Broadcast::kSame || !bn->requires_grad) {
        // Every index writes its own an->grad[i] / bn->grad[i] slot.
        ParallelFor(size, kElemGrain, range);
      } else {
        // kRow/kScalar reduce many indices into one bn->grad slot; keep the
        // serial ascending order so the float sum is reproducible.
        range(0, size);
      }
    };
  }
  return Tensor::FromNode(out);
}

// simd::Add or simd::Sub: out[i] = a[i] +/- b[i].
using ElementwiseKernel = void (*)(const float*, const float*, float*, int);

// acc[i] = kernel(acc[i], g[i]) over n elements, in ComputePool chunks:
// each slot is its own, so any chunking gives the same bits.
void AccumulateInto(float* acc, const float* g, int n,
                    ElementwiseKernel kernel = simd::Add) {
  ParallelFor(n, kElemGrain, [=](int lo, int hi) {
    kernel(acc + lo, g + lo, acc + lo, hi - lo);
  });
}

// Add, or Sub when `subtract`: BinaryForward on the simd kernels, and a
// backward that adds (b of Sub: subtracts) whole rows of the output
// gradient. A row-broadcast b sums the rows in ascending order and a scalar
// b its elements one by one, so each slot's float sum keeps the order of
// the per-element loop.
Tensor AddOrSub(const Tensor& a, const Tensor& b, bool subtract) {
  const Broadcast bc = ClassifyBroadcast(a, b);
  const int a_cols = ColsOf(a);
  const ElementwiseKernel kernel = subtract ? simd::Sub : simd::Add;
  NodePtr out = BinaryForward(
      a, b, bc, a_cols,
      [subtract](float x, float y) { return subtract ? x - y : x + y; },
      kernel,
      [subtract](const float* x, float c, float* o, int n) {
        // x - c and x + (-c) are the same IEEE operation.
        simd::AddScalarTo(x, subtract ? -c : c, o, n);
      });
  if (out->requires_grad) {
    out->parents = {a.node_ptr(), b.node_ptr()};
    out->backward = [an = a.node_ptr(), bn = b.node_ptr(), bc, a_cols,
                     kernel](Node* self) {
      const float* g = self->grad.data();
      const int size = static_cast<int>(self->grad.size());
      if (an->requires_grad) {
        an->EnsureGrad();
        AccumulateInto(an->grad.data(), g, size);
      }
      if (!bn->requires_grad) return;
      bn->EnsureGrad();
      float* gb = bn->grad.data();
      switch (bc) {
        case Broadcast::kSame:
          AccumulateInto(gb, g, size, kernel);
          break;
        case Broadcast::kRow:
          for (int i = 0; i < size; i += a_cols) kernel(gb, g + i, gb, a_cols);
          break;
        case Broadcast::kScalar:
          for (int i = 0; i < size; ++i) kernel(gb, g + i, gb, 1);
          break;
      }
    };
  }
  return Tensor::FromNode(out);
}

// Generic unary elementwise op. df(x, y) is d(out)/dx given input x and
// output y (so activations can reuse the forward value). `vec(x, out, n)`
// is an optional simd forward kernel.
template <typename Fwd, typename Df, typename Vec = std::nullptr_t>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Df df, Vec vec = nullptr) {
  NodePtr out = NewNode(a.shape(), AnyGrad(a));
  const auto& av = a.data();
  ParallelFor(static_cast<int>(av.size()), kElemGrain, [&](int lo, int hi) {
    if constexpr (!std::is_same_v<Vec, std::nullptr_t>) {
      vec(av.data() + lo, out->value.data() + lo, hi - lo);
    } else {
      for (int i = lo; i < hi; ++i) out->value[i] = fwd(av[i]);
    }
  });
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), df](Node* self) {
      an->EnsureGrad();
      ParallelFor(static_cast<int>(self->grad.size()), kElemGrain,
                  [&](int lo, int hi) {
                    for (int i = lo; i < hi; ++i) {
                      an->grad[i] +=
                          self->grad[i] * df(an->value[i], self->value[i]);
                    }
                  });
    };
  }
  return Tensor::FromNode(out);
}

}  // namespace

// --- Linear algebra ----------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TELEKIT_CHECK_EQ(a.rank(), 2);
  TELEKIT_CHECK_EQ(b.rank(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  TELEKIT_CHECK_EQ(k, b.dim(0))
      << "MatMul " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  CountMatMul(m, k, n);
  NodePtr out = NewNode({m, n}, AnyGrad(a, b));
  MatMulAcc(a.data().data(), k, b.data().data(), out->value.data(), m, k, n);
  if (out->requires_grad) {
    out->parents = {a.node_ptr(), b.node_ptr()};
    out->backward = [an = a.node_ptr(), bn = b.node_ptr(), m, k,
                     n](Node* self) {
      if (an->requires_grad) {
        an->EnsureGrad();
        // dA += dC * B^T : [m,n] x [k,n]^T -> [m,k]
        MmAccNT(self->grad.data(), bn->value.data(), an->grad.data(), m, n, k);
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        // dB += A^T * dC : [m,k]^T x [m,n] -> [k,n]
        MmAccTN(an->value.data(), self->grad.data(), bn->grad.data(), m, k, n);
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor Transpose(const Tensor& a) {
  TELEKIT_CHECK_EQ(a.rank(), 2);
  const int m = a.dim(0), n = a.dim(1);
  NodePtr out = NewNode({n, m}, AnyGrad(a));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out->value[static_cast<size_t>(j) * m + i] =
          a.data()[static_cast<size_t>(i) * n + j];
    }
  }
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), m, n](Node* self) {
      an->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          an->grad[static_cast<size_t>(i) * n + j] +=
              self->grad[static_cast<size_t>(j) * m + i];
        }
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  TELEKIT_CHECK_EQ(ShapeSize(shape), a.size());
  NodePtr out = NewNode(shape, AnyGrad(a));
  out->value = a.data();
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr()](Node* self) {
      an->EnsureGrad();
      for (size_t i = 0; i < self->grad.size(); ++i) {
        an->grad[i] += self->grad[i];
      }
    };
  }
  return Tensor::FromNode(out);
}

// --- Structural -------------------------------------------------------------

namespace {

// Shared implementation for row-wise concatenation. Rank-1 inputs count as
// single rows.
Tensor ConcatRowsImpl(const std::vector<Tensor>& parts) {
  TELEKIT_CHECK(!parts.empty());
  int cols = parts[0].rank() == 2 ? parts[0].dim(1)
                                  : static_cast<int>(parts[0].size());
  int rows = 0;
  bool grad = false;
  for (const Tensor& p : parts) {
    const int pc = p.rank() == 2 ? p.dim(1) : static_cast<int>(p.size());
    TELEKIT_CHECK_EQ(pc, cols);
    rows += p.rank() == 2 ? p.dim(0) : 1;
    grad = grad || p.requires_grad();
  }
  NodePtr out = NewNode({rows, cols}, grad);
  size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data().begin(), p.data().end(), out->value.begin() + offset);
    offset += p.data().size();
  }
  if (out->requires_grad) {
    std::vector<NodePtr> parents;
    for (const Tensor& p : parts) parents.push_back(p.node_ptr());
    out->parents = parents;
    out->backward = [parents](Node* self) {
      size_t off = 0;
      for (const NodePtr& p : parents) {
        if (p->requires_grad) {
          p->EnsureGrad();
          for (size_t i = 0; i < p->value.size(); ++i) {
            p->grad[i] += self->grad[off + i];
          }
        }
        off += p->value.size();
      }
    };
  }
  return Tensor::FromNode(out);
}

}  // namespace

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  return ConcatRowsImpl(parts);
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  TELEKIT_CHECK(!parts.empty());
  const int rows = parts[0].dim(0);
  int cols = 0;
  bool grad = false;
  for (const Tensor& p : parts) {
    TELEKIT_CHECK_EQ(p.rank(), 2);
    TELEKIT_CHECK_EQ(p.dim(0), rows);
    cols += p.dim(1);
    grad = grad || p.requires_grad();
  }
  NodePtr out = NewNode({rows, cols}, grad);
  int col_offset = 0;
  for (const Tensor& p : parts) {
    const int pc = p.dim(1);
    for (int i = 0; i < rows; ++i) {
      std::copy(p.data().begin() + static_cast<size_t>(i) * pc,
                p.data().begin() + static_cast<size_t>(i + 1) * pc,
                out->value.begin() + static_cast<size_t>(i) * cols +
                    col_offset);
    }
    col_offset += pc;
  }
  if (out->requires_grad) {
    std::vector<NodePtr> parents;
    std::vector<int> widths;
    for (const Tensor& p : parts) {
      parents.push_back(p.node_ptr());
      widths.push_back(p.dim(1));
    }
    out->parents = parents;
    out->backward = [parents, widths, rows, cols](Node* self) {
      int off = 0;
      for (size_t pi = 0; pi < parents.size(); ++pi) {
        const NodePtr& p = parents[pi];
        const int pc = widths[pi];
        if (p->requires_grad) {
          p->EnsureGrad();
          for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < pc; ++j) {
              p->grad[static_cast<size_t>(i) * pc + j] +=
                  self->grad[static_cast<size_t>(i) * cols + off + j];
            }
          }
        }
        off += pc;
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor ConcatVec(const std::vector<Tensor>& parts) {
  TELEKIT_CHECK(!parts.empty());
  int total = 0;
  bool grad = false;
  for (const Tensor& p : parts) {
    TELEKIT_CHECK_EQ(p.rank(), 1);
    total += p.dim(0);
    grad = grad || p.requires_grad();
  }
  NodePtr out = NewNode({total}, grad);
  size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data().begin(), p.data().end(), out->value.begin() + offset);
    offset += p.data().size();
  }
  if (out->requires_grad) {
    std::vector<NodePtr> parents;
    for (const Tensor& p : parts) parents.push_back(p.node_ptr());
    out->parents = parents;
    out->backward = [parents](Node* self) {
      size_t off = 0;
      for (const NodePtr& p : parents) {
        if (p->requires_grad) {
          p->EnsureGrad();
          for (size_t i = 0; i < p->value.size(); ++i) {
            p->grad[i] += self->grad[off + i];
          }
        }
        off += p->value.size();
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor SliceRows(const Tensor& a, int start, int len) {
  TELEKIT_CHECK_EQ(a.rank(), 2);
  TELEKIT_CHECK(start >= 0 && len > 0 && start + len <= a.dim(0));
  const int n = a.dim(1);
  NodePtr out = NewNode({len, n}, AnyGrad(a));
  std::copy(a.data().begin() + static_cast<size_t>(start) * n,
            a.data().begin() + static_cast<size_t>(start + len) * n,
            out->value.begin());
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), start, n](Node* self) {
      an->EnsureGrad();
      const size_t base = static_cast<size_t>(start) * n;
      for (size_t i = 0; i < self->grad.size(); ++i) {
        an->grad[base + i] += self->grad[i];
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  TELEKIT_CHECK_EQ(a.rank(), 2);
  TELEKIT_CHECK(start >= 0 && len > 0 && start + len <= a.dim(1));
  const int m = a.dim(0), n = a.dim(1);
  NodePtr out = NewNode({m, len}, AnyGrad(a));
  for (int i = 0; i < m; ++i) {
    std::copy(a.data().begin() + static_cast<size_t>(i) * n + start,
              a.data().begin() + static_cast<size_t>(i) * n + start + len,
              out->value.begin() + static_cast<size_t>(i) * len);
  }
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), start, m, n, len](Node* self) {
      an->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < len; ++j) {
          an->grad[static_cast<size_t>(i) * n + start + j] +=
              self->grad[static_cast<size_t>(i) * len + j];
        }
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  TELEKIT_CHECK_EQ(a.rank(), 2);
  const int n = a.dim(1);
  const int m = static_cast<int>(indices.size());
  TELEKIT_CHECK_GT(m, 0);
  for (int idx : indices) TELEKIT_CHECK(idx >= 0 && idx < a.dim(0));
  NodePtr out = NewNode({m, n}, AnyGrad(a));
  ParallelFor(m, RowGrain(m, static_cast<size_t>(n)), [&](int r0, int r1) {
    for (int i = r0; i < r1; ++i) {
      std::copy(a.data().begin() + static_cast<size_t>(indices[i]) * n,
                a.data().begin() + static_cast<size_t>(indices[i] + 1) * n,
                out->value.begin() + static_cast<size_t>(i) * n);
    }
  });
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), indices, n](Node* self) {
      an->EnsureGrad();
      // Indices may repeat (e.g. the same token twice in a sequence), so a
      // plain row-parallel scatter would race. Group positions by
      // destination row: each destination is owned by one worker, and the
      // stable sort keeps positions ascending within a group, preserving
      // the serial accumulation order per slot.
      const int m = static_cast<int>(indices.size());
      std::vector<int> order(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) order[static_cast<size_t>(i)] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](int x, int y) { return indices[x] < indices[y]; });
      std::vector<int> starts;
      starts.reserve(static_cast<size_t>(m) + 1);
      for (int i = 0; i < m; ++i) {
        if (i == 0 || indices[order[i]] != indices[order[i - 1]]) {
          starts.push_back(i);
        }
      }
      starts.push_back(m);
      const int groups = static_cast<int>(starts.size()) - 1;
      const size_t per_group =
          2ull * static_cast<size_t>(m) * n / std::max(groups, 1);
      ParallelFor(groups, RowGrain(groups, per_group), [&](int g0, int g1) {
        for (int g = g0; g < g1; ++g) {
          for (int pos = starts[g]; pos < starts[g + 1]; ++pos) {
            const int i = order[pos];
            const size_t src = static_cast<size_t>(i) * n;
            const size_t dst = static_cast<size_t>(indices[i]) * n;
            for (int j = 0; j < n; ++j) {
              an->grad[dst + j] += self->grad[src + j];
            }
          }
        }
      });
    };
  }
  return Tensor::FromNode(out);
}

Tensor Row(const Tensor& a, int row) {
  return Reshape(SliceRows(a, row, 1), {a.dim(1)});
}

// --- Elementwise arithmetic ---------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return AddOrSub(a, b, /*subtract=*/false);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return AddOrSub(a, b, /*subtract=*/true);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; },
      [](const float* x, const float* y, float* o, int n) {
        simd::Mul(x, y, o, n);
      },
      [](const float* x, float c, float* o, int n) {
        simd::ScaleTo(x, c, o, n);
      });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor AddScalar(const Tensor& a, float c) {
  return UnaryOp(
      a, [c](float x) { return x + c; }, [](float, float) { return 1.0f; },
      [c](const float* x, float* o, int n) { simd::AddScalarTo(x, c, o, n); });
}

Tensor MulScalar(const Tensor& a, float c) {
  return UnaryOp(
      a, [c](float x) { return x * c; }, [c](float, float) { return c; },
      [c](const float* x, float* o, int n) { simd::ScaleTo(x, c, o, n); });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

// --- Elementwise functions -----------------------------------------------------

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; },
      [](const float* x, float* o, int n) { simd::ReluTo(x, o, n); });
}

Tensor Gelu(const Tensor& a) {
  // 0.5 x (1 + tanh(u)), u = c (x + 0.044715 x^3), by simd::Gelu. The
  // backward has the kernel recompute tanh(u) a block at a time (the same
  // bits: a kernel result depends on its element alone) instead of keeping
  // a tensor-sized buffer alive on the tape.
  NodePtr out = NewNode(a.shape(), AnyGrad(a));
  const int size = static_cast<int>(a.size());
  const float* x = a.data().data();
  ParallelFor(size, kElemGrain, [&](int lo, int hi) {
    simd::Gelu(x + lo, out->value.data() + lo, /*tanh_u=*/nullptr, hi - lo);
  });
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), size](Node* self) {
      an->EnsureGrad();
      ParallelFor(size, kElemGrain, [&](int lo, int hi) {
        constexpr int kBlock = 256;
        float y[kBlock], t[kBlock];
        for (int i0 = lo; i0 < hi; i0 += kBlock) {
          const int m = std::min(kBlock, hi - i0);
          simd::Gelu(an->value.data() + i0, y, t, m);
          simd::GeluBackward(an->value.data() + i0, t,
                             self->grad.data() + i0, an->grad.data() + i0, m);
        }
      });
    };
  }
  return Tensor::FromNode(out);
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor LogSigmoid(const Tensor& a) {
  // log sigmoid(x) = -log(1 + exp(-x)) = min(x,0) - log1p(exp(-|x|))
  return UnaryOp(
      a,
      [](float x) {
        return std::min(x, 0.0f) - std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) { return 1.0f / (1.0f + std::exp(x)); });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        TELEKIT_CHECK_GT(x, 0.0f) << "Log of non-positive value";
        return std::log(x);
      },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        TELEKIT_CHECK_GE(x, 0.0f) << "Sqrt of negative value";
        return std::sqrt(x);
      },
      [](float, float y) { return 0.5f / std::max(y, 1e-12f); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

// --- Reductions ------------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  NodePtr out = NewNode({1}, AnyGrad(a));
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  out->value[0] = acc;
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr()](Node* self) {
      an->EnsureGrad();
      const float g = self->grad[0];
      for (float& gv : an->grad) gv += g;
    };
  }
  return Tensor::FromNode(out);
}

Tensor Mean(const Tensor& a) {
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.size()));
}

Tensor MeanRows(const Tensor& a) {
  TELEKIT_CHECK_EQ(a.rank(), 2);
  const int m = a.dim(0), n = a.dim(1);
  NodePtr out = NewNode({n}, AnyGrad(a));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out->value[j] += a.data()[static_cast<size_t>(i) * n + j];
    }
  }
  const float inv_m = 1.0f / static_cast<float>(m);
  for (int j = 0; j < n; ++j) out->value[j] *= inv_m;
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), m, n, inv_m](Node* self) {
      an->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          an->grad[static_cast<size_t>(i) * n + j] += self->grad[j] * inv_m;
        }
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor SumCols(const Tensor& a) {
  TELEKIT_CHECK_EQ(a.rank(), 2);
  const int m = a.dim(0), n = a.dim(1);
  NodePtr out = NewNode({m}, AnyGrad(a));
  for (int i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) acc += a.data()[static_cast<size_t>(i) * n + j];
    out->value[i] = acc;
  }
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), m, n](Node* self) {
      an->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        const float g = self->grad[i];
        for (int j = 0; j < n; ++j) {
          an->grad[static_cast<size_t>(i) * n + j] += g;
        }
      }
    };
  }
  return Tensor::FromNode(out);
}

// --- Neural-net primitives ----------------------------------------------------------

Tensor Softmax(const Tensor& a) {
  // Rank >= 3 would silently be flattened into one giant row by the m/n
  // computation below; reject it loudly (see the rank-2 convention in
  // DESIGN.md §2).
  TELEKIT_CHECK(a.rank() <= 2)
      << "Softmax expects rank <= 2, got " << ShapeToString(a.shape());
  const int m = a.rank() == 2 ? a.dim(0) : 1;
  const int n = a.rank() == 2 ? a.dim(1) : a.dim(0);
  NodePtr out = NewNode(a.shape(), AnyGrad(a));
  const int grain = RowGrain(m, 32ull * static_cast<size_t>(n));
  ParallelFor(m, grain, [&](int r0, int r1) {
    for (int i = r0; i < r1; ++i) {
      SoftmaxRow(a.data().data() + static_cast<size_t>(i) * n,
                 out->value.data() + static_cast<size_t>(i) * n, n);
    }
  });
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), m, n, grain](Node* self) {
      an->EnsureGrad();
      ParallelFor(m, grain, [&](int r0, int r1) {
        for (int i = r0; i < r1; ++i) {
          const float* y = self->value.data() + static_cast<size_t>(i) * n;
          const float* dy = self->grad.data() + static_cast<size_t>(i) * n;
          float* dx = an->grad.data() + static_cast<size_t>(i) * n;
          const float dot = simd::Dot(dy, y, n);
          for (int j = 0; j < n; ++j) dx[j] += y[j] * (dy[j] - dot);
        }
      });
    };
  }
  return Tensor::FromNode(out);
}

namespace {

// Rows and columns of a rank <= 2 tensor normalized over its last dim.
void LayerNormShape(const Tensor& a, const Tensor& gain, const Tensor& bias,
                    int* m, int* n) {
  TELEKIT_CHECK(a.rank() <= 2)
      << "LayerNorm expects rank <= 2, got " << ShapeToString(a.shape());
  *m = a.rank() == 2 ? a.dim(0) : 1;
  *n = a.rank() == 2 ? a.dim(1) : a.dim(0);
  TELEKIT_CHECK_EQ(gain.rank(), 1);
  TELEKIT_CHECK_EQ(gain.dim(0), *n);
  TELEKIT_CHECK_EQ(bias.rank(), 1);
  TELEKIT_CHECK_EQ(bias.dim(0), *n);
}

// What LayerNorm caches for its backward: the normalized rows and each
// row's inverse stddev.
struct LayerNormCache {
  std::vector<float> xhat;
  std::vector<float> inv_std;
};

// LayerNorm's backward from the output gradient dy [m, n]: the gain and
// bias gradients, then dx += d(out)/d(in) when dx is not null.
void LayerNormBackward(const float* dy, const LayerNormCache& cache,
                       Node* gn, Node* bn, float* dx, int m, int n,
                       int grain) {
  if (gn->requires_grad) gn->EnsureGrad();
  if (bn->requires_grad) bn->EnsureGrad();
  // Gain/bias gradients reduce over rows into shared [n] slots: rows in
  // ascending order, so each slot's float sum is reproducible (the column
  // kernels keep each slot's own order).
  if (gn->requires_grad || bn->requires_grad) {
    for (int i = 0; i < m; ++i) {
      const float* dyr = dy + static_cast<size_t>(i) * n;
      const float* xh = cache.xhat.data() + static_cast<size_t>(i) * n;
      if (gn->requires_grad) simd::MulAcc(dyr, xh, gn->grad.data(), n);
      if (bn->requires_grad) {
        simd::Add(bn->grad.data(), dyr, bn->grad.data(), n);
      }
    }
  }
  if (dx == nullptr) return;
  // dx touches only row i — safe to fan out.
  const float* gain = gn->value.data();
  ParallelFor(m, grain, [&](int r0, int r1) {
    for (int i = r0; i < r1; ++i) {
      const float* dyr = dy + static_cast<size_t>(i) * n;
      const float* xh = cache.xhat.data() + static_cast<size_t>(i) * n;
      // dxhat = dy * gain; dx = istd * (dxhat - mean(dxhat)
      //                                 - xhat * mean(dxhat * xhat)).
      // The two means are serial sums; the update is per element.
      float mean_dxhat = 0.0f;
      float mean_dxhat_xhat = 0.0f;
      for (int j = 0; j < n; ++j) {
        const float dxh = dyr[j] * gain[j];
        mean_dxhat += dxh;
        mean_dxhat_xhat += dxh * xh[j];
      }
      mean_dxhat /= static_cast<float>(n);
      mean_dxhat_xhat /= static_cast<float>(n);
      simd::LayerNormDx(dyr, gain, xh, mean_dxhat, mean_dxhat_xhat,
                        cache.inv_std[i], dx + static_cast<size_t>(i) * n, n);
    }
  });
}

}  // namespace

Tensor LayerNorm(const Tensor& a, const Tensor& gain, const Tensor& bias,
                 float eps) {
  int m = 0, n = 0;
  LayerNormShape(a, gain, bias, &m, &n);
  const bool grad = a.requires_grad() || gain.requires_grad() ||
                    bias.requires_grad();
  NodePtr out = NewNode(a.shape(), grad);
  auto cache = std::make_shared<LayerNormCache>();
  cache->xhat.resize(a.data().size());
  cache->inv_std.resize(static_cast<size_t>(m));
  const int grain = RowGrain(m, 8ull * static_cast<size_t>(n));
  ParallelFor(m, grain, [&](int r0, int r1) {
    for (int i = r0; i < r1; ++i) {
      const size_t row = static_cast<size_t>(i) * n;
      cache->inv_std[i] = LayerNormRow(
          a.data().data() + row, gain.data().data(), bias.data().data(), eps,
          cache->xhat.data() + row, out->value.data() + row, n);
    }
  });
  if (out->requires_grad) {
    out->parents = {a.node_ptr(), gain.node_ptr(), bias.node_ptr()};
    out->backward = [an = a.node_ptr(), gn = gain.node_ptr(),
                     bn = bias.node_ptr(), cache, m, n, grain](Node* self) {
      float* dx = nullptr;
      if (an->requires_grad) {
        an->EnsureGrad();
        dx = an->grad.data();
      }
      LayerNormBackward(self->grad.data(), *cache, gn.get(), bn.get(), dx, m,
                        n, grain);
    };
  }
  return Tensor::FromNode(out);
}

// --- Fused nodes ---------------------------------------------------------------
//
// Each replaces a chain of the nodes above (ops.h, "Fused nodes") and
// replays its kernel calls: the same GEMM tiles on the same operand
// layouts, the same row loops, and zeroed scratch where the chain's inner
// node accumulated into a fresh gradient buffer (0.0f + g is not g for
// g = -0).

Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  TELEKIT_CHECK_EQ(x.rank(), 2);
  TELEKIT_CHECK_EQ(w.rank(), 2);
  const int m = x.dim(0), k = x.dim(1), n = w.dim(1);
  TELEKIT_CHECK_EQ(k, w.dim(0))
      << "Linear " << ShapeToString(x.shape()) << " x "
      << ShapeToString(w.shape());
  TELEKIT_CHECK(bias.rank() == 1 && bias.dim(0) == n)
      << "Linear bias " << ShapeToString(bias.shape()) << " for " << n
      << " outputs";
  CountMatMul(m, k, n);
  NodePtr out = NewNode(
      {m, n}, x.requires_grad() || w.requires_grad() || bias.requires_grad());
  LinearRows(x.data().data(), m, k, w.data().data(), bias.data().data(), n,
             out->value.data());
  if (out->requires_grad) {
    out->parents = {x.node_ptr(), w.node_ptr(), bias.node_ptr()};
    out->backward = [xn = x.node_ptr(), wn = w.node_ptr(),
                     bn = bias.node_ptr(), m, k, n](Node* self) {
      // The node's own gradient is the product's: it was accumulated from
      // zero, so it holds no -0 for a zeroed copy to turn into +0.
      const float* g = self->grad.data();
      if (bn->requires_grad) {
        bn->EnsureGrad();
        for (int i = 0; i < m; ++i) {
          simd::Add(bn->grad.data(), g + static_cast<size_t>(i) * n,
                    bn->grad.data(), n);
        }
      }
      if (xn->requires_grad) {
        xn->EnsureGrad();
        MmAccNT(g, wn->value.data(), xn->grad.data(), m, n, k);
      }
      if (wn->requires_grad) {
        wn->EnsureGrad();
        MmAccTN(xn->value.data(), g, wn->grad.data(), m, k, n);
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int num_heads) {
  TELEKIT_CHECK(q.rank() == 2 && k.rank() == 2 && k.shape() == v.shape() &&
                q.dim(1) == k.dim(1))
      << "Attention q " << ShapeToString(q.shape()) << ", k "
      << ShapeToString(k.shape()) << ", v " << ShapeToString(v.shape());
  const int lq = q.dim(0), len = k.dim(0), d = q.dim(1);
  TELEKIT_CHECK(num_heads > 0 && d % num_heads == 0)
      << d << " columns in " << num_heads << " heads";
  const int hd = d / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const size_t qrows = static_cast<size_t>(lq);
  const size_t rows = static_cast<size_t>(len);
  // Per head, what its backward reads: Q_h [Lq, hd], K_h^T [hd, L],
  // V_h [L, hd] and P [Lq, L].
  const size_t per_head = (qrows + 2 * rows) * hd + qrows * rows;
  auto saved = std::make_shared<std::vector<float>>(per_head * num_heads);
  std::vector<float> head(qrows * hd);
  NodePtr out = NewNode({lq, d}, q.requires_grad() || k.requires_grad() ||
                                     v.requires_grad());
  for (int h = 0; h < num_heads; ++h) {
    const int col = h * hd;
    float* qh = saved->data() + h * per_head;
    float* kt = qh + qrows * hd;
    float* vh = kt + rows * hd;
    float* p = vh + rows * hd;
    CountMatMul(lq, hd, len);
    CountMatMul(lq, len, hd);
    AttentionHead(q.data().data() + col, k.data().data() + col,
                  v.data().data() + col, d, lq, len, hd, scale, kt, vh, p,
                  head.data(), out->value.data() + col);
    for (size_t i = 0; i < qrows; ++i) {
      std::copy_n(q.data().data() + i * d + col, hd, qh + i * hd);
    }
  }
  if (out->requires_grad) {
    out->parents = {q.node_ptr(), k.node_ptr(), v.node_ptr()};
    out->backward = [qn = q.node_ptr(), kn = k.node_ptr(), vn = v.node_ptr(),
                     saved, lq, len, d, hd, num_heads, scale](Node* self) {
      const size_t qrows = static_cast<size_t>(lq);
      const size_t rows = static_cast<size_t>(len);
      const size_t per_head = (qrows + 2 * rows) * hd + qrows * rows;
      const bool scores_grad = qn->requires_grad || kn->requires_grad;
      if (qn->requires_grad) qn->EnsureGrad();
      if (kn->requires_grad) kn->EnsureGrad();
      if (vn->requires_grad) vn->EnsureGrad();
      // dH_h, then the zeroed buffers the composite's fresh gradients
      // were: dP (then dS, in place), dV_h, dQ_h, dK_h^T.
      std::vector<float> scratch((2 * qrows + 2 * rows) * hd + qrows * rows);
      float* dh = scratch.data();
      float* dp = dh + qrows * hd;
      float* dv = dp + qrows * rows;
      float* dq = dv + rows * hd;
      float* dkt = dq + qrows * hd;
      for (int h = 0; h < num_heads; ++h) {
        const int col = h * hd;
        const float* qh = saved->data() + h * per_head;
        const float* kt = qh + qrows * hd;
        const float* vh = kt + rows * hd;
        const float* p = vh + rows * hd;
        for (size_t i = 0; i < qrows; ++i) {
          std::copy_n(self->grad.data() + i * d + col, hd, dh + i * hd);
        }
        if (vn->requires_grad) {
          std::fill_n(dv, rows * hd, 0.0f);
          MmAccTN(p, dh, dv, lq, len, hd);
          for (size_t i = 0; i < rows; ++i) {
            float* gv = vn->grad.data() + i * d + col;
            simd::Add(gv, dv + i * hd, gv, hd);
          }
        }
        if (!scores_grad) continue;
        std::fill_n(dp, qrows * rows, 0.0f);
        MmAccNT(dh, vh, dp, lq, hd, len);
        // Softmax's row backward into a zeroed gradient, then MulScalar's.
        for (size_t i = 0; i < qrows; ++i) {
          const float* y = p + i * rows;
          float* dy = dp + i * rows;
          const float dot = simd::Dot(dy, y, len);
          for (int j = 0; j < len; ++j) {
            dy[j] = 0.0f + (0.0f + y[j] * (dy[j] - dot)) * scale;
          }
        }
        if (qn->requires_grad) {
          std::fill_n(dq, qrows * hd, 0.0f);
          MmAccNT(dp, kt, dq, lq, len, hd);
          for (size_t i = 0; i < qrows; ++i) {
            float* gq = qn->grad.data() + i * d + col;
            simd::Add(gq, dq + i * hd, gq, hd);
          }
        }
        if (kn->requires_grad) {
          std::fill_n(dkt, rows * hd, 0.0f);
          MmAccTN(qh, dp, dkt, lq, hd, len);
          for (size_t i = 0; i < rows; ++i) {
            float* gk = kn->grad.data() + i * d + col;
            for (int c = 0; c < hd; ++c) gk[c] += dkt[c * rows + i];
          }
        }
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor AddLayerNorm(const Tensor& x, const Tensor& y, const Tensor& gain,
                    const Tensor& bias, float eps) {
  TELEKIT_CHECK(x.shape() == y.shape())
      << "AddLayerNorm " << ShapeToString(x.shape()) << " + "
      << ShapeToString(y.shape());
  int m = 0, n = 0;
  LayerNormShape(x, gain, bias, &m, &n);
  const bool grad = x.requires_grad() || y.requires_grad() ||
                    gain.requires_grad() || bias.requires_grad();
  NodePtr out = NewNode(x.shape(), grad);
  auto cache = std::make_shared<LayerNormCache>();
  cache->xhat.resize(x.data().size());
  cache->inv_std.resize(static_cast<size_t>(m));
  const int grain = RowGrain(m, 8ull * static_cast<size_t>(n));
  ParallelFor(m, grain, [&](int r0, int r1) {
    for (int i = r0; i < r1; ++i) {
      const size_t row = static_cast<size_t>(i) * n;
      float* sum = out->value.data() + row;
      simd::Add(x.data().data() + row, y.data().data() + row, sum, n);
      cache->inv_std[i] =
          LayerNormRow(sum, gain.data().data(), bias.data().data(), eps,
                       cache->xhat.data() + row, sum, n);
    }
  });
  if (out->requires_grad) {
    out->parents = {x.node_ptr(), y.node_ptr(), gain.node_ptr(),
                    bias.node_ptr()};
    out->backward = [xn = x.node_ptr(), yn = y.node_ptr(),
                     gn = gain.node_ptr(), bn = bias.node_ptr(), cache, m, n,
                     grain](Node* self) {
      const bool sum_grad = xn->requires_grad || yn->requires_grad;
      // The sum's gradient, in zeroed scratch as the Add node's was.
      std::vector<float> dsum(sum_grad ? self->grad.size() : 0, 0.0f);
      LayerNormBackward(self->grad.data(), *cache, gn.get(), bn.get(),
                        sum_grad ? dsum.data() : nullptr, m, n, grain);
      const int size = static_cast<int>(dsum.size());
      if (xn->requires_grad) {
        xn->EnsureGrad();
        AccumulateInto(xn->grad.data(), dsum.data(), size);
      }
      if (yn->requires_grad) {
        yn->EnsureGrad();
        AccumulateInto(yn->grad.data(), dsum.data(), size);
      }
    };
  }
  return Tensor::FromNode(out);
}

namespace {

// a * mask as one node; its backward adds grad * mask.
Tensor ApplyDropoutMask(const Tensor& a,
                        std::shared_ptr<std::vector<float>> mask) {
  NodePtr out = NewNode(a.shape(), AnyGrad(a));
  const int size = static_cast<int>(mask->size());
  simd::Mul(a.data().data(), mask->data(), out->value.data(), size);
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), mask, size](Node* self) {
      an->EnsureGrad();
      simd::MulAcc(self->grad.data(), mask->data(), an->grad.data(), size);
    };
  }
  return Tensor::FromNode(out);
}

}  // namespace

Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training) {
  TELEKIT_CHECK(p >= 0.0f && p < 1.0f);
  if (!training || p == 0.0f) return a;
  auto mask = std::make_shared<std::vector<float>>(a.data().size());
  rng.DropoutMask(p, 1.0f / (1.0f - p), mask->data(), mask->size());
  return ApplyDropoutMask(a, std::move(mask));
}

Tensor DropoutRows(const Tensor& a, const std::vector<int>& rows,
                   int total_rows, float p, Rng& rng, bool training) {
  TELEKIT_CHECK(p >= 0.0f && p < 1.0f);
  TELEKIT_CHECK(a.rank() == 2 && a.dim(0) == static_cast<int>(rows.size()))
      << "DropoutRows " << ShapeToString(a.shape()) << " for " << rows.size()
      << " rows";
  if (!training || p == 0.0f) return a;
  // The whole mask's draws, row by row: the selected rows' into the mask,
  // the others only advance the stream.
  const size_t n = static_cast<size_t>(a.dim(1));
  const float keep = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(a.data().size());
  int next = 0;  // the first row whose draws are still ahead
  for (size_t r = 0; r < rows.size(); ++r) {
    TELEKIT_CHECK(rows[r] >= next && rows[r] < total_rows)
        << "DropoutRows needs strictly ascending rows in [0, " << total_rows
        << "), got " << rows[r];
    rng.Discard(static_cast<size_t>(rows[r] - next) * n);
    rng.DropoutMask(p, keep, mask->data() + r * n, n);
    next = rows[r] + 1;
  }
  rng.Discard(static_cast<size_t>(total_rows - next) * n);
  return ApplyDropoutMask(a, std::move(mask));
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids) {
  return GatherRows(table, ids);
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  TELEKIT_CHECK(a.rank() <= 2)
      << "L2NormalizeRows expects rank <= 2, got "
      << ShapeToString(a.shape());
  const int m = a.rank() == 2 ? a.dim(0) : 1;
  const int n = a.rank() == 2 ? a.dim(1) : a.dim(0);
  NodePtr out = NewNode(a.shape(), AnyGrad(a));
  auto inv_norm = std::make_shared<std::vector<float>>(m);
  const int grain = RowGrain(m, 4ull * static_cast<size_t>(n));
  ParallelFor(m, grain, [&](int r0, int r1) {
    for (int i = r0; i < r1; ++i) {
      const float* row = a.data().data() + static_cast<size_t>(i) * n;
      const float sq = simd::ReduceSumSqDiff(row, 0.0f, n);
      const float inv = 1.0f / (std::sqrt(sq) + eps);
      (*inv_norm)[i] = inv;
      simd::ScaleTo(row, inv, out->value.data() + static_cast<size_t>(i) * n,
                    n);
    }
  });
  if (out->requires_grad) {
    out->parents = {a.node_ptr()};
    out->backward = [an = a.node_ptr(), inv_norm, m, n, grain](Node* self) {
      an->EnsureGrad();
      ParallelFor(m, grain, [&](int r0, int r1) {
        for (int i = r0; i < r1; ++i) {
          const float* y = self->value.data() + static_cast<size_t>(i) * n;
          const float* dy = self->grad.data() + static_cast<size_t>(i) * n;
          float* dx = an->grad.data() + static_cast<size_t>(i) * n;
          const float dot = simd::Dot(dy, y, n);
          const float inv = (*inv_norm)[i];
          for (int j = 0; j < n; ++j) dx[j] += inv * (dy[j] - y[j] * dot);
        }
      });
    };
  }
  return Tensor::FromNode(out);
}

// --- Row kernels on raw buffers --------------------------------------------

void MatMulAcc(const float* a, int lda, const float* b, float* c, int m,
               int k, int n) {
  MmAxpyTiles(a, static_cast<size_t>(lda), 1, b, c, m, k, n);
}

void LinearRows(const float* x, int rows, int k, const float* w,
                const float* bias, int n, float* out) {
  std::fill_n(out, static_cast<size_t>(rows) * n, 0.0f);
  MatMulAcc(x, k, w, out, rows, k, n);
  for (int r = 0; r < rows; ++r) {
    float* row = out + static_cast<size_t>(r) * n;
    simd::Add(row, bias, row, n);
  }
}

void SoftmaxRow(const float* x, float* out, int n) {
  simd::AddScalarTo(x, -simd::ReduceMax(x, n), out, n);
  simd::Exp(out, out, n);
  simd::ScaleTo(out, 1.0f / simd::ReduceSum(out, n), out, n);
}

// The composite's steps: MatMul of the Q_h slice by Transpose(K_h), the
// MulScalar, Softmax by rows, then MatMul by the V_h slice. Each query
// row's result depends on that row and on K and V alone.
void AttentionHead(const float* q, const float* k, const float* v, int ld,
                   int q_len, int len, int hd, float scale, float* kt,
                   float* vh, float* p, float* head, float* ctx) {
  const size_t qrows = static_cast<size_t>(q_len);
  const size_t rows = static_cast<size_t>(len);
  for (size_t j = 0; j < rows; ++j) {
    const float* kj = k + j * ld;
    for (int c = 0; c < hd; ++c) kt[c * rows + j] = kj[c];
    std::copy_n(v + j * ld, hd, vh + j * hd);
  }
  std::fill_n(p, qrows * rows, 0.0f);
  MatMulAcc(q, ld, kt, p, q_len, hd, len);
  simd::ScaleTo(p, scale, p, q_len * len);
  for (size_t i = 0; i < qrows; ++i) {
    SoftmaxRow(p + i * rows, p + i * rows, len);
  }
  std::fill_n(head, qrows * hd, 0.0f);
  MatMulAcc(p, len, vh, head, q_len, len, hd);
  for (size_t i = 0; i < qrows; ++i) {
    std::copy_n(head + i * hd, hd, ctx + i * ld);
  }
}

float LayerNormRow(const float* x, const float* gain, const float* bias,
                   float eps, float* xhat, float* out, int n) {
  const float mean = simd::ReduceSum(x, n) / static_cast<float>(n);
  const float var = simd::ReduceSumSqDiff(x, mean, n) / static_cast<float>(n);
  const float istd = 1.0f / std::sqrt(var + eps);
  simd::NormalizeAffine(x, mean, istd, gain, bias, xhat, out, n);
  return istd;
}

// --- Losses --------------------------------------------------------------------------

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& labels) {
  TELEKIT_CHECK_EQ(logits.rank(), 2);
  const int m = logits.dim(0), c = logits.dim(1);
  TELEKIT_CHECK_EQ(static_cast<int>(labels.size()), m);
  int valid = 0;
  for (int label : labels) {
    TELEKIT_CHECK(label >= -1 && label < c);
    if (label >= 0) ++valid;
  }
  TELEKIT_CHECK_GT(valid, 0) << "no valid labels";
  NodePtr out = NewNode({1}, AnyGrad(logits));
  // Cache the softmax for the backward pass.
  auto probs = std::make_shared<std::vector<float>>(logits.data().size());
  double loss = 0.0;
  for (int i = 0; i < m; ++i) {
    const float* row = logits.data().data() + static_cast<size_t>(i) * c;
    float* prow = probs->data() + static_cast<size_t>(i) * c;
    float max_v = row[0];
    for (int j = 1; j < c; ++j) max_v = std::max(max_v, row[j]);
    float denom = 0.0f;
    for (int j = 0; j < c; ++j) {
      prow[j] = std::exp(row[j] - max_v);
      denom += prow[j];
    }
    const float inv = 1.0f / denom;
    for (int j = 0; j < c; ++j) prow[j] *= inv;
    if (labels[i] >= 0) {
      loss -= std::log(std::max(prow[labels[i]], 1e-12f));
    }
  }
  out->value[0] = static_cast<float>(loss / valid);
  if (out->requires_grad) {
    out->parents = {logits.node_ptr()};
    out->backward = [ln = logits.node_ptr(), probs, labels, m, c,
                     valid](Node* self) {
      ln->EnsureGrad();
      const float g = self->grad[0] / static_cast<float>(valid);
      for (int i = 0; i < m; ++i) {
        if (labels[i] < 0) continue;
        const float* prow = probs->data() + static_cast<size_t>(i) * c;
        float* drow = ln->grad.data() + static_cast<size_t>(i) * c;
        for (int j = 0; j < c; ++j) {
          drow[j] += g * (prow[j] - (j == labels[i] ? 1.0f : 0.0f));
        }
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& labels) {
  const int m = static_cast<int>(logits.size());
  TELEKIT_CHECK_EQ(static_cast<int>(labels.size()), m);
  NodePtr out = NewNode({1}, AnyGrad(logits));
  double loss = 0.0;
  for (int i = 0; i < m; ++i) {
    const float z = logits.data()[i];
    const float y = labels[i];
    // max(z,0) - z*y + log(1 + exp(-|z|)), numerically stable.
    loss += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  out->value[0] = static_cast<float>(loss / m);
  if (out->requires_grad) {
    out->parents = {logits.node_ptr()};
    out->backward = [ln = logits.node_ptr(), labels, m](Node* self) {
      ln->EnsureGrad();
      const float g = self->grad[0] / static_cast<float>(m);
      for (int i = 0; i < m; ++i) {
        const float z = ln->value[i];
        const float sig = 1.0f / (1.0f + std::exp(-z));
        ln->grad[i] += g * (sig - labels[i]);
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor LogisticLoss(const Tensor& scores, const std::vector<float>& labels) {
  const int m = static_cast<int>(scores.size());
  TELEKIT_CHECK_EQ(static_cast<int>(labels.size()), m);
  for (float y : labels) TELEKIT_CHECK(y == 1.0f || y == -1.0f);
  NodePtr out = NewNode({1}, AnyGrad(scores));
  double loss = 0.0;
  for (int i = 0; i < m; ++i) {
    const float margin = -labels[i] * scores.data()[i];
    // log(1 + exp(margin)) computed stably.
    loss += std::max(margin, 0.0f) + std::log1p(std::exp(-std::fabs(margin)));
  }
  out->value[0] = static_cast<float>(loss / m);
  if (out->requires_grad) {
    out->parents = {scores.node_ptr()};
    out->backward = [sn = scores.node_ptr(), labels, m](Node* self) {
      sn->EnsureGrad();
      const float g = self->grad[0] / static_cast<float>(m);
      for (int i = 0; i < m; ++i) {
        const float margin = -labels[i] * sn->value[i];
        const float sig = 1.0f / (1.0f + std::exp(-margin));
        sn->grad[i] += g * (-labels[i]) * sig;
      }
    };
  }
  return Tensor::FromNode(out);
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  TELEKIT_CHECK(pred.shape() == target.shape());
  return Mean(Square(Sub(pred, target)));
}

}  // namespace tensor
}  // namespace telekit
