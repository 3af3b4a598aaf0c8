#ifndef TELEKIT_TENSOR_OPS_H_
#define TELEKIT_TENSOR_OPS_H_

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace telekit {
namespace tensor {

// All operations are differentiable: if any input has requires_grad(), the
// result records a backward closure on the tape. Shapes follow the comments;
// rank-1 tensors are treated as row vectors where noted.

/// Scoped inference mode (torch.no_grad analogue). While at least one
/// NoGradGuard is alive on the current thread, ops produce tape-free
/// results even when inputs require gradients: no parent edges, no
/// backward closures, no gradient buffers. Forward values are unchanged.
/// Guards nest; the flag is thread-local, so concurrent inference threads
/// can run under guards while a training thread keeps building tape.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

/// False while a NoGradGuard is alive on this thread.
bool GradEnabled();

// --- Linear algebra ---------------------------------------------------------

/// Matrix product: [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Transpose of a matrix: [m, n] -> [n, m].
Tensor Transpose(const Tensor& a);

/// Same data, new shape (sizes must match).
Tensor Reshape(const Tensor& a, const Shape& shape);

// --- Structural -------------------------------------------------------------

/// Concatenates matrices along rows: [m1, n] + [m2, n] -> [m1+m2, n].
/// Rank-1 inputs are treated as [1, n] rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Concatenates along columns: [m, n1] + [m, n2] -> [m, n1+n2].
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenates rank-1 vectors: [n1] + [n2] -> [n1+n2].
Tensor ConcatVec(const std::vector<Tensor>& parts);

/// Rows [start, start+len) of a matrix.
Tensor SliceRows(const Tensor& a, int start, int len);

/// Columns [start, start+len) of a matrix.
Tensor SliceCols(const Tensor& a, int start, int len);

/// Selects rows by index (duplicates allowed); backward scatter-adds.
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

/// A single row of a matrix as a rank-1 vector [n].
Tensor Row(const Tensor& a, int row);

// --- Elementwise arithmetic --------------------------------------------------

/// Elementwise a + b. Shapes must match, or b may be rank-1 [n] broadcast
/// over the rows of a [m, n], or b may be a scalar [1].
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise a - b (same broadcasting as Add).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise a * b (same broadcasting as Add).
Tensor Mul(const Tensor& a, const Tensor& b);
/// Elementwise a / b (same broadcasting as Add). b must be nonzero.
Tensor Div(const Tensor& a, const Tensor& b);
/// a + c for a constant c.
Tensor AddScalar(const Tensor& a, float c);
/// a * c for a constant c.
Tensor MulScalar(const Tensor& a, float c);
/// -a.
Tensor Neg(const Tensor& a);

// --- Elementwise functions ----------------------------------------------------

Tensor Relu(const Tensor& a);
/// GELU, tanh approximation (as in BERT).
Tensor Gelu(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
/// Numerically stable log(sigmoid(a)).
Tensor LogSigmoid(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs must be positive.
Tensor Log(const Tensor& a);
/// Elementwise square root; inputs must be non-negative.
Tensor Sqrt(const Tensor& a);
/// Elementwise square.
Tensor Square(const Tensor& a);

// --- Reductions ----------------------------------------------------------------

/// Sum of all elements -> scalar [1].
Tensor Sum(const Tensor& a);
/// Mean of all elements -> scalar [1].
Tensor Mean(const Tensor& a);
/// Column means over rows: [m, n] -> [n]. (Mean pooling over tokens.)
Tensor MeanRows(const Tensor& a);
/// Per-row sums: [m, n] -> [m].
Tensor SumCols(const Tensor& a);

// --- Neural-net primitives --------------------------------------------------------

/// Row-wise softmax over the last dimension of [m, n] (or over a [n] vector).
Tensor Softmax(const Tensor& a);

/// Layer normalization over the last dimension with learnable gain/bias [n].
Tensor LayerNorm(const Tensor& a, const Tensor& gain, const Tensor& bias,
                 float eps = 1e-5f);

// --- Fused nodes ------------------------------------------------------------------
//
// Each is one tape node for a chain of the ops above whose inner results
// have no other consumer. Forward and backward make exactly the kernel
// calls of that chain, on the same operand layouts and, where the chain
// accumulated into a freshly zeroed gradient, into zeroed scratch: values
// and gradients keep the chain's bits (DESIGN.md §3, "Training tape").

/// Add(MatMul(x, w), bias): x [m, k], w [k, n], bias [n] -> [m, n].
Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& bias);

/// Multi-head self-attention of one unpadded sequence on projected rows
/// q [Lq, d] and k, v [L, d]: head h (columns [h*d/H, (h+1)*d/H)) is
/// MatMul(Softmax(MulScalar(MatMul(Q_h, Transpose(K_h)), 1/sqrt(d/H))),
/// V_h), and the heads are concatenated by columns -> [Lq, d]. An output
/// row depends on its own query row and on k and v, so q may hold any
/// subset of a sequence's query rows (Lq < L); with those rows in
/// ascending order, values and gradients are the full node's rows and
/// gradients bit for bit (DESIGN.md §3, "Training tape", rule 4).
Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int num_heads);

/// LayerNorm(Add(x, y), gain, bias) for same-shaped x, y: a post-LN
/// residual.
Tensor AddLayerNorm(const Tensor& x, const Tensor& y, const Tensor& gain,
                    const Tensor& bias, float eps = 1e-5f);

/// Inverted dropout: keeps each unit with prob. 1-p and rescales by 1/(1-p).
/// Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training);

/// Dropout of rows `rows` (strictly ascending) of a [total_rows, n]
/// tensor, given only those rows: a [rows.size(), n]. It makes the draws
/// of the whole [total_rows, n] mask, as Dropout of the whole tensor would,
/// and applies the rows' part, so values, gradients and the stream
/// afterwards are that Dropout's rows.
Tensor DropoutRows(const Tensor& a, const std::vector<int>& rows,
                   int total_rows, float p, Rng& rng, bool training);

/// Embedding lookup: table [V, d], ids in [0, V) -> [len(ids), d].
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids);

/// Rescales each row to unit L2 norm (eps guards zero rows).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-8f);

// --- Row kernels on raw buffers ---------------------------------------------
//
// What MatMul, Softmax and LayerNorm compute, on row-major float buffers,
// with no node and no tape. The ops above run them too, so the tape-free
// inference forward (core::TransformerEncoder::InferCls) that calls them
// gets the ops' bits.

/// c[m, n] += a[m, k] * b[k, n], where row r of a starts at a + r * lda:
/// MatMul's register tiles and row partition.
void MatMulAcc(const float* a, int lda, const float* b, float* c, int m,
               int k, int n);

/// out[rows, n] = x[rows, k] w[k, n] + bias[n], row r of x at x + r * k:
/// MatMulAcc into a zeroed out, then the bias added row by row (Linear's
/// forward).
void LinearRows(const float* x, int rows, int k, const float* w,
                const float* bias, int n, float* out);

/// One softmax row: out = exp(x - max x) / sum (out may alias x).
void SoftmaxRow(const float* x, float* out, int n);

/// One attention head (Attention's forward per head): q and ctx point at
/// the head's first column of q_len rows, k and v at that of len rows, all
/// rows `ld` floats apart. Writes kt [hd, len] (K_h transposed), vh
/// [len, hd] (V_h), p [q_len, len] (the softmax of Q_h kt * scale, by rows)
/// and head [q_len, hd] = p vh, then copies head into ctx's hd columns.
void AttentionHead(const float* q, const float* k, const float* v, int ld,
                   int q_len, int len, int hd, float scale, float* kt,
                   float* vh, float* p, float* head, float* ctx);

/// One layer-norm row: out = (x - mean) / sqrt(var + eps) * gain + bias.
/// `xhat` (may be null) receives the normalized row. Returns
/// 1 / sqrt(var + eps).
float LayerNormRow(const float* x, const float* gain, const float* bias,
                   float eps, float* xhat, float* out, int n);

// --- Losses -----------------------------------------------------------------------

/// Mean token cross-entropy over logits [m, C] with integer labels;
/// label -1 means "ignore this row".
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& labels);

/// Mean binary cross-entropy over logits [m] (or [m,1]) with labels in {0,1}.
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& labels);

/// Mean of log(1 + exp(-y_i * s_i)) for labels y in {-1, +1}
/// (the RCA logistic loss, Eq. 16 of the paper).
Tensor LogisticLoss(const Tensor& scores, const std::vector<float>& labels);

/// Mean squared error between two same-shaped tensors.
Tensor MseLoss(const Tensor& pred, const Tensor& target);

}  // namespace tensor
}  // namespace telekit

#endif  // TELEKIT_TENSOR_OPS_H_
