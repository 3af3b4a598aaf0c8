#ifndef TELEKIT_TENSOR_TENSOR_H_
#define TELEKIT_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace telekit {
namespace tensor {

/// Tensor dimensions. TeleKit tensors are rank-1 (vectors) or rank-2
/// (matrices); that is sufficient for every model in the paper (attention
/// is expressed head-by-head as 2-D matmuls).
using Shape = std::vector<int>;

/// Number of elements implied by a shape.
int64_t ShapeSize(const Shape& shape);

/// "[m, n]" rendering for error messages.
std::string ShapeToString(const Shape& shape);

namespace internal {

/// One node of the autograd tape: the forward value plus (optionally) a
/// gradient buffer, parent edges, and a backward closure that scatters
/// this node's gradient into its parents.
struct Node {
  Shape shape;
  std::vector<float> value;
  std::vector<float> grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node*)> backward;
  /// The last Tensor::Backward pass whose graph walk reached this node.
  uint64_t visited_pass = 0;

  /// Allocates (zero-filled) the gradient buffer if not present.
  void EnsureGrad() {
    if (grad.size() != value.size()) grad.assign(value.size(), 0.0f);
  }
};

}  // namespace internal

/// Value-semantic handle to a node in the autograd tape. Copying a Tensor
/// aliases the same storage (like torch.Tensor). Operations on tensors with
/// requires_grad() build a dynamic computation graph; Backward() on a scalar
/// result accumulates gradients into every reachable parameter.
class Tensor {
 public:
  /// Null handle; defined() is false.
  Tensor() = default;

  /// True if this handle refers to storage.
  bool defined() const { return node_ != nullptr; }

  // --- Factories -----------------------------------------------------------

  /// Zero-filled tensor.
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  /// One-filled tensor.
  static Tensor Ones(const Shape& shape, bool requires_grad = false);
  /// Constant-filled tensor.
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);
  /// Tensor wrapping the given row-major data.
  static Tensor FromData(const Shape& shape, std::vector<float> data,
                         bool requires_grad = false);
  /// Scalar ([1]) tensor.
  static Tensor Scalar(float value, bool requires_grad = false);
  /// Gaussian-initialized tensor (mean 0).
  static Tensor Randn(const Shape& shape, Rng& rng, float stddev = 1.0f,
                      bool requires_grad = false);
  /// Uniform-initialized tensor in [lo, hi).
  static Tensor Rand(const Shape& shape, Rng& rng, float lo, float hi,
                     bool requires_grad = false);
  /// Glorot/Xavier-uniform initialization for a [fan_in, fan_out] matrix.
  static Tensor GlorotUniform(int fan_in, int fan_out, Rng& rng,
                              bool requires_grad = false);
  /// Identity matrix [n, n].
  static Tensor Eye(int n, bool requires_grad = false);

  // --- Introspection -------------------------------------------------------

  const Shape& shape() const { return node()->shape; }
  int rank() const { return static_cast<int>(node()->shape.size()); }
  /// Size of dimension `i` (supports negative indexing from the end).
  int dim(int i) const;
  /// Total number of elements.
  int64_t size() const { return static_cast<int64_t>(node()->value.size()); }
  bool requires_grad() const { return node()->requires_grad; }

  /// Row-major forward values.
  const std::vector<float>& data() const { return node()->value; }
  std::vector<float>& mutable_data() { return node()->value; }

  /// Accumulated gradient (empty until Backward touches this node).
  const std::vector<float>& grad() const { return node()->grad; }

  /// Element accessors (rank-agnostic flat index, and 2-D convenience).
  float at(int64_t flat_index) const;
  float at(int row, int col) const;

  /// Scalar value of a single-element tensor.
  float item() const;

  // --- Autograd ------------------------------------------------------------

  /// Clears the gradient buffer (used between optimizer steps).
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this (scalar) tensor: seeds
  /// d(self)/d(self) = 1 and propagates through the tape in reverse
  /// topological order.
  void Backward();

  /// Detaches from the tape: returns a tensor sharing no autograd history
  /// (fresh node, copied data, requires_grad = false).
  Tensor Detach() const;

  /// Internal: underlying tape node.
  const std::shared_ptr<internal::Node>& node_ptr() const { return node_; }
  internal::Node* node() const {
    TELEKIT_CHECK(node_ != nullptr) << "null Tensor";
    return node_.get();
  }

  /// Internal: wraps an existing node (used by ops).
  static Tensor FromNode(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

}  // namespace tensor
}  // namespace telekit

#endif  // TELEKIT_TENSOR_TENSOR_H_
