#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/string_util.h"

namespace telekit {
namespace tensor {

int64_t ShapeSize(const Shape& shape) {
  int64_t n = 1;
  for (int d : shape) {
    TELEKIT_CHECK_GT(d, 0) << "non-positive dimension";
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

Tensor Tensor::FromNode(std::shared_ptr<internal::Node> node) {
  Tensor t;
  t.node_ = std::move(node);
  return t;
}

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  TELEKIT_CHECK_LE(shape.size(), 2u) << "rank <= 2 only";
  auto node = std::make_shared<internal::Node>();
  node->shape = shape;
  node->value.assign(static_cast<size_t>(ShapeSize(shape)), value);
  node->requires_grad = requires_grad;
  return FromNode(std::move(node));
}

Tensor Tensor::FromData(const Shape& shape, std::vector<float> data,
                        bool requires_grad) {
  TELEKIT_CHECK_LE(shape.size(), 2u) << "rank <= 2 only";
  TELEKIT_CHECK_EQ(static_cast<int64_t>(data.size()), ShapeSize(shape))
      << "data size mismatch for shape " << ShapeToString(shape);
  auto node = std::make_shared<internal::Node>();
  node->shape = shape;
  node->value = std::move(data);
  node->requires_grad = requires_grad;
  return FromNode(std::move(node));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1}, {value}, requires_grad);
}

Tensor Tensor::Randn(const Shape& shape, Rng& rng, float stddev,
                     bool requires_grad) {
  Tensor t = Zeros(shape, requires_grad);
  for (float& v : t.mutable_data()) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Rand(const Shape& shape, Rng& rng, float lo, float hi,
                    bool requires_grad) {
  Tensor t = Zeros(shape, requires_grad);
  for (float& v : t.mutable_data()) {
    v = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::GlorotUniform(int fan_in, int fan_out, Rng& rng,
                             bool requires_grad) {
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Rand({fan_in, fan_out}, rng, -limit, limit, requires_grad);
}

Tensor Tensor::Eye(int n, bool requires_grad) {
  Tensor t = Zeros({n, n}, requires_grad);
  for (int i = 0; i < n; ++i) t.mutable_data()[i * n + i] = 1.0f;
  return t;
}

int Tensor::dim(int i) const {
  const int r = rank();
  if (i < 0) i += r;
  TELEKIT_CHECK(i >= 0 && i < r) << "dim " << i << " out of range for rank "
                                 << r;
  return node()->shape[i];
}

float Tensor::at(int64_t flat_index) const {
  TELEKIT_CHECK(flat_index >= 0 && flat_index < size());
  return node()->value[static_cast<size_t>(flat_index)];
}

float Tensor::at(int row, int col) const {
  TELEKIT_CHECK_EQ(rank(), 2);
  TELEKIT_CHECK(row >= 0 && row < dim(0));
  TELEKIT_CHECK(col >= 0 && col < dim(1));
  return node()->value[static_cast<size_t>(row) * dim(1) + col];
}

float Tensor::item() const {
  TELEKIT_CHECK_EQ(size(), 1) << "item() on non-scalar";
  return node()->value[0];
}

void Tensor::ZeroGrad() {
  internal::Node* n = node();
  if (!n->grad.empty()) std::fill(n->grad.begin(), n->grad.end(), 0.0f);
}

void Tensor::Backward() {
  internal::Node* root = node();
  TELEKIT_CHECK_EQ(root->value.size(), 1u)
      << "Backward() must start from a scalar loss";
  TELEKIT_CHECK(root->requires_grad) << "Backward() on non-grad tensor";

  // Iterative DFS producing a reverse topological order of the tape. A
  // node is visited once per pass: it carries the id of the last pass that
  // reached it (ids are unique across threads; concurrent passes never
  // share a node that requires grad, or their gradients would race too).
  static std::atomic<uint64_t> last_pass{0};
  const uint64_t pass = last_pass.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<internal::Node*> order;
  struct Frame {
    internal::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  root->visited_pass = pass;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::Node* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && parent->visited_pass != pass) {
        parent->visited_pass = pass;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  root->EnsureGrad();
  root->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* n = *it;
    if (n->backward && !n->grad.empty()) n->backward(n);
  }
}

Tensor Tensor::Detach() const {
  auto copy = std::make_shared<internal::Node>();
  copy->shape = node()->shape;
  copy->value = node()->value;
  copy->requires_grad = false;
  return FromNode(std::move(copy));
}

}  // namespace tensor
}  // namespace telekit
