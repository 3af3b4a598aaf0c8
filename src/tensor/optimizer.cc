#include "tensor/optimizer.h"

#include <cmath>

#include "tensor/simd.h"

namespace telekit {
namespace tensor {

void Optimizer::AddParameter(const Tensor& param) {
  TELEKIT_CHECK(param.requires_grad()) << "optimizer parameter needs grad";
  params_.push_back(param);
  OnParameterAdded(param);
}

void Optimizer::AddParameters(const std::vector<Tensor>& params) {
  for (const Tensor& p : params) AddParameter(p);
}

void Optimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

float Optimizer::ClipGradNorm(float max_norm) {
  double total_sq = 0.0;
  for (const Tensor& p : params_) {
    for (float g : p.grad()) total_sq += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(total_sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Tensor& p : params_) {
      std::vector<float>& grad = p.node()->grad;
      simd::ScaleTo(grad.data(), scale, grad.data(),
                    static_cast<int>(grad.size()));
    }
  }
  return norm;
}

int64_t Optimizer::num_weights() const {
  int64_t total = 0;
  for (const Tensor& p : params_) total += p.size();
  return total;
}

void Sgd::Step() {
  for (Tensor& p : params_) {
    auto* node = p.node();
    if (node->grad.empty()) continue;
    for (size_t i = 0; i < node->value.size(); ++i) {
      float g = node->grad[i];
      if (weight_decay_ != 0.0f) g += weight_decay_ * node->value[i];
      node->value[i] -= lr_ * g;
    }
  }
}

void Adam::OnParameterAdded(const Tensor& param) {
  m_.emplace_back(param.size(), 0.0f);
  v_.emplace_back(param.size(), 0.0f);
}

void Adam::Step() {
  ++step_;
  simd::AdamStep step;
  step.beta1 = options_.beta1;
  step.beta2 = options_.beta2;
  step.bias1 = 1.0f - std::pow(options_.beta1, static_cast<float>(step_));
  step.bias2 = 1.0f - std::pow(options_.beta2, static_cast<float>(step_));
  step.lr = options_.lr;
  step.eps = options_.eps;
  const bool decay = options_.weight_decay != 0.0f;
  step.coupled_decay = decay && !options_.decoupled_weight_decay;
  step.l2 = options_.weight_decay;
  step.decoupled_decay = decay && options_.decoupled_weight_decay;
  step.lr_decay = options_.lr * options_.weight_decay;
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    auto* node = params_[pi].node();
    if (node->grad.empty()) continue;
    simd::AdamUpdate(step, node->grad.data(), m_[pi].data(), v_[pi].data(),
                     node->value.data(), static_cast<int>(node->value.size()));
  }
}

}  // namespace tensor
}  // namespace telekit
