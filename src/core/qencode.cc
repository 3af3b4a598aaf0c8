#include "core/qencode.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/simd.h"

namespace telekit {
namespace core {

// --- QuantizedLinear ---------------------------------------------------------

QuantizedLinear::QuantizedLinear(const tensor::Tensor& weight,
                                 const tensor::Tensor& bias)
    : in_dim_(weight.dim(0)), out_dim_(weight.dim(1)), bias_(bias.data()) {
  TELEKIT_CHECK_EQ(static_cast<int>(bias_.size()), out_dim_);
  const std::vector<float>& w = weight.data();
  weight_q_.resize(static_cast<size_t>(in_dim_) * out_dim_);
  weight_scale_.resize(static_cast<size_t>(out_dim_));
  for (int j = 0; j < out_dim_; ++j) {
    float max_abs = 0.0f;
    for (int i = 0; i < in_dim_; ++i) {
      max_abs = std::max(max_abs,
                         std::fabs(w[static_cast<size_t>(i) * out_dim_ + j]));
    }
    const float scale = max_abs / 127.0f;
    weight_scale_[static_cast<size_t>(j)] = scale;
    int8_t* row = weight_q_.data() + static_cast<size_t>(j) * in_dim_;
    if (scale == 0.0f) {
      std::fill(row, row + in_dim_, static_cast<int8_t>(0));
      continue;
    }
    const float inv = 1.0f / scale;
    for (int i = 0; i < in_dim_; ++i) {
      const long q =
          std::lround(w[static_cast<size_t>(i) * out_dim_ + j] * inv);
      row[i] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
    }
  }
}

void QuantizedLinear::Forward(const float* x, int rows, float* out) const {
  thread_local std::vector<int8_t> q;  // one quantized input row
  q.resize(static_cast<size_t>(in_dim_));
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<size_t>(r) * in_dim_;
    const float sx =
        tensor::simd::QuantizeRow(xr, in_dim_, clip_, q.data());
    float* yr = out + static_cast<size_t>(r) * out_dim_;
    for (int j = 0; j < out_dim_; ++j) {
      const int32_t acc = tensor::simd::DotI8(
          q.data(), weight_q_.data() + static_cast<size_t>(j) * in_dim_,
          in_dim_);
      yr[j] = static_cast<float>(acc) * sx *
                  weight_scale_[static_cast<size_t>(j)] +
              bias_[static_cast<size_t>(j)];
    }
  }
}

void QuantizedLinear::Observe(const float* x, int rows) const {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<size_t>(r) * in_dim_;
    for (int i = 0; i < in_dim_; ++i) {
      observed_max_ = std::max(observed_max_, std::fabs(xr[i]));
    }
  }
}

// --- QuantizedEncoder --------------------------------------------------------

// The int8 dense layers, as InferCls runs them.
class QuantizedEncoder::Linears final : public InferenceLinear {
 public:
  Linears(const std::vector<QuantizedLinear>& linears, bool calibrating)
      : linears_(linears), calibrating_(calibrating) {}

  void Apply(int layer, Projection p, const float* x, int rows,
             float* out) const override {
    const QuantizedLinear& linear = linears_[static_cast<size_t>(
        layer * kProjections + static_cast<int>(p))];
    if (calibrating_) linear.Observe(x, rows);
    linear.Forward(x, rows, out);
  }
  // Calibration observes every row; serving runs [CLS]'s alone.
  bool ObservesEveryRow() const override { return calibrating_; }

 private:
  const std::vector<QuantizedLinear>& linears_;
  bool calibrating_;
};

QuantizedEncoder::QuantizedEncoder(const TransformerEncoder& encoder,
                                   OverrideHook anenc_hook)
    : encoder_(encoder), anenc_hook_(std::move(anenc_hook)) {
  linears_.reserve(static_cast<size_t>(config().num_layers * kProjections));
  for (int l = 0; l < config().num_layers; ++l) {
    for (int p = 0; p < kProjections; ++p) {
      const LinearLayer& fp32 =
          encoder.layer(l).Linear(static_cast<Projection>(p));
      linears_.emplace_back(fp32.weight(), fp32.bias());
    }
  }
}

std::vector<float> QuantizedEncoder::Run(const text::EncodedInput& input,
                                         bool calibrating) const {
  std::vector<std::pair<int, std::vector<float>>> rows;
  if (anenc_hook_ != nullptr) rows = anenc_hook_(input);
  RowOverrides overrides;
  overrides.reserve(rows.size());
  for (const auto& [position, row] : rows) {
    TELEKIT_CHECK_EQ(static_cast<int>(row.size()), dim());
    overrides.emplace_back(position, row.data());
  }
  std::vector<float> cls(static_cast<size_t>(dim()));
  const Linears linears(linears_, calibrating);
  encoder_.InferCls(input.ids, std::min(input.length, config().max_len),
                    overrides, cls.data(), &linears);
  return cls;
}

void QuantizedEncoder::Calibrate(
    const std::vector<const text::EncodedInput*>& inputs) {
  for (const text::EncodedInput* input : inputs) {
    Run(*input, /*calibrating=*/true);
  }
  for (QuantizedLinear& linear : linears_) linear.FreezeCalibration();
}

const QuantizedLinear& QuantizedEncoder::linear(int layer,
                                                Projection p) const {
  return linears_[static_cast<size_t>(layer * kProjections +
                                      static_cast<int>(p))];
}

std::vector<float> QuantizedEncoder::Encode(
    const text::EncodedInput& input) const {
  return Run(input, /*calibrating=*/false);
}

}  // namespace core
}  // namespace telekit
