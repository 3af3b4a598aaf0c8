#ifndef TELEKIT_CORE_QENCODE_H_
#define TELEKIT_CORE_QENCODE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/service.h"
#include "core/transformer.h"
#include "text/tokenizer.h"

namespace telekit {
namespace core {

/// One int8-quantized dense layer y = x W + b for the inference-only
/// encode path (DESIGN.md §3). Weights are quantized symmetrically per
/// output column at construction (scale_j = max_i |W[i][j]| / 127) and
/// stored transposed [out, in] so each output's dot product reads a
/// contiguous int8 row. Activations are quantized per input row at run
/// time (dynamic symmetric scale, optionally bounded by a calibrated
/// clip), accumulated in int32, and dequantized into fp32 with the bias
/// added back in full precision:
///
///   y[j] = DotI8(q(x), Wq[j]) * scale_x * scale_w[j] + b[j]
class QuantizedLinear {
 public:
  /// `weight` is the fp32 [in, out] matrix, `bias` the [out] vector.
  QuantizedLinear(const tensor::Tensor& weight, const tensor::Tensor& bias);

  /// Applies the layer to `rows` stacked input rows; `x` is [rows, in]
  /// row-major, `out` is [rows, out] row-major (pre-sized by the caller).
  void Forward(const float* x, int rows, float* out) const;

  /// Records max_i |x[i]| over the rows into the running calibration
  /// maximum (does not run the layer). Const so the shared forward path
  /// can call it; not safe against concurrent Forward/Observe — finish
  /// calibration before serving.
  void Observe(const float* x, int rows) const;

  /// Freezes the observed activation range: per-row scales are henceforth
  /// bounded by the recorded maximum, so a single outlier row at serving
  /// time saturates instead of stretching its own scale.
  void FreezeCalibration() { clip_ = observed_max_; }

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  /// Calibrated activation clip (0 until FreezeCalibration).
  float clip() const { return clip_; }

 private:
  int in_dim_ = 0;
  int out_dim_ = 0;
  /// [out, in] row-major: row j holds column j of the fp32 weight.
  std::vector<int8_t> weight_q_;
  std::vector<float> weight_scale_;  // [out]
  std::vector<float> bias_;          // [out]
  float clip_ = 0.0f;  // 0 = unclipped (dynamic scales only)
  mutable float observed_max_ = 0.0f;
};

/// Inference-only int8 twin of a trained TransformerEncoder, exposed as a
/// TextEncoder so ServeEngine can swap it in per request
/// (--precision=int8). It runs the encoder's own InferCls with its six
/// dense layers per transformer block (q/k/v/o, ffn_in/ffn_out) replaced
/// by QuantizedLinears, quantized from the fp32 weights at construction;
/// embeddings, layer norms, attention and GELU are the fp32 forward's
/// own, so the int8 error budget is confined to the GEMMs that dominate
/// encode cost. The embedding and layer-norm tensors are shared with
/// `encoder`, not copied: build the twin from a trained encoder whose
/// weights no longer change.
///
/// The encoder is a pure function of its weights — safe to call
/// concurrently from serve workers once built (and once Calibrate, if
/// used, has completed).
class QuantizedEncoder : public TextEncoder {
 public:
  /// Replaces numeric-slot rows of the embedding layer with externally
  /// computed [d] vectors, mirroring the ANEnc hook of KTeleBERT (pairs
  /// are (sequence position, row)).
  using OverrideHook = std::function<std::vector<std::pair<int, std::vector<float>>>(
      const text::EncodedInput&)>;

  /// Quantizes `encoder`'s dense layers. `anenc_hook` may be null
  /// (TeleBERT).
  explicit QuantizedEncoder(const TransformerEncoder& encoder,
                            OverrideHook anenc_hook = nullptr);

  /// Runs `inputs` through the forward, recording each quantized layer's
  /// input range over every row (the last layer too, which serving runs
  /// for [CLS] alone), then freezes the ranges. Call once, before serving,
  /// with a representative corpus (the serve tier uses the task
  /// catalogue).
  void Calibrate(const std::vector<const text::EncodedInput*>& inputs);

  /// The int8 layer that runs projection `p` of layer `layer`.
  const QuantizedLinear& linear(int layer, Projection p) const;

  std::vector<float> Encode(const text::EncodedInput& input) const override;
  int dim() const override { return encoder_.config().d_model; }

  const EncoderConfig& config() const { return encoder_.config(); }

 private:
  class Linears;

  /// One forward; `calibrating` records the layers' input ranges.
  std::vector<float> Run(const text::EncodedInput& input,
                         bool calibrating) const;

  TransformerEncoder encoder_;  // shares the fp32 tensors
  /// [layer * kProjections + projection]
  std::vector<QuantizedLinear> linears_;
  OverrideHook anenc_hook_;
};

}  // namespace core
}  // namespace telekit

#endif  // TELEKIT_CORE_QENCODE_H_
