#ifndef TELEKIT_CORE_TRANSFORMER_H_
#define TELEKIT_CORE_TRANSFORMER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace telekit {
namespace core {

/// Named parameter list used for optimizer registration and checkpointing.
using NamedParams = std::vector<std::pair<std::string, tensor::Tensor>>;

/// Appends `params` of a submodule under `prefix + "."`.
void AppendWithPrefix(const std::string& prefix, const NamedParams& params,
                      NamedParams* out);

/// Converts a named parameter list to a TensorMap (for checkpoints).
tensor::TensorMap ToTensorMap(const NamedParams& params);

/// Flattens the tensors of a named parameter list.
std::vector<tensor::Tensor> TensorsOf(const NamedParams& params);

/// Fully connected layer y = x W + b.
class LinearLayer {
 public:
  LinearLayer(int in_dim, int out_dim, Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x) const;
  /// Forward on raw row-major buffers, tape-free: tensor::LinearRows,
  /// the kernel of Forward's tensor::Linear node.
  void Infer(const float* x, int rows, float* out) const;
  NamedParams Parameters() const;

  int in_dim() const { return weight_.dim(0); }
  int out_dim() const { return weight_.dim(1); }
  const tensor::Tensor& weight() const { return weight_; }  // [in, out]
  const tensor::Tensor& bias() const { return bias_; }      // [out]

 private:
  tensor::Tensor weight_;
  tensor::Tensor bias_;
};

/// Learnable layer-norm gain/bias pair.
class LayerNormParams {
 public:
  explicit LayerNormParams(int dim);
  tensor::Tensor Forward(const tensor::Tensor& x) const;
  /// Forward(Add(x, y)) as one tape node (tensor::AddLayerNorm): the
  /// post-LN residual.
  tensor::Tensor ForwardSum(const tensor::Tensor& x,
                            const tensor::Tensor& y) const;
  /// Forward over `rows` rows of x [rows, dim], in place and tape-free.
  void InferInPlace(float* x, int rows) const;
  NamedParams Parameters() const;

 private:
  tensor::Tensor gain_;
  tensor::Tensor bias_;
};

/// The dense layers of a transformer block, in the order a layer runs
/// them.
enum class Projection { kQuery, kKey, kValue, kOutput, kFfnIn, kFfnOut };
constexpr int kProjections = 6;

/// A dense-layer kernel for TransformerEncoder::InferCls: out[rows,
/// out_dim] = x[rows, in_dim] W + b for projection `p` of layer `layer`.
/// The fp32 one runs each LinearLayer::Infer; QuantizedEncoder plugs in
/// its int8 layers.
class InferenceLinear {
 public:
  virtual ~InferenceLinear() = default;
  virtual void Apply(int layer, Projection p, const float* x, int rows,
                     float* out) const = 0;
  /// True when every row of every layer must pass through Apply (int8
  /// calibration observes them all): InferCls then runs its last layer
  /// over every row instead of [CLS] alone.
  virtual bool ObservesEveryRow() const { return false; }
};

/// Activation buffers of one InferCls call (defined in transformer.cc).
struct InferBuffers;

/// Multi-head self-attention over a single (unpadded) sequence [S, d].
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(int d_model, int num_heads, Rng& rng);

  /// [S, d] -> [S, d].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  /// Rows `rows` (ascending) of Forward(x): K and V over every row of x,
  /// Q and the output projection over `rows` only -> [rows.size(), d].
  tensor::Tensor ForwardRows(const tensor::Tensor& x,
                             const std::vector<int>& rows) const;

  /// The first `out_rows` rows of Forward on the raw rows x [len, d], into
  /// out [out_rows, d], tape-free and with Forward's arithmetic; `linear`
  /// runs layer `layer`'s projections.
  void Infer(const InferenceLinear& linear, int layer, const float* x,
             int len, int out_rows, InferBuffers& buffers, float* out) const;

  /// The dense layer of attention projection `p` (kQuery ... kOutput).
  const LinearLayer& Linear(Projection p) const;
  NamedParams Parameters() const;

 private:
  int num_heads_;
  int head_dim_;
  LinearLayer query_;
  LinearLayer key_;
  LinearLayer value_;
  LinearLayer output_;
};

/// Post-LN transformer encoder layer (attention + GELU FFN).
class TransformerLayer {
 public:
  TransformerLayer(int d_model, int num_heads, int ffn_dim, Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x, float dropout, Rng& rng,
                         bool training) const;

  /// Rows `rows` (ascending) of Forward(x, ...) -> [rows.size(), d], with
  /// Forward's values, gradients and random draws (DESIGN.md §3, "Training
  /// tape", rule 4): K and V run over every row; Q, attention's query rows,
  /// the output projection, both residual layer norms, the FFN and both
  /// dropouts run over `rows` only, each dropout still drawing its whole
  /// [L, d] mask.
  tensor::Tensor ForwardRows(const tensor::Tensor& x,
                             const std::vector<int>& rows, float dropout,
                             Rng& rng, bool training) const;

  /// Eval-mode Forward over the raw rows x [len, d], tape-free and with
  /// Forward's arithmetic, updating the first `out_rows` rows in place
  /// (all of them when out_rows == len; the rest keep the layer's input);
  /// `linear` runs its dense layers as layer `layer`.
  void Infer(const InferenceLinear& linear, int layer, float* x, int len,
             int out_rows, InferBuffers& buffers) const;

  /// The dense layer that runs projection `p`.
  const LinearLayer& Linear(Projection p) const;
  NamedParams Parameters() const;

 private:
  MultiHeadSelfAttention attention_;
  LayerNormParams norm1_;
  LinearLayer ffn_in_;
  LinearLayer ffn_out_;
  LayerNormParams norm2_;
};

/// Encoder hyperparameters (shared by TeleBERT / KTeleBERT / the MacBERT
/// surrogate; only the pre-training corpus differs between them).
struct EncoderConfig {
  int vocab_size = 0;  // set from the tokenizer
  int d_model = 64;
  int num_heads = 4;
  int num_layers = 2;
  int ffn_dim = 128;
  int max_len = 32;
  float dropout = 0.1f;
};

/// Embedding rows that replace token rows before the position rows are
/// added (the ANEnc hook): (sequence position, d floats).
using RowOverrides = std::vector<std::pair<int, const float*>>;

/// BERT-style transformer encoder: token + position embeddings with
/// embedding layer-norm, then a stack of TransformerLayers. Sequences are
/// processed unpadded (one at a time) — padding positions are simply
/// dropped, which removes the need for attention masks.
class TransformerEncoder {
 public:
  TransformerEncoder(const EncoderConfig& config, Rng& rng);

  /// Embedding-layer output (token + position, layer-normed) for the first
  /// `length` ids: [length, d]. `overrides` replaces rows at the given
  /// positions with externally computed embeddings (the ANEnc hook);
  /// each override tensor is [1, d].
  tensor::Tensor Embed(
      const std::vector<int>& ids, int length,
      const std::vector<std::pair<int, tensor::Tensor>>& overrides, Rng& rng,
      bool training) const;

  /// Runs the layer stack over embedded input: [length, d] -> [length, d].
  tensor::Tensor Encode(const tensor::Tensor& embedded, Rng& rng,
                        bool training) const;

  /// GatherRows(Encode(embedded, ...), rows) for strictly ascending `rows`,
  /// with its values, parameter gradients and random draws bit for bit,
  /// but the last layer runs only the work those rows read
  /// (TransformerLayer::ForwardRows) -> [rows.size(), d].
  tensor::Tensor EncodeRows(const tensor::Tensor& embedded,
                            const std::vector<int>& rows, Rng& rng,
                            bool training) const;

  /// Convenience: Embed + Encode without overrides.
  tensor::Tensor Forward(const std::vector<int>& ids, int length, Rng& rng,
                         bool training) const;

  /// The inference forward (DESIGN.md §3): writes the [CLS] row of the
  /// first `length` ids, d floats, to `cls`. It runs on raw buffers in a
  /// per-thread arena, with no tensor op and no allocation per
  /// step, and gives the bits of row 0 of eval-mode
  /// Encode(Embed(ids, length, overrides)): the same kernels in the same
  /// order, on every backend and thread count. The last layer computes
  /// K and V for every row but the rest for [CLS] alone, unless `linear`
  /// ObservesEveryRow. Override positions outside [0, length) are ignored;
  /// the first override of a position wins. `linear`, when not null,
  /// replaces the fp32 dense layers.
  void InferCls(const std::vector<int>& ids, int length,
                const RowOverrides& overrides, float* cls,
                const InferenceLinear* linear = nullptr) const;

  /// Raw (pre-layer-norm) embedding rows for a token id list, mean-pooled:
  /// [d]. Used for the ANEnc tag-name embedding t (Sec. IV-B).
  tensor::Tensor MeanTokenEmbedding(const std::vector<int>& ids) const;

  NamedParams Parameters() const;
  const EncoderConfig& config() const { return config_; }
  const tensor::Tensor& token_table() const { return token_table_; }
  const TransformerLayer& layer(int l) const {
    return layers_[static_cast<size_t>(l)];
  }

 private:
  EncoderConfig config_;
  tensor::Tensor token_table_;     // [V, d]
  tensor::Tensor position_table_;  // [max_len, d]
  LayerNormParams embed_norm_;
  std::vector<TransformerLayer> layers_;
};

}  // namespace core
}  // namespace telekit

#endif  // TELEKIT_CORE_TRANSFORMER_H_
