#include "core/transformer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace telekit {
namespace core {

using tensor::Tensor;

// Activation buffers of one InferCls call, carved from a per-thread arena
// that only grows. It is never keyed by a model: a hot reload swaps models
// under live threads, and every buffer is written before it is read.
struct InferBuffers {
  float* x;       // [len, d]: the hidden rows
  float* q;       // [len, d]
  float* k;       // [len, d]
  float* v;       // [len, d]
  float* ctx;     // [len, d]: the heads, concatenated
  float* proj;    // [len, d]: attention or FFN output
  float* ffn;     // [len, ffn_dim]
  float* scores;  // [len, len]: one head (query rows by key rows)
  float* kt;      // [head_dim, len]: one head's K, transposed
  float* vh;      // [len, head_dim]: one head's V
  float* head;    // [len, head_dim]: one head's output

  static InferBuffers ForThisThread(const EncoderConfig& config, int len) {
    thread_local std::vector<float> arena;
    const size_t rows = static_cast<size_t>(len);
    const size_t d = static_cast<size_t>(config.d_model);
    const size_t hd = d / static_cast<size_t>(config.num_heads);
    const size_t need = rows * (6 * d + static_cast<size_t>(config.ffn_dim) +
                                rows + 3 * hd);
    if (arena.size() < need) arena.resize(need);
    float* next = arena.data();
    const auto take = [&next](size_t n) {
      float* out = next;
      next += n;
      return out;
    };
    return {take(rows * d),    take(rows * d),  take(rows * d),
            take(rows * d),    take(rows * d),  take(rows * d),
            take(rows * config.ffn_dim),     take(rows * rows),
            take(hd * rows),   take(rows * hd), take(rows * hd)};
  }
};

void AppendWithPrefix(const std::string& prefix, const NamedParams& params,
                      NamedParams* out) {
  for (const auto& [name, t] : params) {
    out->emplace_back(prefix + "." + name, t);
  }
}

tensor::TensorMap ToTensorMap(const NamedParams& params) {
  tensor::TensorMap map;
  for (const auto& [name, t] : params) {
    TELEKIT_CHECK(map.emplace(name, t).second)
        << "duplicate parameter name " << name;
  }
  return map;
}

std::vector<Tensor> TensorsOf(const NamedParams& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const auto& [name, t] : params) out.push_back(t);
  return out;
}

// --- LinearLayer -------------------------------------------------------------

LinearLayer::LinearLayer(int in_dim, int out_dim, Rng& rng)
    : weight_(Tensor::GlorotUniform(in_dim, out_dim, rng, true)),
      bias_(Tensor::Zeros({out_dim}, true)) {}

Tensor LinearLayer::Forward(const Tensor& x) const {
  return tensor::Linear(x, weight_, bias_);
}

void LinearLayer::Infer(const float* x, int rows, float* out) const {
  tensor::LinearRows(x, rows, in_dim(), weight_.data().data(),
                     bias_.data().data(), out_dim(), out);
}

NamedParams LinearLayer::Parameters() const {
  return {{"weight", weight_}, {"bias", bias_}};
}

// --- LayerNormParams ---------------------------------------------------------

LayerNormParams::LayerNormParams(int dim)
    : gain_(Tensor::Ones({dim}, true)), bias_(Tensor::Zeros({dim}, true)) {}

Tensor LayerNormParams::Forward(const Tensor& x) const {
  return tensor::LayerNorm(x, gain_, bias_);
}

Tensor LayerNormParams::ForwardSum(const Tensor& x, const Tensor& y) const {
  return tensor::AddLayerNorm(x, y, gain_, bias_);
}

void LayerNormParams::InferInPlace(float* x, int rows) const {
  constexpr float kEps = 1e-5f;  // tensor::LayerNorm's default
  const int n = gain_.dim(0);
  for (int r = 0; r < rows; ++r) {
    float* row = x + static_cast<size_t>(r) * n;
    tensor::LayerNormRow(row, gain_.data().data(), bias_.data().data(), kEps,
                         /*xhat=*/nullptr, row, n);
  }
}

NamedParams LayerNormParams::Parameters() const {
  return {{"gain", gain_}, {"bias", bias_}};
}

// --- MultiHeadSelfAttention -----------------------------------------------------

MultiHeadSelfAttention::MultiHeadSelfAttention(int d_model, int num_heads,
                                               Rng& rng)
    : num_heads_(num_heads),
      head_dim_(d_model / num_heads),
      query_(d_model, d_model, rng),
      key_(d_model, d_model, rng),
      value_(d_model, d_model, rng),
      output_(d_model, d_model, rng) {
  TELEKIT_CHECK_EQ(head_dim_ * num_heads, d_model)
      << "d_model must be divisible by num_heads";
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x) const {
  return output_.Forward(tensor::Attention(
      query_.Forward(x), key_.Forward(x), value_.Forward(x), num_heads_));
}

// Forward with the query rows gathered before their projection: a GEMM row
// depends on its own input row alone, and the weight and bias gradients
// sum the same rows in the same ascending order, less the rows whose
// gradient is zero.
Tensor MultiHeadSelfAttention::ForwardRows(const Tensor& x,
                                           const std::vector<int>& rows) const {
  return output_.Forward(
      tensor::Attention(query_.Forward(tensor::GatherRows(x, rows)),
                        key_.Forward(x), value_.Forward(x), num_heads_));
}

// Forward's steps: each head through tensor::AttentionHead, the kernel
// tensor::Attention runs, into its columns of ctx.
void MultiHeadSelfAttention::Infer(const InferenceLinear& linear, int layer,
                                   const float* x, int len, int out_rows,
                                   InferBuffers& s, float* out) const {
  const int hd = head_dim_;
  const int d = num_heads_ * hd;
  linear.Apply(layer, Projection::kQuery, x, out_rows, s.q);
  linear.Apply(layer, Projection::kKey, x, len, s.k);
  linear.Apply(layer, Projection::kValue, x, len, s.v);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  for (int h = 0; h < num_heads_; ++h) {
    const int col = h * hd;
    tensor::AttentionHead(s.q + col, s.k + col, s.v + col, d, out_rows, len,
                          hd, scale, s.kt, s.vh, s.scores, s.head,
                          s.ctx + col);
  }
  linear.Apply(layer, Projection::kOutput, s.ctx, out_rows, out);
}

const LinearLayer& MultiHeadSelfAttention::Linear(Projection p) const {
  switch (p) {
    case Projection::kQuery:
      return query_;
    case Projection::kKey:
      return key_;
    case Projection::kValue:
      return value_;
    default:
      return output_;
  }
}

NamedParams MultiHeadSelfAttention::Parameters() const {
  NamedParams out;
  AppendWithPrefix("q", query_.Parameters(), &out);
  AppendWithPrefix("k", key_.Parameters(), &out);
  AppendWithPrefix("v", value_.Parameters(), &out);
  AppendWithPrefix("o", output_.Parameters(), &out);
  return out;
}

// --- TransformerLayer --------------------------------------------------------------

TransformerLayer::TransformerLayer(int d_model, int num_heads, int ffn_dim,
                                   Rng& rng)
    : attention_(d_model, num_heads, rng),
      norm1_(d_model),
      ffn_in_(d_model, ffn_dim, rng),
      ffn_out_(ffn_dim, d_model, rng),
      norm2_(d_model) {}

Tensor TransformerLayer::Forward(const Tensor& x, float dropout, Rng& rng,
                                 bool training) const {
  Tensor attended =
      tensor::Dropout(attention_.Forward(x), dropout, rng, training);
  Tensor h = norm1_.ForwardSum(x, attended);
  Tensor ffn = ffn_out_.Forward(tensor::Gelu(ffn_in_.Forward(h)));
  ffn = tensor::Dropout(ffn, dropout, rng, training);
  return norm2_.ForwardSum(h, ffn);
}

// Forward's nodes on the read rows. The residual's row gather is the first
// AddLayerNorm's second parent: the backward then reaches it before the
// attention branch, so x's gradient still sums the residual's share first,
// then v's, k's and q's.
Tensor TransformerLayer::ForwardRows(const Tensor& x,
                                     const std::vector<int>& rows,
                                     float dropout, Rng& rng,
                                     bool training) const {
  const int len = x.dim(0);
  Tensor attended = tensor::DropoutRows(attention_.ForwardRows(x, rows), rows,
                                        len, dropout, rng, training);
  Tensor h = norm1_.ForwardSum(attended, tensor::GatherRows(x, rows));
  Tensor ffn = ffn_out_.Forward(tensor::Gelu(ffn_in_.Forward(h)));
  ffn = tensor::DropoutRows(ffn, rows, len, dropout, rng, training);
  return norm2_.ForwardSum(h, ffn);
}

void TransformerLayer::Infer(const InferenceLinear& linear, int layer,
                             float* x, int len, int out_rows,
                             InferBuffers& s) const {
  const int d = ffn_out_.out_dim();
  const int hidden = ffn_in_.out_dim();
  attention_.Infer(linear, layer, x, len, out_rows, s, s.proj);
  tensor::simd::Add(x, s.proj, x, out_rows * d);
  norm1_.InferInPlace(x, out_rows);
  linear.Apply(layer, Projection::kFfnIn, x, out_rows, s.ffn);
  tensor::simd::Gelu(s.ffn, s.ffn, /*tanh_u=*/nullptr, out_rows * hidden);
  linear.Apply(layer, Projection::kFfnOut, s.ffn, out_rows, s.proj);
  tensor::simd::Add(x, s.proj, x, out_rows * d);
  norm2_.InferInPlace(x, out_rows);
}

const LinearLayer& TransformerLayer::Linear(Projection p) const {
  switch (p) {
    case Projection::kFfnIn:
      return ffn_in_;
    case Projection::kFfnOut:
      return ffn_out_;
    default:
      return attention_.Linear(p);
  }
}

NamedParams TransformerLayer::Parameters() const {
  NamedParams out;
  AppendWithPrefix("attn", attention_.Parameters(), &out);
  AppendWithPrefix("norm1", norm1_.Parameters(), &out);
  AppendWithPrefix("ffn_in", ffn_in_.Parameters(), &out);
  AppendWithPrefix("ffn_out", ffn_out_.Parameters(), &out);
  AppendWithPrefix("norm2", norm2_.Parameters(), &out);
  return out;
}

// --- TransformerEncoder ----------------------------------------------------------------

TransformerEncoder::TransformerEncoder(const EncoderConfig& config, Rng& rng)
    : config_(config),
      token_table_(Tensor::Randn({config.vocab_size, config.d_model}, rng,
                                 0.02f, true)),
      position_table_(Tensor::Randn({config.max_len, config.d_model}, rng,
                                    0.02f, true)),
      embed_norm_(config.d_model) {
  TELEKIT_CHECK_GT(config.vocab_size, 0) << "set vocab_size from tokenizer";
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int i = 0; i < config.num_layers; ++i) {
    layers_.emplace_back(config.d_model, config.num_heads, config.ffn_dim,
                         rng);
  }
}

Tensor TransformerEncoder::Embed(
    const std::vector<int>& ids, int length,
    const std::vector<std::pair<int, Tensor>>& overrides, Rng& rng,
    bool training) const {
  TELEKIT_CHECK_GT(length, 0);
  TELEKIT_CHECK_LE(length, static_cast<int>(ids.size()));
  TELEKIT_CHECK_LE(length, config_.max_len);
  std::vector<int> prefix(ids.begin(), ids.begin() + length);
  Tensor token_rows = tensor::EmbeddingLookup(token_table_, prefix);
  if (!overrides.empty()) {
    // Rebuild row-by-row with overridden positions substituted.
    std::vector<Tensor> rows;
    rows.reserve(static_cast<size_t>(length));
    for (int i = 0; i < length; ++i) {
      const Tensor* replacement = nullptr;
      for (const auto& [pos, t] : overrides) {
        if (pos == i) {
          replacement = &t;
          break;
        }
      }
      rows.push_back(replacement != nullptr
                         ? *replacement
                         : tensor::SliceRows(token_rows, i, 1));
    }
    token_rows = tensor::ConcatRows(rows);
  }
  Tensor positions = tensor::SliceRows(position_table_, 0, length);
  Tensor embedded = embed_norm_.Forward(tensor::Add(token_rows, positions));
  return tensor::Dropout(embedded, config_.dropout, rng, training);
}

Tensor TransformerEncoder::Encode(const Tensor& embedded, Rng& rng,
                                  bool training) const {
  Tensor h = embedded;
  for (const TransformerLayer& layer : layers_) {
    h = layer.Forward(h, config_.dropout, rng, training);
  }
  return h;
}

Tensor TransformerEncoder::EncodeRows(const Tensor& embedded,
                                      const std::vector<int>& rows, Rng& rng,
                                      bool training) const {
  TELEKIT_CHECK(!layers_.empty() && !rows.empty());
  for (size_t i = 0; i < rows.size(); ++i) {
    TELEKIT_CHECK(rows[i] >= 0 && rows[i] < embedded.dim(0) &&
                  (i == 0 || rows[i - 1] < rows[i]))
        << "EncodeRows needs strictly ascending rows within [0, "
        << embedded.dim(0) << "), got " << rows[i] << " at " << i;
  }
  Tensor h = embedded;
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    h = layers_[l].Forward(h, config_.dropout, rng, training);
  }
  return layers_.back().ForwardRows(h, rows, config_.dropout, rng, training);
}

Tensor TransformerEncoder::Forward(const std::vector<int>& ids, int length,
                                   Rng& rng, bool training) const {
  return Encode(Embed(ids, length, {}, rng, training), rng, training);
}

namespace {

// The encoder's own fp32 dense layers.
class Fp32Linears final : public InferenceLinear {
 public:
  explicit Fp32Linears(const TransformerEncoder& encoder)
      : encoder_(encoder) {}
  void Apply(int layer, Projection p, const float* x, int rows,
             float* out) const override {
    encoder_.layer(layer).Linear(p).Infer(x, rows, out);
  }

 private:
  const TransformerEncoder& encoder_;
};

}  // namespace

void TransformerEncoder::InferCls(const std::vector<int>& ids, int length,
                                  const RowOverrides& overrides, float* cls,
                                  const InferenceLinear* linear) const {
  TELEKIT_CHECK_GT(length, 0);
  TELEKIT_CHECK_LE(length, static_cast<int>(ids.size()));
  TELEKIT_CHECK_LE(length, config_.max_len);
  const int d = config_.d_model;
  const size_t row = static_cast<size_t>(d);
  InferBuffers buffers = InferBuffers::ForThisThread(config_, length);
  float* x = buffers.x;
  const float* tokens = token_table_.data().data();
  const float* positions = position_table_.data().data();
  for (int i = 0; i < length; ++i) {
    const int id = ids[static_cast<size_t>(i)];
    TELEKIT_CHECK(id >= 0 && id < config_.vocab_size) << "token id " << id;
    const float* token = tokens + static_cast<size_t>(id) * row;
    for (auto it = overrides.rbegin(); it != overrides.rend(); ++it) {
      if (it->first == i) token = it->second;
    }
    tensor::simd::Add(token, positions + i * row, x + i * row, d);
  }
  embed_norm_.InferInPlace(x, length);
  const Fp32Linears fp32(*this);
  const InferenceLinear& dense = linear != nullptr ? *linear : fp32;
  const int last = static_cast<int>(layers_.size()) - 1;
  for (int l = 0; l <= last; ++l) {
    const int out_rows =
        l < last || dense.ObservesEveryRow() ? length : 1;  // [CLS] is row 0
    layers_[static_cast<size_t>(l)].Infer(dense, l, x, length, out_rows,
                                          buffers);
  }
  std::copy_n(x, row, cls);
}

Tensor TransformerEncoder::MeanTokenEmbedding(
    const std::vector<int>& ids) const {
  TELEKIT_CHECK(!ids.empty());
  return tensor::Reshape(
      tensor::MeanRows(tensor::EmbeddingLookup(token_table_, ids)),
      {1, config_.d_model});
}

NamedParams TransformerEncoder::Parameters() const {
  NamedParams out;
  out.emplace_back("token_table", token_table_);
  out.emplace_back("position_table", position_table_);
  AppendWithPrefix("embed_norm", embed_norm_.Parameters(), &out);
  for (size_t i = 0; i < layers_.size(); ++i) {
    AppendWithPrefix("layer" + std::to_string(i), layers_[i].Parameters(),
                     &out);
  }
  return out;
}

}  // namespace core
}  // namespace telekit
