#include "core/anenc.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "tensor/ops.h"

namespace telekit {
namespace core {

using tensor::Tensor;

// --- AnEnc::Layer -------------------------------------------------------------

AnEnc::Layer::Layer(const AnEncConfig& config, Rng& rng)
    : meta(Tensor::Randn({config.num_meta, config.d_model / config.num_meta},
                         rng, 0.1f, true)),
      query(Tensor::GlorotUniform(config.d_model,
                                  config.d_model / config.num_meta, rng,
                                  true)),
      ffn_in(config.d_model, config.ffn_dim, rng),
      ffn_out(config.ffn_dim, config.d_model, rng),
      lora_down(Tensor::Randn({config.d_model, config.lora_rank}, rng, 0.02f,
                              true)),
      lora_up(Tensor::Zeros({config.lora_rank, config.d_model}, true)),
      norm(config.d_model) {
  value_transforms.reserve(static_cast<size_t>(config.num_meta));
  for (int i = 0; i < config.num_meta; ++i) {
    // Near-orthogonal initialization: identity plus small noise, matching
    // the orthogonal regularizer's fixed point.
    Tensor w = Tensor::Eye(config.d_model, true);
    for (float& v : w.mutable_data()) {
      v += static_cast<float>(rng.Normal(0.0, 0.01));
    }
    value_transforms.push_back(w);
  }
}

Tensor AnEnc::Layer::Forward(const Tensor& tag_embedding, const Tensor& x,
                             float lora_alpha, int num_meta) const {
  // Attention over meta domains (Eq. 1): q = t Wq; scores over E rows.
  const int sub_dim = meta.dim(1);
  Tensor q = tensor::MatMul(tag_embedding, query);  // [1, d/N]
  Tensor logits = tensor::MulScalar(
      tensor::MatMul(q, tensor::Transpose(meta)),
      1.0f / std::sqrt(static_cast<float>(sub_dim)));  // [1, N]
  Tensor attn = tensor::Softmax(logits);

  // V = stacked per-domain transformations of x (Eq. 2): [N, d].
  std::vector<Tensor> projected;
  projected.reserve(static_cast<size_t>(num_meta));
  for (const Tensor& w : value_transforms) {
    projected.push_back(tensor::MatMul(x, w));
  }
  Tensor v = tensor::ConcatRows(projected);  // [N, d]
  Tensor h_hat = tensor::MatMul(attn, v);    // [1, d]

  // FFN sublayer with LoRA low-rank residual from x (Eq. 4).
  Tensor ffn = ffn_out.Forward(tensor::Gelu(ffn_in.Forward(h_hat)));
  Tensor lora = tensor::MulScalar(
      tensor::MatMul(tensor::MatMul(x, lora_down), lora_up), lora_alpha);
  return norm.ForwardSum(ffn, lora);
}

NamedParams AnEnc::Layer::Parameters() const {
  NamedParams out;
  out.emplace_back("meta", meta);
  out.emplace_back("query", query);
  for (size_t i = 0; i < value_transforms.size(); ++i) {
    out.emplace_back("wv" + std::to_string(i), value_transforms[i]);
  }
  AppendWithPrefix("ffn_in", ffn_in.Parameters(), &out);
  AppendWithPrefix("ffn_out", ffn_out.Parameters(), &out);
  out.emplace_back("lora_down", lora_down);
  out.emplace_back("lora_up", lora_up);
  AppendWithPrefix("norm", norm.Parameters(), &out);
  return out;
}

// --- AnEnc ----------------------------------------------------------------------

AnEnc::AnEnc(const AnEncConfig& config, Rng& rng)
    : config_(config),
      value_fc_(Tensor::Randn({1, config.d_model}, rng, 0.5f, true)) {
  TELEKIT_CHECK_EQ(config.d_model % config.num_meta, 0)
      << "num_meta must divide d_model";
  TELEKIT_CHECK_GE(config.lora_alpha, 1.0f);
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int l = 0; l < config.num_layers; ++l) {
    layers_.emplace_back(config, rng);
  }
}

Tensor AnEnc::LiftValue(float value) const {
  // Eq. 3 (l = 1): x = ACT_FN(v * W_fc).
  Tensor v = Tensor::FromData({1, 1}, {value});
  return tensor::Gelu(tensor::MatMul(v, value_fc_));
}

Tensor AnEnc::Forward(const Tensor& tag_embedding, float value) const {
  TELEKIT_CHECK_EQ(tag_embedding.rank(), 2);
  TELEKIT_CHECK_EQ(tag_embedding.dim(0), 1);
  TELEKIT_CHECK_EQ(tag_embedding.dim(1), config_.d_model);
  Tensor x = LiftValue(value);
  for (const Layer& layer : layers_) {
    x = layer.Forward(tag_embedding, x, config_.lora_alpha, config_.num_meta);
  }
  return x;
}

std::vector<float> AnEnc::MetaAttention(const Tensor& tag_embedding) const {
  const Layer& layer = layers_.front();
  Tensor q = tensor::MatMul(tag_embedding, layer.query);
  Tensor logits = tensor::MulScalar(
      tensor::MatMul(q, tensor::Transpose(layer.meta)),
      1.0f / std::sqrt(static_cast<float>(layer.meta.dim(1))));
  Tensor attn = tensor::Softmax(logits);
  return attn.data();
}

Tensor AnEnc::OrthogonalPenalty() const {
  Tensor total = Tensor::Scalar(0.0f);
  const Tensor eye = Tensor::Eye(config_.d_model);
  for (const Layer& layer : layers_) {
    for (const Tensor& w : layer.value_transforms) {
      Tensor gram = tensor::MatMul(tensor::Transpose(w), w);
      total = tensor::Add(total,
                          tensor::Sum(tensor::Square(tensor::Sub(eye, gram))));
    }
  }
  return total;
}

NamedParams AnEnc::Parameters() const {
  NamedParams out;
  out.emplace_back("value_fc", value_fc_);
  for (size_t l = 0; l < layers_.size(); ++l) {
    AppendWithPrefix("layer" + std::to_string(l), layers_[l].Parameters(),
                     &out);
  }
  return out;
}

// --- NumericDecoder ----------------------------------------------------------------

NumericDecoder::NumericDecoder(int d_model, Rng& rng)
    : hidden_(d_model, d_model / 2, rng), out_(d_model / 2, 1, rng) {}

Tensor NumericDecoder::Forward(const Tensor& hidden) const {
  return tensor::Reshape(out_.Forward(tensor::Gelu(hidden_.Forward(hidden))),
                         {1});
}

NamedParams NumericDecoder::Parameters() const {
  NamedParams out;
  AppendWithPrefix("hidden", hidden_.Parameters(), &out);
  AppendWithPrefix("out", out_.Parameters(), &out);
  return out;
}

// --- TagClassifier -------------------------------------------------------------------

TagClassifier::TagClassifier(int d_model, int num_tags, Rng& rng)
    : classifier_(d_model, num_tags, rng) {}

Tensor TagClassifier::Forward(const Tensor& h) const {
  return classifier_.Forward(h);
}

NamedParams TagClassifier::Parameters() const {
  NamedParams out;
  AppendWithPrefix("linear", classifier_.Parameters(), &out);
  return out;
}

// --- AutoWeightedLoss ----------------------------------------------------------------

AutoWeightedLoss::AutoWeightedLoss(int num_tasks) {
  TELEKIT_CHECK_GT(num_tasks, 0);
  for (int i = 0; i < num_tasks; ++i) {
    mu_.push_back(Tensor::Scalar(1.0f, /*requires_grad=*/true));
  }
}

Tensor AutoWeightedLoss::Combine(const std::vector<Tensor>& losses) const {
  TELEKIT_CHECK_EQ(losses.size(), mu_.size());
  Tensor total = Tensor::Scalar(0.0f);
  for (size_t i = 0; i < losses.size(); ++i) {
    if (!losses[i].defined()) continue;
    Tensor mu_sq = tensor::Square(mu_[i]);
    // 0.5 * L_i / mu_i^2 + log(1 + mu_i^2); epsilon keeps the division
    // finite if mu collapses toward zero.
    Tensor weighted = tensor::MulScalar(
        tensor::Div(losses[i], tensor::AddScalar(mu_sq, 1e-4f)), 0.5f);
    Tensor regularizer = tensor::Log(tensor::AddScalar(mu_sq, 1.0f));
    total = tensor::Add(total, tensor::Add(weighted, regularizer));
  }
  return total;
}

std::vector<float> AutoWeightedLoss::Weights() const {
  std::vector<float> out;
  for (const Tensor& mu : mu_) out.push_back(mu.item());
  return out;
}

NamedParams AutoWeightedLoss::Parameters() const {
  NamedParams out;
  for (size_t i = 0; i < mu_.size(); ++i) {
    out.emplace_back("mu" + std::to_string(i), mu_[i]);
  }
  return out;
}

// --- NumericContrastiveLoss ---------------------------------------------------------

Tensor NumericContrastiveLoss(const std::vector<Tensor>& embeddings,
                              const std::vector<float>& values, float tau) {
  const int batch = static_cast<int>(embeddings.size());
  TELEKIT_CHECK_EQ(values.size(), embeddings.size());
  TELEKIT_CHECK_GE(batch, 3) << "contrastive loss needs >= 3 samples";
  // Positive index: the other sample with the closest value (Eq. 7).
  std::vector<int> positives(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    float best = std::numeric_limits<float>::infinity();
    int best_j = (i + 1) % batch;
    for (int j = 0; j < batch; ++j) {
      if (j == i) continue;
      const float gap = std::fabs(values[static_cast<size_t>(i)] -
                                  values[static_cast<size_t>(j)]);
      if (gap < best) {
        best = gap;
        best_j = j;
      }
    }
    positives[static_cast<size_t>(i)] = best_j;
  }
  // Cosine similarity matrix with the diagonal suppressed.
  Tensor stacked = tensor::L2NormalizeRows(tensor::ConcatRows(embeddings));
  Tensor sims = tensor::MulScalar(
      tensor::MatMul(stacked, tensor::Transpose(stacked)), 1.0f / tau);
  std::vector<float> diag_mask(static_cast<size_t>(batch) * batch, 0.0f);
  for (int i = 0; i < batch; ++i) {
    diag_mask[static_cast<size_t>(i) * batch + i] = -1e9f;
  }
  sims = tensor::Add(sims, Tensor::FromData({batch, batch}, diag_mask));
  return tensor::CrossEntropyWithLogits(sims, positives);
}

}  // namespace core
}  // namespace telekit
