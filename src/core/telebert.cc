#include "core/telebert.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace telekit {
namespace core {

using tensor::Tensor;

TeleBert::TeleBert(const EncoderConfig& config, Rng& rng) {
  encoder_ = std::make_unique<TransformerEncoder>(config, rng);
  // ELECTRA generator: narrower and shallower than the discriminator.
  EncoderConfig gen_config = config;
  gen_config.d_model = std::max(16, config.d_model / 2);
  gen_config.num_heads = std::max(2, config.num_heads / 2);
  gen_config.num_layers = 1;
  gen_config.ffn_dim = std::max(32, config.ffn_dim / 2);
  generator_ = std::make_unique<TransformerEncoder>(gen_config, rng);
  mlm_head_ =
      std::make_unique<LinearLayer>(gen_config.d_model, config.vocab_size,
                                    rng);
  rtd_head_ = std::make_unique<LinearLayer>(config.d_model, 1, rng);
  encoder_mlm_head_ =
      std::make_unique<LinearLayer>(config.d_model, config.vocab_size, rng);
}

namespace {

// The supervised (masked) positions of the first `length` ids, ascending,
// and their labels.
void MaskedPositions(const text::MaskedExample& masked, int length,
                     std::vector<int>* positions, std::vector<int>* labels) {
  for (int i = 0; i < length; ++i) {
    if (masked.labels[static_cast<size_t>(i)] >= 0) {
      positions->push_back(i);
      labels->push_back(masked.labels[static_cast<size_t>(i)]);
    }
  }
}

// The hidden rows at `positions` of `encoder`'s training forward over the
// first `length` ids: EncodeRows, which computes only the work those rows
// read. With no position it runs the whole forward, for its random draws,
// and returns an undefined tensor.
Tensor TrainingRows(const TransformerEncoder& encoder,
                    const std::vector<int>& ids, int length,
                    const std::vector<int>& positions, Rng& rng) {
  Tensor embedded = encoder.Embed(ids, length, {}, rng, /*training=*/true);
  if (positions.empty()) {
    encoder.Encode(embedded, rng, /*training=*/true);
    return Tensor();
  }
  return encoder.EncodeRows(embedded, positions, rng, /*training=*/true);
}

}  // namespace

Tensor TeleBert::GeneratorMlmLoss(const text::MaskedExample& masked,
                                  int length, std::vector<int>* corrupted_ids,
                                  Rng& rng) const {
  // The masked positions only — the vocab projection dominates MLM cost,
  // and the generator's layer runs only the rows it reads.
  std::vector<int> positions;
  std::vector<int> labels;
  MaskedPositions(masked, length, &positions, &labels);
  Tensor hidden = TrainingRows(*generator_, masked.ids, length, positions, rng);
  *corrupted_ids = masked.ids;
  if (positions.empty()) return Tensor();
  Tensor logits = mlm_head_->Forward(hidden);
  // Sample replacements from the generator distribution (ELECTRA).
  const int vocab = logits.dim(1);
  for (size_t row = 0; row < positions.size(); ++row) {
    // Softmax sampling over the row.
    std::vector<double> probs(static_cast<size_t>(vocab));
    float max_logit = -1e30f;
    for (int c = 0; c < vocab; ++c) {
      max_logit = std::max(max_logit,
                           logits.at(static_cast<int>(row), c));
    }
    double denom = 0.0;
    for (int c = 0; c < vocab; ++c) {
      probs[static_cast<size_t>(c)] =
          std::exp(static_cast<double>(logits.at(static_cast<int>(row), c) -
                                       max_logit));
      denom += probs[static_cast<size_t>(c)];
    }
    for (double& p : probs) p /= denom;
    (*corrupted_ids)[static_cast<size_t>(positions[row])] =
        static_cast<int>(rng.Categorical(probs));
  }
  return tensor::CrossEntropyWithLogits(logits, labels);
}

std::vector<PretrainStats> TeleBert::Pretrain(
    const std::vector<text::EncodedInput>& corpus, const text::Vocab& vocab,
    const PretrainOptions& options, Rng& rng) {
  TELEKIT_CHECK(!corpus.empty());
  obs::Span pretrain_span("train/pretrain");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram& step_ms = registry.GetHistogram("train/step_ms");
  obs::Counter& steps_total = registry.GetCounter("train/steps");
  obs::Counter& tokens_total = registry.GetCounter("train/tokens");
  TELEKIT_LOG(INFO) << "pretrain start" << obs::F("steps", options.steps)
                    << obs::F("batch_size", options.batch_size)
                    << obs::F("corpus", corpus.size());
  tensor::Adam optimizer(options.learning_rate);
  optimizer.AddParameters(TensorsOf(Parameters()));

  std::vector<PretrainStats> history;
  history.reserve(static_cast<size_t>(options.steps));
  uint64_t run_tokens = 0;
  for (int step = 0; step < options.steps; ++step) {
    obs::ScopedTimer step_timer(step_ms);
    optimizer.ZeroGrad();
    std::vector<Tensor> losses;
    std::vector<Tensor> cls_a, cls_b;  // SimCSE views
    double mlm_total = 0, rtd_total = 0;
    int mlm_count = 0;
    const bool do_simcse = options.simcse_weight > 0.0f;
    for (int b = 0; b < options.batch_size; ++b) {
      const text::EncodedInput& example =
          corpus[static_cast<size_t>(rng.UniformInt(corpus.size()))];
      tokens_total.Increment(static_cast<uint64_t>(example.length));
      run_tokens += static_cast<uint64_t>(example.length);
      text::MaskedExample masked =
          text::ApplyMasking(example, vocab, options.masking, rng);
      if (options.objective == PretrainObjective::kMlmOnly) {
        // Plain MLM on the main encoder (ablation of the ELECTRA choice).
        std::vector<int> positions, labels;
        MaskedPositions(masked, example.length, &positions, &labels);
        Tensor hidden = TrainingRows(*encoder_, masked.ids, example.length,
                                     positions, rng);
        if (!positions.empty()) {
          Tensor logits = encoder_mlm_head_->Forward(hidden);
          Tensor mlm = tensor::CrossEntropyWithLogits(logits, labels);
          losses.push_back(mlm);
          mlm_total += mlm.item();
          ++mlm_count;
        }
        if (do_simcse) {
          cls_a.push_back(EncodeCls(example, rng, /*training=*/true));
          cls_b.push_back(EncodeCls(example, rng, /*training=*/true));
        }
        continue;
      }
      // Generator MLM + replacement sampling.
      std::vector<int> corrupted;
      Tensor mlm = GeneratorMlmLoss(masked, example.length, &corrupted, rng);
      if (mlm.defined()) {
        losses.push_back(mlm);
        mlm_total += mlm.item();
        ++mlm_count;
      }
      // Discriminator replaced-token detection over the corrupted input.
      Tensor hidden = encoder_->Forward(corrupted, example.length, rng,
                                        /*training=*/true);
      Tensor rtd_logits =
          tensor::Reshape(rtd_head_->Forward(hidden), {example.length});
      std::vector<float> replaced(static_cast<size_t>(example.length), 0.0f);
      for (int i = 0; i < example.length; ++i) {
        replaced[static_cast<size_t>(i)] =
            corrupted[static_cast<size_t>(i)] !=
                    example.ids[static_cast<size_t>(i)]
                ? 1.0f
                : 0.0f;
      }
      Tensor rtd = tensor::MulScalar(
          tensor::BceWithLogits(rtd_logits, replaced), options.rtd_weight);
      losses.push_back(rtd);
      rtd_total += rtd.item() / std::max(options.rtd_weight, 1e-6f);
      // SimCSE: two dropout views of the clean input.
      if (do_simcse) {
        cls_a.push_back(EncodeCls(example, rng, /*training=*/true));
        cls_b.push_back(EncodeCls(example, rng, /*training=*/true));
      }
    }
    PretrainStats stats;
    stats.mlm_loss =
        mlm_count > 0 ? static_cast<float>(mlm_total / mlm_count) : 0.0f;
    stats.rtd_loss = static_cast<float>(rtd_total / options.batch_size);
    if (do_simcse && cls_a.size() >= 2) {
      // InfoNCE: view b of sample i is the positive for view a of i.
      Tensor a = tensor::L2NormalizeRows(tensor::ConcatRows(cls_a));
      Tensor b = tensor::L2NormalizeRows(tensor::ConcatRows(cls_b));
      Tensor sims = tensor::MulScalar(
          tensor::MatMul(a, tensor::Transpose(b)),
          1.0f / options.simcse_temperature);
      std::vector<int> diagonal(cls_a.size());
      for (size_t i = 0; i < cls_a.size(); ++i) {
        diagonal[i] = static_cast<int>(i);
      }
      Tensor simcse = tensor::CrossEntropyWithLogits(sims, diagonal);
      stats.simcse_loss = simcse.item();
      losses.push_back(tensor::MulScalar(simcse, options.simcse_weight));
    }
    // Average over the batch and step.
    Tensor total = tensor::MulScalar(
        [&losses] {
          Tensor sum = losses.front();
          for (size_t i = 1; i < losses.size(); ++i) {
            sum = tensor::Add(sum, losses[i]);
          }
          return sum;
        }(),
        1.0f / static_cast<float>(options.batch_size));
    stats.total_loss = total.item();
    total.Backward();
    optimizer.ClipGradNorm(options.clip_norm);
    optimizer.Step();
    history.push_back(stats);
    steps_total.Increment();
    if ((step + 1) % 100 == 0 || step + 1 == options.steps) {
      TELEKIT_LOG(INFO) << "pretrain step" << obs::F("step", step + 1)
                        << obs::F("total_loss", stats.total_loss)
                        << obs::F("mlm_loss", stats.mlm_loss)
                        << obs::F("rtd_loss", stats.rtd_loss)
                        << obs::F("simcse_loss", stats.simcse_loss);
    }
  }
  const double elapsed_s =
      static_cast<double>(pretrain_span.ElapsedUs()) / 1.0e6;
  if (elapsed_s > 0.0) {
    registry.GetGauge("train/tokens_per_sec")
        .Set(static_cast<double>(run_tokens) / elapsed_s);
  }
  TELEKIT_LOG(INFO) << "pretrain done" << obs::F("steps", options.steps)
                    << obs::F("tokens", run_tokens)
                    << obs::F("elapsed_s", elapsed_s);
  return history;
}

Tensor TeleBert::Hidden(const text::EncodedInput& input, Rng& rng,
                        bool training) const {
  return encoder_->Forward(input.ids, input.length, rng, training);
}

Tensor TeleBert::EncodeCls(const text::EncodedInput& input, Rng& rng,
                           bool training) const {
  return encoder_->EncodeRows(
      encoder_->Embed(input.ids, input.length, {}, rng, training), {0}, rng,
      training);
}

std::vector<float> TeleBert::ServiceVector(
    const text::EncodedInput& input) const {
  std::vector<float> cls(static_cast<size_t>(encoder_->config().d_model));
  encoder_->InferCls(input.ids, input.length, {}, cls.data());
  return cls;
}

NamedParams TeleBert::Parameters() const {
  NamedParams out;
  AppendWithPrefix("encoder", encoder_->Parameters(), &out);
  AppendWithPrefix("generator", generator_->Parameters(), &out);
  AppendWithPrefix("mlm_head", mlm_head_->Parameters(), &out);
  AppendWithPrefix("rtd_head", rtd_head_->Parameters(), &out);
  AppendWithPrefix("encoder_mlm_head", encoder_mlm_head_->Parameters(), &out);
  return out;
}

tensor::TensorMap TeleBert::Checkpoint() const {
  return ToTensorMap(Parameters());
}

Status TeleBert::Restore(const tensor::TensorMap& checkpoint) {
  tensor::TensorMap current = ToTensorMap(Parameters());
  return tensor::RestoreInto(checkpoint, current);
}

}  // namespace core
}  // namespace telekit
