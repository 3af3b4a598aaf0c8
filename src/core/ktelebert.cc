#include "core/ktelebert.h"

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

KTeleBert::KTeleBert(const KTeleBertConfig& config, Rng& rng)
    : config_(config) {
  TELEKIT_CHECK_EQ(config.encoder.d_model, config.anenc.d_model)
      << "ANEnc and encoder dims must match";
  encoder_ = std::make_unique<TransformerEncoder>(config.encoder, rng);
  anenc_ = std::make_unique<AnEnc>(config.anenc, rng);
  ndec_ = std::make_unique<NumericDecoder>(config.encoder.d_model, rng);
  if (config.num_tags > 0) {
    tgc_ = std::make_unique<TagClassifier>(config.encoder.d_model,
                                           config.num_tags, rng);
  }
  mlm_head_ = std::make_unique<LinearLayer>(config.encoder.d_model,
                                            config.encoder.vocab_size, rng);
  auto_loss_ = std::make_unique<AutoWeightedLoss>(3);
}

Status KTeleBert::InitializeFromTeleBert(const TeleBert& telebert) {
  // Copy only the main-encoder weights; generator and heads are stage-one
  // artifacts.
  tensor::TensorMap source;
  for (const auto& [name, t] : telebert.encoder().Parameters()) {
    source.emplace(name, t);
  }
  tensor::TensorMap target;
  for (const auto& [name, t] : encoder_->Parameters()) {
    target.emplace(name, t);
  }
  return tensor::RestoreInto(source, target);
}

std::vector<std::pair<int, Tensor>> KTeleBert::NumericRows(
    const text::EncodedInput& input) const {
  std::vector<std::pair<int, Tensor>> rows;
  if (!config_.use_anenc) return rows;
  for (const text::NumericSlot& slot : input.numeric_slots) {
    if (slot.position >= input.length) continue;
    Tensor tag_embedding = encoder_->MeanTokenEmbedding(slot.tag_ids);
    rows.emplace_back(slot.position, anenc_->Forward(tag_embedding, slot.value));
  }
  return rows;
}

Tensor KTeleBert::Embedded(const text::EncodedInput& input, Rng& rng,
                           bool training,
                           std::vector<Tensor>* anenc_outputs) const {
  const std::vector<std::pair<int, Tensor>> overrides = NumericRows(input);
  if (anenc_outputs != nullptr) {
    for (const auto& [position, row] : overrides) anenc_outputs->push_back(row);
  }
  return encoder_->Embed(input.ids, input.length, overrides, rng, training);
}

Tensor KTeleBert::Hidden(const text::EncodedInput& input, Rng& rng,
                         bool training,
                         std::vector<Tensor>* anenc_outputs) const {
  return encoder_->Encode(Embedded(input, rng, training, anenc_outputs), rng,
                          training);
}

Tensor KTeleBert::HiddenRows(const text::EncodedInput& input,
                             const std::vector<int>& rows, Rng& rng,
                             bool training,
                             std::vector<Tensor>* anenc_outputs) const {
  return encoder_->EncodeRows(Embedded(input, rng, training, anenc_outputs),
                              rows, rng, training);
}

Tensor KTeleBert::EncodeCls(const text::EncodedInput& input, Rng& rng,
                            bool training) const {
  return HiddenRows(input, {0}, rng, training);
}

std::vector<float> KTeleBert::ServiceVector(
    const text::EncodedInput& input) const {
  tensor::NoGradGuard no_grad;
  const std::vector<std::pair<int, Tensor>> rows = NumericRows(input);
  RowOverrides overrides;
  overrides.reserve(rows.size());
  for (const auto& [position, row] : rows) {
    overrides.emplace_back(position, row.data().data());
  }
  std::vector<float> cls(static_cast<size_t>(config_.encoder.d_model));
  encoder_->InferCls(input.ids, input.length, overrides, cls.data());
  return cls;
}

Tensor KTeleBert::KeDistance(const text::EncodedInput& head,
                             const text::EncodedInput& relation,
                             const text::EncodedInput& tail, Rng& rng,
                             bool training) const {
  Tensor e_h = EncodeCls(head, rng, training);
  Tensor e_r = EncodeCls(relation, rng, training);
  Tensor e_t = EncodeCls(tail, rng, training);
  Tensor diff = tensor::Sub(tensor::Add(e_h, e_r), e_t);
  return tensor::Sqrt(
      tensor::AddScalar(tensor::Sum(tensor::Square(diff)), 1e-12f));
}

NamedParams KTeleBert::Parameters() const {
  NamedParams out;
  AppendWithPrefix("encoder", encoder_->Parameters(), &out);
  AppendWithPrefix("anenc", anenc_->Parameters(), &out);
  AppendWithPrefix("ndec", ndec_->Parameters(), &out);
  if (tgc_ != nullptr) AppendWithPrefix("tgc", tgc_->Parameters(), &out);
  AppendWithPrefix("mlm_head", mlm_head_->Parameters(), &out);
  AppendWithPrefix("auto_loss", auto_loss_->Parameters(), &out);
  return out;
}

tensor::TensorMap KTeleBert::Checkpoint() const {
  return ToTensorMap(Parameters());
}

Status KTeleBert::Restore(const tensor::TensorMap& checkpoint) {
  tensor::TensorMap current = ToTensorMap(Parameters());
  return tensor::RestoreInto(checkpoint, current);
}

// --- ReTrainer ---------------------------------------------------------------

Tensor ReTrainer::MaskNumericLoss(const ReTrainData& data, Rng& rng,
                                  ReTrainStats* stats) {
  // Assemble a mixed batch: machine logs (numeric supervision) and text
  // (causal + serialized triples) in roughly equal shares.
  struct Item {
    const text::EncodedInput* input;
    int tag_label;  // -1 for text items
  };
  std::vector<Item> batch;
  for (int b = 0; b < options_.batch_size; ++b) {
    const double roll = rng.Uniform();
    if (roll < 0.5 && !data.machine_logs.empty()) {
      const size_t idx =
          static_cast<size_t>(rng.UniformInt(data.machine_logs.size()));
      batch.push_back({&data.machine_logs[idx],
                       data.machine_log_tags.empty()
                           ? -1
                           : data.machine_log_tags[idx]});
    } else if (roll < 0.8 && !data.causal_sentences.empty()) {
      batch.push_back(
          {&data.causal_sentences[static_cast<size_t>(
               rng.UniformInt(data.causal_sentences.size()))],
           -1});
    } else if (!data.triple_sentences.empty()) {
      batch.push_back(
          {&data.triple_sentences[static_cast<size_t>(
               rng.UniformInt(data.triple_sentences.size()))],
           -1});
    }
  }
  if (batch.empty()) return Tensor();

  KTeleBert& m = model_;
  std::vector<Tensor> mask_losses;
  std::vector<Tensor> reg_losses;
  std::vector<Tensor> cls_losses;
  std::vector<Tensor> nc_embeddings;
  std::vector<float> nc_values;
  for (const Item& item : batch) {
    const text::EncodedInput& input = *item.input;
    text::MaskedExample masked = text::ApplyMasking(
        input, m.config_.encoder.vocab_size, options_.masking, rng);

    // The rows the losses read: the supervised positions (mask
    // reconstruction) and, for the regression, the numeric slots' rows.
    std::vector<int> positions;
    std::vector<int> labels;
    for (int i = 0; i < input.length; ++i) {
      if (masked.labels[static_cast<size_t>(i)] >= 0) {
        positions.push_back(i);
        labels.push_back(masked.labels[static_cast<size_t>(i)]);
      }
    }
    const bool numeric = m.config_.use_anenc && !input.numeric_slots.empty();
    std::vector<int> rows = positions;
    if (numeric && options_.use_regression) {
      for (const text::NumericSlot& slot : input.numeric_slots) {
        if (slot.position < input.length) rows.push_back(slot.position);
      }
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    }
    // A hidden position's row in `hidden`.
    auto row_of = [&rows](int position) {
      return static_cast<int>(
          std::lower_bound(rows.begin(), rows.end(), position) - rows.begin());
    };

    std::vector<Tensor> anenc_outputs;
    // Forward over the *masked* ids but the original numeric slots. With
    // no row read, the whole forward still runs for its random draws.
    text::EncodedInput corrupted = input;
    corrupted.ids = masked.ids;
    Tensor hidden =
        rows.empty()
            ? m.Hidden(corrupted, rng, /*training=*/true, &anenc_outputs)
            : m.HiddenRows(corrupted, rows, rng, /*training=*/true,
                           &anenc_outputs);

    // Mask-reconstruction loss at the supervised positions.
    if (!positions.empty()) {
      std::vector<int> position_rows;
      for (int position : positions) position_rows.push_back(row_of(position));
      Tensor logits =
          m.mlm_head_->Forward(tensor::GatherRows(hidden, position_rows));
      mask_losses.push_back(tensor::CrossEntropyWithLogits(logits, labels));
    }

    // Numeric objectives per slot.
    if (numeric) {
      for (size_t s = 0; s < anenc_outputs.size(); ++s) {
        const text::NumericSlot& slot = input.numeric_slots[s];
        if (options_.use_regression) {
          Tensor final_at_slot =
              tensor::SliceRows(hidden, row_of(slot.position), 1);
          Tensor predicted = m.ndec_->Forward(final_at_slot);
          Tensor target = Tensor::FromData({1}, {slot.value});
          reg_losses.push_back(tensor::MseLoss(predicted, target));
        }
        if (options_.use_tag_classification && m.tgc_ != nullptr &&
            item.tag_label >= 0) {
          Tensor logits = m.tgc_->Forward(anenc_outputs[s]);
          cls_losses.push_back(
              tensor::CrossEntropyWithLogits(logits, {item.tag_label}));
        }
        if (options_.use_numeric_contrastive) {
          nc_embeddings.push_back(anenc_outputs[s]);
          nc_values.push_back(slot.value);
        }
      }
    }
  }

  auto mean_of = [](const std::vector<Tensor>& losses) -> Tensor {
    if (losses.empty()) return Tensor();
    Tensor sum = losses.front();
    for (size_t i = 1; i < losses.size(); ++i) {
      sum = tensor::Add(sum, losses[i]);
    }
    return tensor::MulScalar(sum, 1.0f / static_cast<float>(losses.size()));
  };

  Tensor mask_loss = mean_of(mask_losses);
  Tensor reg_loss = mean_of(reg_losses);
  Tensor cls_loss = mean_of(cls_losses);
  Tensor nc_loss;
  if (options_.use_numeric_contrastive && nc_embeddings.size() >= 3) {
    nc_loss = NumericContrastiveLoss(nc_embeddings, nc_values,
                                     m.config_.nc_tau);
  }

  if (mask_loss.defined()) stats->mask_loss += mask_loss.item();
  if (reg_loss.defined()) stats->reg_loss += reg_loss.item();
  if (cls_loss.defined()) stats->cls_loss += cls_loss.item();
  if (nc_loss.defined()) stats->nc_loss += nc_loss.item();

  // L_num: auto-weighted fusion of the three numeric objectives plus the
  // orthogonal regularizer (Eq. 8).
  Tensor total = mask_loss;
  const bool any_numeric =
      reg_loss.defined() || cls_loss.defined() || nc_loss.defined();
  if (any_numeric) {
    Tensor numeric;
    if (options_.use_auto_weighting) {
      numeric = m.auto_loss_->Combine({reg_loss, cls_loss, nc_loss});
    } else {
      std::vector<Tensor> defined;
      for (const Tensor& loss : {reg_loss, cls_loss, nc_loss}) {
        if (loss.defined()) defined.push_back(loss);
      }
      numeric = mean_of(defined);
    }
    if (m.config_.orthogonal_lambda > 0.0f) {
      numeric = tensor::Add(
          numeric, tensor::MulScalar(m.anenc_->OrthogonalPenalty(),
                                     m.config_.orthogonal_lambda));
    }
    total = total.defined() ? tensor::Add(total, numeric) : numeric;
  }
  return total;
}

Tensor ReTrainer::KeLoss(const ReTrainData& data, Rng& rng,
                         ReTrainStats* stats) {
  if (data.ke_triples.empty() || data.entity_inputs.empty()) return Tensor();
  KTeleBert& m = model_;
  const float gamma = m.config_.ke_margin;
  std::vector<Tensor> losses;
  for (int b = 0; b < options_.ke_batch_size; ++b) {
    const KeTriple& triple = data.ke_triples[static_cast<size_t>(
        rng.UniformInt(data.ke_triples.size()))];
    Tensor d_pos = m.KeDistance(triple.head, triple.relation, triple.tail,
                                rng, /*training=*/true);
    // -log sigma(gamma - d_pos)
    Tensor loss = tensor::Neg(
        tensor::LogSigmoid(tensor::Neg(tensor::AddScalar(d_pos, -gamma))));
    // Negatives: corrupt the head or the tail with a random entity.
    for (int n = 0; n < m.config_.ke_negatives; ++n) {
      const text::EncodedInput& corrupt =
          data.entity_inputs[static_cast<size_t>(
              rng.UniformInt(data.entity_inputs.size()))];
      const bool corrupt_tail = rng.Bernoulli(0.5);
      Tensor d_neg =
          corrupt_tail
              ? m.KeDistance(triple.head, triple.relation, corrupt, rng, true)
              : m.KeDistance(corrupt, triple.relation, triple.tail, rng,
                             true);
      // -(1/n) log sigma(d_neg - gamma), uniform negative weighting.
      loss = tensor::Add(
          loss,
          tensor::MulScalar(
              tensor::Neg(tensor::LogSigmoid(tensor::AddScalar(d_neg,
                                                               -gamma))),
              1.0f / static_cast<float>(m.config_.ke_negatives)));
    }
    losses.push_back(loss);
  }
  Tensor sum = losses.front();
  for (size_t i = 1; i < losses.size(); ++i) {
    sum = tensor::Add(sum, losses[i]);
  }
  Tensor mean =
      tensor::MulScalar(sum, 1.0f / static_cast<float>(losses.size()));
  stats->ke_loss += mean.item();
  return mean;
}

void ReTrainer::TasksForStep(int step, bool* run_mask, bool* run_ke) const {
  switch (options_.strategy) {
    case TrainingStrategy::kStl:
      *run_mask = true;
      *run_ke = false;
      return;
    case TrainingStrategy::kPmtl:
      *run_mask = true;
      *run_ke = true;
      return;
    case TrainingStrategy::kImtl: {
      // Table II schedule, proportionally scaled: stage 1 (first 40%) only
      // mask reconstruction; stage 2 (40-80%) mostly KE with interleaved
      // mask steps (1:4); stage 3 (last 20%) interleaved 1:2.
      const double progress = static_cast<double>(step) /
                              static_cast<double>(options_.total_steps);
      if (progress < 0.4) {
        *run_mask = true;
        *run_ke = false;
      } else if (progress < 0.8) {
        *run_mask = (step % 5 == 0);
        *run_ke = !*run_mask;
      } else {
        *run_mask = (step % 3 == 0);
        *run_ke = !*run_mask;
      }
      return;
    }
  }
}

std::vector<ReTrainStats> ReTrainer::Train(const ReTrainData& data,
                                           Rng& rng) {
  obs::Span retrain_span("train/retrain");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram& step_ms = registry.GetHistogram("retrain/step_ms");
  obs::Counter& mask_steps = registry.GetCounter("retrain/mask_steps");
  obs::Counter& ke_steps = registry.GetCounter("retrain/ke_steps");
  TELEKIT_LOG(INFO) << "retrain start"
                    << obs::F("steps", options_.total_steps)
                    << obs::F("strategy", static_cast<int>(options_.strategy))
                    << obs::F("machine_logs", data.machine_logs.size())
                    << obs::F("ke_triples", data.ke_triples.size());
  tensor::Adam optimizer(options_.learning_rate);
  optimizer.AddParameters(TensorsOf(model_.Parameters()));
  std::vector<ReTrainStats> history;
  history.reserve(static_cast<size_t>(options_.total_steps));
  for (int step = 0; step < options_.total_steps; ++step) {
    obs::ScopedTimer step_timer(step_ms);
    bool run_mask = false, run_ke = false;
    TasksForStep(step, &run_mask, &run_ke);
    if (run_mask) mask_steps.Increment();
    if (run_ke) ke_steps.Increment();
    ReTrainStats stats;
    stats.ran_mask_task = run_mask;
    stats.ran_ke_task = run_ke;
    optimizer.ZeroGrad();
    Tensor total;
    if (run_mask) {
      Tensor mask = MaskNumericLoss(data, rng, &stats);
      if (mask.defined()) total = mask;
    }
    if (run_ke) {
      Tensor ke = KeLoss(data, rng, &stats);
      if (ke.defined()) {
        ke = tensor::MulScalar(ke, options_.ke_loss_weight);
        total = total.defined() ? tensor::Add(total, ke) : ke;
      }
    }
    if (total.defined()) {
      stats.total_loss = total.item();
      total.Backward();
      optimizer.ClipGradNorm(options_.clip_norm);
      optimizer.Step();
    }
    history.push_back(stats);
    if ((step + 1) % 100 == 0 || step + 1 == options_.total_steps) {
      TELEKIT_LOG(INFO) << "retrain step" << obs::F("step", step + 1)
                        << obs::F("total_loss", stats.total_loss)
                        << obs::F("mask_loss", stats.mask_loss)
                        << obs::F("ke_loss", stats.ke_loss)
                        << obs::F("ran_mask", stats.ran_mask_task)
                        << obs::F("ran_ke", stats.ran_ke_task);
    }
  }
  registry.GetGauge("retrain/final_loss")
      .Set(history.empty() ? 0.0
                           : static_cast<double>(history.back().total_loss));
  TELEKIT_LOG(INFO) << "retrain done" << obs::F("steps", options_.total_steps)
                    << obs::F("mask_steps", mask_steps.value())
                    << obs::F("ke_steps", ke_steps.value());
  return history;
}

}  // namespace core
}  // namespace telekit
