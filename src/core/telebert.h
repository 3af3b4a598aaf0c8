#ifndef TELEKIT_CORE_TELEBERT_H_
#define TELEKIT_CORE_TELEBERT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/transformer.h"
#include "text/masking.h"
#include "text/tokenizer.h"

namespace telekit {
namespace core {

/// Stage-one pre-training options (Sec. III). Step counts are scaled-down
/// defaults for the CPU reproduction; raise them to approach the paper's
/// regime.
/// Stage-one self-supervision objective.
enum class PretrainObjective {
  /// ELECTRA: generator MLM + discriminator replaced-token detection
  /// (the paper's setup, Sec. III-B).
  kElectra,
  /// Plain masked-language modelling on the main encoder (ablation).
  kMlmOnly,
};

struct PretrainOptions {
  int steps = 300;
  int batch_size = 16;
  float learning_rate = 1e-3f;
  /// Stage-one masking (vanilla 15%, whole-word).
  text::MaskingOptions masking;
  PretrainObjective objective = PretrainObjective::kElectra;
  /// ELECTRA replaced-token-detection weight.
  float rtd_weight = 1.0f;
  /// SimCSE dropout-contrastive weight (0 disables).
  float simcse_weight = 0.1f;
  float simcse_temperature = 0.05f;
  /// Gradient clipping threshold.
  float clip_norm = 5.0f;
};

/// Per-step training diagnostics.
struct PretrainStats {
  float mlm_loss = 0.0f;
  float rtd_loss = 0.0f;
  float simcse_loss = 0.0f;
  float total_loss = 0.0f;
};

/// TeleBERT: the stage-one tele-domain PLM. The main encoder acts as the
/// ELECTRA discriminator (trained with replaced-token detection); a smaller
/// generator encoder performs mask reconstruction and supplies plausible
/// replacements; SimCSE dropout-contrastive learning regularizes the [CLS]
/// space. The same class pre-trained on the general corpus is the MacBERT
/// surrogate baseline.
class TeleBert {
 public:
  TeleBert(const EncoderConfig& config, Rng& rng);

  /// Runs pre-training over the encoded corpus; returns per-step stats.
  std::vector<PretrainStats> Pretrain(
      const std::vector<text::EncodedInput>& corpus, const text::Vocab& vocab,
      const PretrainOptions& options, Rng& rng);

  /// Hidden states of a (trimmed) encoded input: [length, d].
  tensor::Tensor Hidden(const text::EncodedInput& input, Rng& rng,
                        bool training) const;

  /// [CLS] output embedding as [1, d].
  tensor::Tensor EncodeCls(const text::EncodedInput& input, Rng& rng,
                           bool training) const;

  /// Detached [CLS] embedding as a plain vector (the "service vector"):
  /// the encoder's tape-free InferCls, bit-identical to eval-mode
  /// EncodeCls. Safe to call concurrently from many threads once the
  /// model is trained.
  std::vector<float> ServiceVector(const text::EncodedInput& input) const;

  TransformerEncoder& encoder() { return *encoder_; }
  const TransformerEncoder& encoder() const { return *encoder_; }

  /// All trainable parameters (encoder + generator + heads).
  NamedParams Parameters() const;

  /// Checkpoint round-trip.
  tensor::TensorMap Checkpoint() const;
  Status Restore(const tensor::TensorMap& checkpoint);

 private:
  /// One MLM forward through the generator; returns (loss, sampled
  /// replacement ids at masked positions).
  tensor::Tensor GeneratorMlmLoss(const text::MaskedExample& masked,
                                  int length, std::vector<int>* corrupted_ids,
                                  Rng& rng) const;

  std::unique_ptr<TransformerEncoder> encoder_;    // discriminator
  std::unique_ptr<TransformerEncoder> generator_;  // small MLM generator
  std::unique_ptr<LinearLayer> mlm_head_;          // d_gen -> vocab
  std::unique_ptr<LinearLayer> rtd_head_;          // d -> 1
  std::unique_ptr<LinearLayer> encoder_mlm_head_;  // d -> vocab (kMlmOnly)
};

}  // namespace core
}  // namespace telekit

#endif  // TELEKIT_CORE_TELEBERT_H_
