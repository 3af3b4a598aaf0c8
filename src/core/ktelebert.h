#ifndef TELEKIT_CORE_KTELEBERT_H_
#define TELEKIT_CORE_KTELEBERT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/anenc.h"
#include "core/telebert.h"
#include "core/transformer.h"
#include "text/masking.h"
#include "text/tokenizer.h"

namespace telekit {
namespace core {

/// KTeleBERT configuration (Sec. IV).
struct KTeleBertConfig {
  EncoderConfig encoder;
  AnEncConfig anenc;
  /// Ablation switch: false replaces ANEnc outputs with the plain [NUM]
  /// token embedding and disables all numeric losses ("w/o ANEnc").
  bool use_anenc = true;
  /// Tag vocabulary size for the TGC head (0 disables tag classification).
  int num_tags = 0;
  /// KE margin gamma (Eq. 10).
  float ke_margin = 1.0f;
  /// Negative samples per positive triple (the paper uses 10; scaled).
  int ke_negatives = 4;
  /// Orthogonal-regularization weight lambda (Eq. 8).
  float orthogonal_lambda = 1e-4f;
  /// Numerical contrastive temperature tau (Eq. 7).
  float nc_tau = 0.05f;
};

/// Multi-task training strategies of Table II.
enum class TrainingStrategy {
  kStl,   // single task: L_num + L_mask
  kPmtl,  // parallel: L_num + L_mask + L_ke summed every step
  kImtl,  // iterative: staged / interleaved schedule (ERNIE2-style)
};

/// Re-training (stage two) options.
struct ReTrainOptions {
  TrainingStrategy strategy = TrainingStrategy::kStl;
  int total_steps = 400;
  int batch_size = 8;
  /// Triples per KE step.
  int ke_batch_size = 6;
  float learning_rate = 5e-4f;
  /// Stage-two masking: 40% dynamic whole-word (Sec. IV-C).
  text::MaskingOptions masking{.mask_rate = 0.4f};
  /// Scale of the KE loss relative to L_mask + L_num (keeps the TransE
  /// geometry from collapsing the [CLS] space on small models).
  float ke_loss_weight = 0.5f;
  /// Individual numeric-objective switches (for ablations).
  bool use_regression = true;
  bool use_tag_classification = true;
  bool use_numeric_contrastive = true;
  /// false replaces the auto-weighted fusion by a plain sum (ablation).
  bool use_auto_weighting = true;
  float clip_norm = 5.0f;
};

/// One KE training triple: prompt-encoded head/relation/tail plus the ids
/// of head and tail in the entity table (for negative sampling).
struct KeTriple {
  text::EncodedInput head;
  text::EncodedInput relation;
  text::EncodedInput tail;
  int head_id = 0;
  int tail_id = 0;
};

/// Everything stage two consumes, already tokenized. Built by the model
/// zoo from the synthetic world; kept free of synth types so core stays
/// independent of the generators.
struct ReTrainData {
  /// Causal sentences (mask loss only).
  std::vector<text::EncodedInput> causal_sentences;
  /// Serialized KG triples as sentences (implicit knowledge injection).
  std::vector<text::EncodedInput> triple_sentences;
  /// Prompt-wrapped machine log records with numeric slots.
  std::vector<text::EncodedInput> machine_logs;
  /// Tag label per machine log's first numeric slot (-1 = unseen tag).
  std::vector<int> machine_log_tags;
  /// KE triples and the entity-id -> encoded-prompt table used to encode
  /// corrupted entities.
  std::vector<KeTriple> ke_triples;
  std::vector<text::EncodedInput> entity_inputs;
};

/// Per-step re-training diagnostics.
struct ReTrainStats {
  float mask_loss = 0.0f;
  float reg_loss = 0.0f;
  float cls_loss = 0.0f;
  float nc_loss = 0.0f;
  float ke_loss = 0.0f;
  float total_loss = 0.0f;
  bool ran_mask_task = false;
  bool ran_ke_task = false;
};

/// KTeleBERT: TeleBERT re-trained on causal and machine corpora with
/// numeric encoding (ANEnc/NDec/TGC + contrastive + auto-weighting +
/// orthogonal regularization) and explicit knowledge injection via a
/// KEPLER-style text-enhanced KE objective (Sec. IV).
class KTeleBert {
 public:
  KTeleBert(const KTeleBertConfig& config, Rng& rng);

  /// Copies the stage-one encoder weights (TeleBERT -> KTeleBERT).
  Status InitializeFromTeleBert(const TeleBert& telebert);

  /// Hidden states with numeric slots replaced by ANEnc embeddings.
  /// When `anenc_outputs` is non-null it receives the ANEnc embedding of
  /// each numeric slot (order matches input.numeric_slots).
  tensor::Tensor Hidden(const text::EncodedInput& input, Rng& rng,
                        bool training,
                        std::vector<tensor::Tensor>* anenc_outputs = nullptr)
      const;

  /// Rows `rows` (strictly ascending) of Hidden, bit for bit, by the
  /// encoder's EncodeRows: the last layer runs only what those rows read.
  tensor::Tensor HiddenRows(
      const text::EncodedInput& input, const std::vector<int>& rows,
      Rng& rng, bool training,
      std::vector<tensor::Tensor>* anenc_outputs = nullptr) const;

  /// [CLS] output embedding [1, d].
  tensor::Tensor EncodeCls(const text::EncodedInput& input, Rng& rng,
                           bool training) const;

  /// Detached [CLS] embedding (service vector, Sec. V-A3): the encoder's
  /// tape-free InferCls over the ANEnc rows of the numeric slots (those
  /// run on the autograd ops under tensor::NoGradGuard), bit-identical to
  /// eval-mode EncodeCls. Safe to call concurrently from many threads
  /// once the model is trained.
  std::vector<float> ServiceVector(const text::EncodedInput& input) const;

  /// KE distance d_r(h, t) = ||e_h + e_r - e_t|| (Eq. 11) over [CLS]
  /// encodings; scalar tensor.
  tensor::Tensor KeDistance(const text::EncodedInput& head,
                            const text::EncodedInput& relation,
                            const text::EncodedInput& tail, Rng& rng,
                            bool training) const;

  const KTeleBertConfig& config() const { return config_; }
  TransformerEncoder& encoder() { return *encoder_; }
  const TransformerEncoder& encoder() const { return *encoder_; }
  const AnEnc& anenc() const { return *anenc_; }

  NamedParams Parameters() const;
  tensor::TensorMap Checkpoint() const;
  Status Restore(const tensor::TensorMap& checkpoint);

 private:
  friend class ReTrainer;

  /// ANEnc embeddings [1, d] of the numeric slots within the input, with
  /// their positions, in slot order (none without ANEnc).
  std::vector<std::pair<int, tensor::Tensor>> NumericRows(
      const text::EncodedInput& input) const;
  /// The encoder's embedding of `input` with the ANEnc rows in place.
  tensor::Tensor Embedded(const text::EncodedInput& input, Rng& rng,
                          bool training,
                          std::vector<tensor::Tensor>* anenc_outputs) const;

  KTeleBertConfig config_;
  std::unique_ptr<TransformerEncoder> encoder_;
  std::unique_ptr<AnEnc> anenc_;
  std::unique_ptr<NumericDecoder> ndec_;
  std::unique_ptr<TagClassifier> tgc_;
  std::unique_ptr<LinearLayer> mlm_head_;  // d -> vocab (stage-two MLM)
  std::unique_ptr<AutoWeightedLoss> auto_loss_;
};

/// Stage-two trainer implementing the strategies of Table II.
class ReTrainer {
 public:
  ReTrainer(KTeleBert& model, const ReTrainOptions& options)
      : model_(model), options_(options) {}

  /// Runs the configured schedule; returns per-step stats.
  std::vector<ReTrainStats> Train(const ReTrainData& data, Rng& rng);

 private:
  /// Mask-reconstruction + numeric losses on a mixed batch; fills `stats`
  /// and returns the (scalar) step loss, or an undefined tensor when the
  /// batch produced no supervision.
  tensor::Tensor MaskNumericLoss(const ReTrainData& data, Rng& rng,
                                 ReTrainStats* stats);
  /// KE loss over a batch of triples (Eq. 10).
  tensor::Tensor KeLoss(const ReTrainData& data, Rng& rng,
                        ReTrainStats* stats);
  /// Which tasks run at `step` under the configured strategy.
  void TasksForStep(int step, bool* run_mask, bool* run_ke) const;

  KTeleBert& model_;
  ReTrainOptions options_;
};

}  // namespace core
}  // namespace telekit

#endif  // TELEKIT_CORE_KTELEBERT_H_
