#ifndef TELEKIT_CORE_MODEL_ZOO_H_
#define TELEKIT_CORE_MODEL_ZOO_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ktelebert.h"
#include "core/service.h"
#include "core/telebert.h"
#include "synth/corpus.h"
#include "synth/kg_gen.h"
#include "synth/log.h"
#include "synth/world.h"
#include "text/numeric.h"
#include "text/tokenizer.h"

namespace telekit {
namespace core {

/// Every encoder variant that appears as a row in the paper's result
/// tables (IV / VI / VIII).
enum class ModelKind {
  kRandom,
  kWordEmbedding,
  kMacBert,    // general-corpus surrogate of the MacBERT baseline
  kTeleBert,   // stage-one tele-domain pre-training
  kKTeleBertStl,
  kKTeleBertStlNoAnEnc,  // "w/o ANEnc" ablation
  kKTeleBertPmtl,
  kKTeleBertImtl,
};

/// Display name matching the paper's table rows.
std::string ModelKindName(ModelKind kind);

/// All kinds in table order.
std::vector<ModelKind> AllModelKinds();

/// One configuration object for the whole experimental pipeline.
struct ZooConfig {
  uint64_t seed = 1234;
  synth::WorldConfig world;
  synth::CorpusConfig corpus;
  synth::LogConfig log;
  /// Episodes used for the KG attributes and the machine-log corpus.
  int num_episodes = 60;
  /// Machine-log prompt samples for re-training.
  int max_machine_logs = 800;
  /// Serialized-triple sentences for implicit injection.
  int max_triple_sentences = 400;
  /// KE triples (explicit injection).
  int max_ke_triples = 300;
  /// Extension (the paper's future work, Sec. IV-B): also mix prompt-
  /// wrapped signaling-flow records into the re-training machine logs.
  bool include_signaling_flows = false;
  int max_signaling_records = 200;
  text::TokenizerOptions tokenizer{.max_len = 24, .min_word_count = 2};
  /// Learned BPE tele special tokens added to the vocabulary.
  int num_tele_tokens = 24;
  EncoderConfig encoder{.d_model = 64,
                        .num_heads = 4,
                        .num_layers = 2,
                        .ffn_dim = 128,
                        .max_len = 24,
                        .dropout = 0.1f};
  PretrainOptions pretrain;
  ReTrainOptions retrain;
  AnEncConfig anenc;
  /// Directory for model checkpoints ("" disables caching). The TELEKIT
  /// CACHE env var, when set, overrides this.
  std::string cache_dir = "telekit_cache";
};

/// The training arithmetic's version, part of every checkpoint's file name
/// (`<cache_dir>/<model>.<digest>.v<N>.tkt`). A restore checks only names
/// and shapes, so bump it whenever training arithmetic changes: checkpoints
/// of older arithmetic then miss and retrain instead of restoring silently.
/// 2: the polynomial GELU and softmax exp (v1 files had no version).
constexpr int kCheckpointNumericsVersion = 2;

/// The `<digest>` of a checkpoint name: 16 hex digits of an FNV-1a hash
/// over everything that decides a model's weights: every ZooConfig field
/// a build reads (seeds, world, corpora, logs, data caps, tokenizer,
/// encoder, ANEnc, pre- and re-training options), the tokenizer's
/// vocabulary in id order, and kCheckpointNumericsVersion. Two zoos that
/// differ in any of them never restore each other's checkpoints: the other
/// zoo's file is simply not there, a plain cache miss. `cache_dir` is not
/// part of it.
std::string CheckpointDigest(const ZooConfig& config,
                             const text::Vocab& vocab);

/// Builds and owns the full experimental stack: the synthetic world, the
/// corpora, one shared tokenizer/normalizer, the Tele-KG, and all model
/// variants (pre-trained or restored from the checkpoint cache so that
/// every benchmark binary can reuse one training run).
class ModelZoo {
 public:
  explicit ModelZoo(const ZooConfig& config = ZooConfig());

  /// Runs the full build (idempotent). Safe under concurrent callers:
  /// the build methods single-flight behind one mutex, so the first caller
  /// materializes each checkpoint exactly once and late callers block,
  /// then observe the finished state — no double training, no double
  /// restore from the cache.
  void Build();

  /// Partial builds for benchmarks that do not need every variant:
  /// BuildData() constructs the world/corpora/tokenizer/KG/re-training
  /// data; BuildPretrained() additionally trains (or restores) TeleBERT
  /// and the MacBERT surrogate. Build() = both + all KTeleBERT variants.
  /// Same single-flight guarantee as Build().
  void BuildData();
  void BuildPretrained();

  // --- Data access (valid after Build) ------------------------------------
  const synth::WorldModel& world() const { return *world_; }
  const text::Tokenizer& tokenizer() const { return *tokenizer_; }
  const text::MinMaxNormalizer& normalizer() const { return normalizer_; }
  const kg::TripleStore& store() const { return store_; }
  const synth::LogGenerator& log_generator() const { return *logs_; }
  const std::vector<synth::Episode>& episodes() const { return episodes_; }
  const ReTrainData& retrain_data() const { return retrain_data_; }
  const ZooConfig& config() const { return config_; }
  /// Size of the TGC tag vocabulary (KPI names + numeric attribute names).
  int num_tags() const { return static_cast<int>(tag_vocab_.size()); }

  const TeleBert& telebert() const { return *telebert_; }
  const TeleBert& macbert() const { return *macbert_; }
  const KTeleBert& ktelebert(ModelKind kind) const;

  /// Encoder for any table row.
  const TextEncoder& Encoder(ModelKind kind) const;

  /// Service encoder (prompt building + encoding) for a table row.
  ServiceEncoder MakeServiceEncoder(ModelKind kind) const;

  /// Re-training loss histories (empty for variants restored from cache).
  const std::vector<ReTrainStats>& RetrainHistory(ModelKind kind) const;

  /// True if the variant was restored from the checkpoint cache.
  bool WasCached(ModelKind kind) const;

 private:
  std::string CachePath(const std::string& name) const;
  /// Build bodies, called with build_mutex_ held (the public entry points
  /// are locked wrappers; the internal Build -> BuildPretrained ->
  /// BuildData chain stays on the *Locked forms to avoid re-locking).
  void BuildLocked();
  void BuildDataLocked();
  void BuildPretrainedLocked();
  void BuildDataStack();
  void BuildPretrainedModels();
  void BuildReTrainData();
  void BuildKTeleBertVariant(ModelKind kind);
  KTeleBertConfig MakeKtbConfig(bool use_anenc) const;

  ZooConfig config_;
  /// Serializes the build methods (single-flight checkpoint loading).
  mutable std::mutex build_mutex_;
  /// Atomic so accessors may check it without taking build_mutex_.
  std::atomic<bool> built_{false};

  std::unique_ptr<synth::WorldModel> world_;
  std::unique_ptr<synth::LogGenerator> logs_;
  std::vector<synth::Episode> episodes_;
  kg::TripleStore store_;
  std::unique_ptr<text::Tokenizer> tokenizer_;
  text::MinMaxNormalizer normalizer_;
  std::vector<std::string> tele_corpus_;
  std::vector<std::string> general_corpus_;
  std::vector<std::string> tag_vocab_;  // TGC label space
  std::string checkpoint_digest_;       // set once the tokenizer exists
  ReTrainData retrain_data_;

  std::unique_ptr<TeleBert> telebert_;
  std::unique_ptr<TeleBert> macbert_;
  struct Variant {
    std::unique_ptr<KTeleBert> model;
    std::vector<ReTrainStats> history;
    bool cached = false;
  };
  Variant stl_;
  Variant stl_no_anenc_;
  Variant pmtl_;
  Variant imtl_;

  // Encoder adapters (constructed in Build).
  std::unique_ptr<RandomEncoder> random_encoder_;
  std::unique_ptr<WordAveragingEncoder> word_encoder_;
  std::unique_ptr<TeleBertEncoder> macbert_encoder_;
  std::unique_ptr<TeleBertEncoder> telebert_encoder_;
  std::unique_ptr<KTeleBertEncoder> stl_encoder_;
  std::unique_ptr<KTeleBertEncoder> stl_no_anenc_encoder_;
  std::unique_ptr<KTeleBertEncoder> pmtl_encoder_;
  std::unique_ptr<KTeleBertEncoder> imtl_encoder_;
};

}  // namespace core
}  // namespace telekit

#endif  // TELEKIT_CORE_MODEL_ZOO_H_
