#include "core/model_zoo.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/check.h"
#include "common/hash.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/signaling.h"
#include "synth/task_data.h"
#include "tensor/serialize.h"
#include "text/prompt.h"

namespace telekit {
namespace core {

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandom:
      return "Random";
    case ModelKind::kWordEmbedding:
      return "Word Embeddings";
    case ModelKind::kMacBert:
      return "MacBERT";
    case ModelKind::kTeleBert:
      return "TeleBERT";
    case ModelKind::kKTeleBertStl:
      return "KTeleBERT-STL";
    case ModelKind::kKTeleBertStlNoAnEnc:
      return "w/o ANEnc";
    case ModelKind::kKTeleBertPmtl:
      return "KTeleBERT-PMTL";
    case ModelKind::kKTeleBertImtl:
      return "KTeleBERT-IMTL";
  }
  return "?";
}

std::vector<ModelKind> AllModelKinds() {
  return {ModelKind::kRandom,          ModelKind::kWordEmbedding,
          ModelKind::kMacBert,         ModelKind::kTeleBert,
          ModelKind::kKTeleBertStl,    ModelKind::kKTeleBertStlNoAnEnc,
          ModelKind::kKTeleBertPmtl,   ModelKind::kKTeleBertImtl};
}

namespace {

// FNV-1a over typed config fields: integers and booleans as 64-bit
// values, floats as their double's bits, and a string's length before its
// bytes, so no two field lists fold the same byte sequence.
class Digest {
 public:
  Digest& Add(uint64_t v) {
    h_ = Fnv1aU64(v, h_);
    return *this;
  }
  Digest& Add(int v) {
    return Add(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
  Digest& Add(bool v) { return Add(static_cast<uint64_t>(v)); }
  Digest& Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return Add(bits);
  }
  Digest& Add(float v) { return Add(static_cast<double>(v)); }
  Digest& Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    h_ = Fnv1aStr(s, h_);
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kFnv1aOffset;
};

void AddMasking(const text::MaskingOptions& m, Digest& h) {
  h.Add(m.mask_rate).Add(static_cast<int>(m.strategy)).Add(m.mask_token_prob)
      .Add(m.random_token_prob);
}

}  // namespace

std::string CheckpointDigest(const ZooConfig& c, const text::Vocab& vocab) {
  Digest h;
  h.Add(kCheckpointNumericsVersion).Add(c.seed);
  const synth::WorldConfig& w = c.world;
  h.Add(w.seed).Add(w.num_network_elements).Add(w.num_alarm_types)
      .Add(w.num_kpi_types).Add(w.topology_extra_edges_per_node)
      .Add(w.trigger_density).Add(w.cross_service_trigger_scale)
      .Add(w.num_service_levels).Add(w.upward_trigger_scale)
      .Add(w.max_affected_kpis);
  h.Add(c.corpus.num_tele_sentences).Add(c.corpus.num_general_sentences)
      .Add(c.corpus.min_causal_words).Add(c.corpus.causal_noise);
  h.Add(c.log.baseline_noise).Add(c.log.normal_readings_per_episode)
      .Add(c.log.hop_delay);
  h.Add(c.num_episodes).Add(c.max_machine_logs).Add(c.max_triple_sentences)
      .Add(c.max_ke_triples).Add(c.include_signaling_flows)
      .Add(c.max_signaling_records);
  h.Add(c.tokenizer.max_len).Add(c.tokenizer.min_word_count)
      .Add(c.num_tele_tokens);
  const EncoderConfig& e = c.encoder;
  h.Add(e.vocab_size).Add(e.d_model).Add(e.num_heads).Add(e.num_layers)
      .Add(e.ffn_dim).Add(e.max_len).Add(e.dropout);
  const PretrainOptions& p = c.pretrain;
  h.Add(p.steps).Add(p.batch_size).Add(p.learning_rate);
  AddMasking(p.masking, h);
  h.Add(static_cast<int>(p.objective)).Add(p.rtd_weight).Add(p.simcse_weight)
      .Add(p.simcse_temperature).Add(p.clip_norm);
  const ReTrainOptions& r = c.retrain;
  h.Add(static_cast<int>(r.strategy)).Add(r.total_steps).Add(r.batch_size)
      .Add(r.ke_batch_size).Add(r.learning_rate);
  AddMasking(r.masking, h);
  h.Add(r.ke_loss_weight).Add(r.use_regression).Add(r.use_tag_classification)
      .Add(r.use_numeric_contrastive).Add(r.use_auto_weighting)
      .Add(r.clip_norm);
  const AnEncConfig& a = c.anenc;
  h.Add(a.d_model).Add(a.num_meta).Add(a.num_layers).Add(a.lora_rank)
      .Add(a.lora_alpha).Add(a.ffn_dim);
  h.Add(vocab.size());
  for (int id = 0; id < vocab.size(); ++id) h.Add(vocab.Token(id));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h.value()));
  return hex;
}

ModelZoo::ModelZoo(const ZooConfig& config) : config_(config) {
  const char* env_cache = std::getenv("TELEKIT_CACHE");
  if (env_cache != nullptr) config_.cache_dir = env_cache;
}

std::string ModelZoo::CachePath(const std::string& name) const {
  if (config_.cache_dir.empty()) return "";
  TELEKIT_CHECK(!checkpoint_digest_.empty()) << "CachePath before BuildData";
  return config_.cache_dir + "/" + name + "." + checkpoint_digest_ + ".v" +
         std::to_string(kCheckpointNumericsVersion) + ".tkt";
}

void ModelZoo::BuildData() {
  std::lock_guard<std::mutex> lock(build_mutex_);
  BuildDataLocked();
}

void ModelZoo::BuildPretrained() {
  std::lock_guard<std::mutex> lock(build_mutex_);
  BuildPretrainedLocked();
}

void ModelZoo::Build() {
  std::lock_guard<std::mutex> lock(build_mutex_);
  BuildLocked();
}

void ModelZoo::BuildDataLocked() {
  if (world_ != nullptr) return;
  BuildDataStack();
  BuildReTrainData();
}

void ModelZoo::BuildPretrainedLocked() {
  BuildDataLocked();
  if (telebert_ != nullptr) return;
  BuildPretrainedModels();
}

void ModelZoo::BuildLocked() {
  if (built_) return;
  BuildPretrainedLocked();
  BuildKTeleBertVariant(ModelKind::kKTeleBertStl);
  BuildKTeleBertVariant(ModelKind::kKTeleBertStlNoAnEnc);
  BuildKTeleBertVariant(ModelKind::kKTeleBertPmtl);
  BuildKTeleBertVariant(ModelKind::kKTeleBertImtl);

  random_encoder_ = std::make_unique<RandomEncoder>(
      config_.encoder.d_model, config_.seed ^ 0xABCDULL);
  word_encoder_ = std::make_unique<WordAveragingEncoder>(
      config_.encoder.d_model, config_.seed ^ 0x1234ULL);
  macbert_encoder_ = std::make_unique<TeleBertEncoder>(macbert_.get());
  telebert_encoder_ = std::make_unique<TeleBertEncoder>(telebert_.get());
  stl_encoder_ = std::make_unique<KTeleBertEncoder>(stl_.model.get());
  stl_no_anenc_encoder_ =
      std::make_unique<KTeleBertEncoder>(stl_no_anenc_.model.get());
  pmtl_encoder_ = std::make_unique<KTeleBertEncoder>(pmtl_.model.get());
  imtl_encoder_ = std::make_unique<KTeleBertEncoder>(imtl_.model.get());
  built_ = true;
}

void ModelZoo::BuildDataStack() {
  TELEKIT_SPAN("zoo/build_data");
  world_ = std::make_unique<synth::WorldModel>(config_.world);
  logs_ = std::make_unique<synth::LogGenerator>(*world_, config_.log);

  Rng corpus_rng(config_.seed);
  synth::CorpusGenerator corpus_gen(*world_, config_.corpus);
  tele_corpus_ = corpus_gen.GenerateTeleCorpus(corpus_rng);
  general_corpus_ = corpus_gen.GenerateGeneralCorpus(corpus_rng);

  // One shared tokenizer so every model speaks the same vocabulary: built
  // over both corpora plus every surface the tasks will ever encode.
  {
    TELEKIT_SPAN("tokenize/build_vocab");
    tokenizer_ = std::make_unique<text::Tokenizer>(config_.tokenizer);
    std::vector<std::string> vocab_corpus = tele_corpus_;
    vocab_corpus.insert(vocab_corpus.end(), general_corpus_.begin(),
                        general_corpus_.end());
    for (const synth::AlarmType& alarm : world_->alarms()) {
      vocab_corpus.push_back(alarm.name);
    }
    for (const synth::KpiType& kpi : world_->kpis()) {
      vocab_corpus.push_back(kpi.name);
    }
    for (const synth::NetworkElement& element : world_->elements()) {
      vocab_corpus.push_back(element.name);
    }
    tokenizer_->BuildVocab(vocab_corpus);
    tokenizer_->AddDomainPhrases(world_->DomainPhrases());
    tokenizer_->AddSpecialTeleTokens(config_.num_tele_tokens);
    TELEKIT_LOG(INFO) << "tokenizer ready"
                      << obs::F("vocab", tokenizer_->vocab().size())
                      << obs::F("sentences", vocab_corpus.size());
  }

  // Episodes drive the KG's observed attributes and the machine-log corpus.
  Rng episode_rng(config_.seed ^ 0x5EED5ULL);
  episodes_ = logs_->SimulateMany(config_.num_episodes, episode_rng);
  store_ = synth::KgGenerator().Generate(*world_, episodes_);

  // Normalizer: fit per-tag ranges on everything numeric the models see.
  for (const synth::Episode& episode : episodes_) {
    for (const synth::KpiReading& reading : episode.readings) {
      normalizer_.Observe(
          world_->kpis()[static_cast<size_t>(reading.kpi_type)].name,
          reading.value);
    }
  }
  for (const kg::NumericAttribute& attr : store_.numeric_attributes()) {
    normalizer_.Observe(attr.attribute, attr.value);
  }

  // TGC tag vocabulary: KPI names first, then attribute tag names.
  for (const synth::KpiType& kpi : world_->kpis()) {
    tag_vocab_.push_back(kpi.name);
  }
  tag_vocab_.push_back("baseline level");
  tag_vocab_.push_back("excursion scale");
  tag_vocab_.push_back("occurrence count");

  config_.encoder.vocab_size = tokenizer_->vocab().size();
  config_.encoder.max_len = config_.tokenizer.max_len;
  config_.anenc.d_model = config_.encoder.d_model;
  checkpoint_digest_ = CheckpointDigest(config_, tokenizer_->vocab());
}

void ModelZoo::BuildPretrainedModels() {
  auto encode_corpus = [&](const std::vector<std::string>& corpus) {
    TELEKIT_SPAN("tokenize/corpus");
    std::vector<text::EncodedInput> encoded;
    encoded.reserve(corpus.size());
    for (const std::string& sentence : corpus) {
      encoded.push_back(tokenizer_->EncodeSentence(sentence));
    }
    return encoded;
  };

  if (!config_.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.cache_dir, ec);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cache_hits = registry.GetCounter("zoo/cache_hits");
  obs::Counter& cache_misses = registry.GetCounter("zoo/cache_misses");
  obs::Histogram& restore_ms = registry.GetHistogram("zoo/restore_ms");
  obs::Histogram& train_ms = registry.GetHistogram("zoo/train_ms");

  // The "train/<model>" span covers acquiring the model — restore on a
  // cache hit, full pre-training on a miss — so traces always show the
  // stage even when checkpoints short-circuit the work.
  auto build = [&](const std::string& cache_name,
                   const std::vector<std::string>& corpus, uint64_t seed) {
    obs::Span span("train/" + cache_name);
    Rng rng(seed);
    auto model = std::make_unique<TeleBert>(config_.encoder, rng);
    const std::string path = CachePath(cache_name);
    if (!path.empty()) {
      obs::ScopedTimer timer(restore_ms);
      auto loaded = tensor::LoadTensorMap(path);
      if (loaded.ok() && model->Restore(*loaded).ok()) {
        cache_hits.Increment();
        TELEKIT_LOG(INFO) << "restored from cache"
                          << obs::F("model", cache_name)
                          << obs::F("path", path);
        return model;
      }
    }
    cache_misses.Increment();
    TELEKIT_LOG(INFO) << "cache miss, pre-training"
                      << obs::F("model", cache_name);
    obs::ScopedTimer timer(train_ms);
    Rng train_rng(seed ^ 0x7A17ULL);
    model->Pretrain(encode_corpus(corpus), tokenizer_->vocab(),
                    config_.pretrain, train_rng);
    if (!path.empty()) {
      tensor::SaveTensorMap(model->Checkpoint(), path);
    }
    return model;
  };
  telebert_ = build("telebert", tele_corpus_, config_.seed ^ 0x1111ULL);
  macbert_ = build("macbert", general_corpus_, config_.seed ^ 0x2222ULL);
}

void ModelZoo::BuildReTrainData() {
  TELEKIT_SPAN("zoo/build_retrain_data");
  ReTrainData& data = retrain_data_;
  // Causal sentences (Sec. IV-A1 extraction).
  for (const std::string& sentence :
       synth::CorpusGenerator::ExtractCausalSentences(
           tele_corpus_, config_.corpus.min_causal_words)) {
    data.causal_sentences.push_back(tokenizer_->EncodeSentence(sentence));
  }

  // Serialized triples (implicit injection): relational triples rendered
  // through the prompt templates.
  Rng triple_rng(config_.seed ^ 0x3333ULL);
  const auto& triples = store_.triples();
  for (int i = 0; i < config_.max_triple_sentences &&
                  i < static_cast<int>(triples.size());
       ++i) {
    const kg::Triple& t =
        triples[static_cast<size_t>(triple_rng.UniformInt(triples.size()))];
    data.triple_sentences.push_back(tokenizer_->Encode(
        text::PromptBuilder()
            .Entity(store_.EntitySurface(t.head))
            .Relation(store_.RelationSurface(t.relation))
            .Entity(store_.EntitySurface(t.tail))
            .Build()));
  }

  // Machine-log prompts with numeric slots.
  auto tag_label = [&](const std::string& tag) {
    for (size_t i = 0; i < tag_vocab_.size(); ++i) {
      if (tag_vocab_[i] == tag) return static_cast<int>(i);
    }
    return -1;
  };
  Rng log_rng(config_.seed ^ 0x4444ULL);
  for (const synth::Episode& episode : episodes_) {
    for (const synth::KpiReading& reading : episode.readings) {
      if (static_cast<int>(data.machine_logs.size()) >=
          config_.max_machine_logs) {
        break;
      }
      const synth::KpiType& kpi =
          world_->kpis()[static_cast<size_t>(reading.kpi_type)];
      const synth::NetworkElement& element =
          world_->elements()[static_cast<size_t>(reading.element)];
      text::PromptBuilder builder;
      builder.Kpi(kpi.name, normalizer_.Normalize(kpi.name, reading.value));
      builder.Location(element.name);
      data.machine_logs.push_back(tokenizer_->Encode(builder.Build()));
      data.machine_log_tags.push_back(tag_label(kpi.name));
    }
    for (const synth::AlarmEvent& event : episode.events) {
      if (static_cast<int>(data.machine_logs.size()) >=
          config_.max_machine_logs) {
        break;
      }
      const synth::AlarmType& alarm =
          world_->alarms()[static_cast<size_t>(event.alarm_type)];
      const synth::NetworkElement& element =
          world_->elements()[static_cast<size_t>(event.element)];
      text::PromptBuilder builder;
      builder.Alarm(alarm.name)
          .Attribute("severity", alarm.severity)
          .Location(element.name)
          .NumericAttribute(
              "occurrence count",
              normalizer_.Normalize("occurrence count", 1.0f));
      data.machine_logs.push_back(tokenizer_->Encode(builder.Build()));
      data.machine_log_tags.push_back(tag_label("occurrence count"));
    }
  }

  // Extension: signaling-flow records as additional machine-log text
  // (future work in the paper; off by default).
  if (config_.include_signaling_flows) {
    synth::SignalingFlowGenerator signaling(*world_,
                                            synth::SignalingConfig{});
    Rng signaling_rng(config_.seed ^ 0x9999ULL);
    int added = 0;
    while (added < config_.max_signaling_records) {
      for (const synth::SignalingRecord& record :
           signaling.SimulateProcedure(signaling_rng)) {
        if (added >= config_.max_signaling_records) break;
        data.machine_logs.push_back(
            tokenizer_->Encode(signaling.ToPrompt(record)));
        data.machine_log_tags.push_back(-1);  // no numeric tag
        ++added;
      }
    }
  }

  // KE triples (explicit injection) + entity prompt table.
  for (int e = 0; e < store_.num_entities(); ++e) {
    data.entity_inputs.push_back(tokenizer_->Encode(
        text::PromptBuilder().Entity(store_.EntitySurface(e)).Build()));
  }
  Rng ke_rng(config_.seed ^ 0x5555ULL);
  auto add_ke_triple = [&](const kg::Triple& t) {
    KeTriple ke;
    ke.head = data.entity_inputs[static_cast<size_t>(t.head)];
    ke.relation = tokenizer_->Encode(
        text::PromptBuilder()
            .Relation(store_.RelationSurface(t.relation))
            .Build());
    ke.tail = data.entity_inputs[static_cast<size_t>(t.tail)];
    ke.head_id = t.head;
    ke.tail_id = t.tail;
    data.ke_triples.push_back(std::move(ke));
  };
  // Expert causal knowledge first: every trigger/affects quadruple is a KE
  // training fact (this is the knowledge the fault-analysis tasks need).
  for (const kg::Quadruple& q : store_.quadruples()) {
    if (static_cast<int>(data.ke_triples.size()) >= config_.max_ke_triples) {
      break;
    }
    add_ke_triple({q.head, q.relation, q.tail});
  }
  // Fill the remainder with a sample of the other relational triples.
  while (static_cast<int>(data.ke_triples.size()) < config_.max_ke_triples &&
         !triples.empty() &&
         static_cast<int>(data.ke_triples.size()) <
             static_cast<int>(triples.size())) {
    add_ke_triple(
        triples[static_cast<size_t>(ke_rng.UniformInt(triples.size()))]);
  }
}

KTeleBertConfig ModelZoo::MakeKtbConfig(bool use_anenc) const {
  KTeleBertConfig ktb;
  ktb.encoder = config_.encoder;
  ktb.anenc = config_.anenc;
  ktb.use_anenc = use_anenc;
  ktb.num_tags = static_cast<int>(tag_vocab_.size());
  return ktb;
}

void ModelZoo::BuildKTeleBertVariant(ModelKind kind) {
  Variant* variant = nullptr;
  std::string cache_name;
  ReTrainOptions options = config_.retrain;
  bool use_anenc = true;
  switch (kind) {
    case ModelKind::kKTeleBertStl:
      variant = &stl_;
      cache_name = "ktb_stl";
      options.strategy = TrainingStrategy::kStl;
      break;
    case ModelKind::kKTeleBertStlNoAnEnc:
      variant = &stl_no_anenc_;
      cache_name = "ktb_stl_noanenc";
      options.strategy = TrainingStrategy::kStl;
      use_anenc = false;
      break;
    case ModelKind::kKTeleBertPmtl:
      variant = &pmtl_;
      cache_name = "ktb_pmtl";
      options.strategy = TrainingStrategy::kPmtl;
      break;
    case ModelKind::kKTeleBertImtl:
      variant = &imtl_;
      cache_name = "ktb_imtl";
      options.strategy = TrainingStrategy::kImtl;
      break;
    default:
      TELEKIT_CHECK(false) << "not a KTeleBERT variant";
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Span span("train/" + cache_name);
  Rng rng(config_.seed ^ (0x6000ULL + static_cast<uint64_t>(kind)));
  variant->model = std::make_unique<KTeleBert>(MakeKtbConfig(use_anenc), rng);
  const std::string path = CachePath(cache_name);
  if (!path.empty()) {
    obs::ScopedTimer timer(registry.GetHistogram("zoo/restore_ms"));
    auto loaded = tensor::LoadTensorMap(path);
    if (loaded.ok() && variant->model->Restore(*loaded).ok()) {
      variant->cached = true;
      registry.GetCounter("zoo/cache_hits").Increment();
      TELEKIT_LOG(INFO) << "restored from cache" << obs::F("model", cache_name)
                        << obs::F("path", path);
      return;
    }
  }
  registry.GetCounter("zoo/cache_misses").Increment();
  TELEKIT_LOG(INFO) << "cache miss, re-training"
                    << obs::F("model", cache_name);
  obs::ScopedTimer timer(registry.GetHistogram("zoo/train_ms"));
  TELEKIT_CHECK(variant->model->InitializeFromTeleBert(*telebert_).ok());
  ReTrainer trainer(*variant->model, options);
  Rng train_rng(config_.seed ^ (0x7000ULL + static_cast<uint64_t>(kind)));
  variant->history = trainer.Train(retrain_data_, train_rng);
  if (!path.empty()) {
    tensor::SaveTensorMap(variant->model->Checkpoint(), path);
  }
}

const KTeleBert& ModelZoo::ktelebert(ModelKind kind) const {
  switch (kind) {
    case ModelKind::kKTeleBertStl:
      return *stl_.model;
    case ModelKind::kKTeleBertStlNoAnEnc:
      return *stl_no_anenc_.model;
    case ModelKind::kKTeleBertPmtl:
      return *pmtl_.model;
    case ModelKind::kKTeleBertImtl:
      return *imtl_.model;
    default:
      TELEKIT_CHECK(false) << "not a KTeleBERT variant";
  }
  return *stl_.model;
}

const TextEncoder& ModelZoo::Encoder(ModelKind kind) const {
  TELEKIT_CHECK(built_) << "call Build() first";
  switch (kind) {
    case ModelKind::kRandom:
      return *random_encoder_;
    case ModelKind::kWordEmbedding:
      return *word_encoder_;
    case ModelKind::kMacBert:
      return *macbert_encoder_;
    case ModelKind::kTeleBert:
      return *telebert_encoder_;
    case ModelKind::kKTeleBertStl:
      return *stl_encoder_;
    case ModelKind::kKTeleBertStlNoAnEnc:
      return *stl_no_anenc_encoder_;
    case ModelKind::kKTeleBertPmtl:
      return *pmtl_encoder_;
    case ModelKind::kKTeleBertImtl:
      return *imtl_encoder_;
  }
  return *random_encoder_;
}

ServiceEncoder ModelZoo::MakeServiceEncoder(ModelKind kind) const {
  return ServiceEncoder(&Encoder(kind), tokenizer_.get(), &store_,
                        &normalizer_);
}

const std::vector<ReTrainStats>& ModelZoo::RetrainHistory(
    ModelKind kind) const {
  switch (kind) {
    case ModelKind::kKTeleBertStl:
      return stl_.history;
    case ModelKind::kKTeleBertStlNoAnEnc:
      return stl_no_anenc_.history;
    case ModelKind::kKTeleBertPmtl:
      return pmtl_.history;
    case ModelKind::kKTeleBertImtl:
      return imtl_.history;
    default:
      TELEKIT_CHECK(false) << "no retrain history for this kind";
  }
  return stl_.history;
}

bool ModelZoo::WasCached(ModelKind kind) const {
  switch (kind) {
    case ModelKind::kKTeleBertStl:
      return stl_.cached;
    case ModelKind::kKTeleBertStlNoAnEnc:
      return stl_no_anenc_.cached;
    case ModelKind::kKTeleBertPmtl:
      return pmtl_.cached;
    case ModelKind::kKTeleBertImtl:
      return imtl_.cached;
    default:
      return false;
  }
}

}  // namespace core
}  // namespace telekit
