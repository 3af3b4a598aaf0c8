#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/model_zoo.h"
#include "eval/metrics.h"
#include "obs/metrics.h"

namespace telekit {
namespace core {
namespace {

// A deliberately tiny configuration so the full pipeline runs in seconds.
ZooConfig TinyConfig(const std::string& cache_dir) {
  ZooConfig config;
  config.seed = 99;
  config.world.num_alarm_types = 16;
  config.world.num_kpi_types = 8;
  config.world.num_network_elements = 12;
  config.corpus.num_tele_sentences = 400;
  config.corpus.num_general_sentences = 400;
  config.num_episodes = 10;
  config.max_machine_logs = 60;
  config.max_triple_sentences = 40;
  config.max_ke_triples = 30;
  config.encoder.d_model = 32;
  config.encoder.num_heads = 2;
  config.encoder.num_layers = 1;
  config.encoder.ffn_dim = 64;
  config.pretrain.steps = 12;
  config.pretrain.batch_size = 4;
  config.retrain.total_steps = 12;
  config.retrain.batch_size = 4;
  config.retrain.ke_batch_size = 2;
  config.anenc.num_layers = 1;
  config.anenc.num_meta = 4;
  config.anenc.ffn_dim = 32;
  config.cache_dir = cache_dir;
  return config;
}

TEST(ModelZooTest, FullBuildProducesAllEncoders) {
  ModelZoo zoo(TinyConfig(""));  // no cache
  zoo.Build();
  EXPECT_GT(zoo.tokenizer().vocab().size(), 50);
  EXPECT_GT(zoo.store().num_entities(), 20);
  EXPECT_FALSE(zoo.retrain_data().causal_sentences.empty());
  EXPECT_FALSE(zoo.retrain_data().machine_logs.empty());
  EXPECT_FALSE(zoo.retrain_data().ke_triples.empty());
  for (ModelKind kind : AllModelKinds()) {
    const TextEncoder& encoder = zoo.Encoder(kind);
    auto v = encoder.Encode(zoo.retrain_data().causal_sentences[0]);
    EXPECT_EQ(static_cast<int>(v.size()), encoder.dim()) << ModelKindName(kind);
  }
}

TEST(ModelZooTest, EncodersProduceDistinctSpaces) {
  ModelZoo zoo(TinyConfig(""));
  zoo.Build();
  const auto& input = zoo.retrain_data().causal_sentences[0];
  auto telebert = zoo.Encoder(ModelKind::kTeleBert).Encode(input);
  auto macbert = zoo.Encoder(ModelKind::kMacBert).Encode(input);
  auto ktb = zoo.Encoder(ModelKind::kKTeleBertStl).Encode(input);
  EXPECT_NE(telebert, macbert);
  EXPECT_NE(telebert, ktb);  // re-training moved the weights
}

TEST(ModelZooTest, RetrainHistoriesMatchStrategies) {
  ModelZoo zoo(TinyConfig(""));
  zoo.Build();
  const auto& stl = zoo.RetrainHistory(ModelKind::kKTeleBertStl);
  ASSERT_EQ(stl.size(), 12u);
  for (const auto& s : stl) EXPECT_FALSE(s.ran_ke_task);
  const auto& pmtl = zoo.RetrainHistory(ModelKind::kKTeleBertPmtl);
  for (const auto& s : pmtl) EXPECT_TRUE(s.ran_ke_task && s.ran_mask_task);
}

TEST(ModelZooTest, CacheRoundTripReproducesEncodings) {
  const std::string cache =
      ::testing::TempDir() + "/zoo_cache_" + std::to_string(::getpid());
  std::filesystem::remove_all(cache);
  std::vector<float> first;
  {
    ModelZoo zoo(TinyConfig(cache));
    zoo.Build();
    EXPECT_FALSE(zoo.WasCached(ModelKind::kKTeleBertStl));
    first = zoo.Encoder(ModelKind::kKTeleBertStl)
                .Encode(zoo.retrain_data().causal_sentences[0]);
  }
  {
    ModelZoo zoo(TinyConfig(cache));
    zoo.Build();
    EXPECT_TRUE(zoo.WasCached(ModelKind::kKTeleBertStl));
    auto second = zoo.Encoder(ModelKind::kKTeleBertStl)
                      .Encode(zoo.retrain_data().causal_sentences[0]);
    EXPECT_EQ(first, second);
  }
  std::filesystem::remove_all(cache);
}

// A checkpoint under another numerics version's file name (here the
// unversioned name of version 1) was trained with other arithmetic: it must
// miss and retrain, not restore.
TEST(ModelZooTest, CheckpointOfAnotherNumericsVersionIsNotRestored) {
  const std::string cache =
      ::testing::TempDir() + "/zoo_cache_v_" + std::to_string(::getpid());
  std::filesystem::remove_all(cache);
  {
    ModelZoo zoo(TinyConfig(cache));
    zoo.Build();
  }
  const std::string suffix =
      ".v" + std::to_string(kCheckpointNumericsVersion) + ".tkt";
  int renamed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache)) {
    const std::string path = entry.path().string();
    ASSERT_GT(path.size(), suffix.size());
    ASSERT_EQ(path.substr(path.size() - suffix.size()), suffix) << path;
    std::filesystem::rename(
        path, path.substr(0, path.size() - suffix.size()) + ".tkt");
    ++renamed;
  }
  ASSERT_GT(renamed, 0);
  obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter("zoo/cache_misses");
  obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("zoo/cache_hits");
  const uint64_t misses_before = misses.value();
  const uint64_t hits_before = hits.value();
  {
    ModelZoo zoo(TinyConfig(cache));
    zoo.Build();
    EXPECT_FALSE(zoo.WasCached(ModelKind::kKTeleBertStl));
  }
  EXPECT_EQ(misses.value() - misses_before, static_cast<uint64_t>(renamed));
  EXPECT_EQ(hits.value(), hits_before);
  std::filesystem::remove_all(cache);
}

// Checkpoint names carry a digest of what decides the weights: zoos of
// two seeds sharing one directory each train their own six models, and
// the same seed built again restores all six. Seed 102's vocabulary has
// seed 99's size, so every tensor shape matches: a name without the digest
// would restore the other seed's models.
TEST(ModelZooTest, CheckpointsOfAnotherSeedAreNotRestored) {
  const std::string cache =
      ::testing::TempDir() + "/zoo_cache_seed_" + std::to_string(::getpid());
  std::filesystem::remove_all(cache);
  obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter("zoo/cache_misses");
  obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("zoo/cache_hits");
  ZooConfig other = TinyConfig(cache);
  other.seed = 102;
  std::vector<float> first;
  for (const ZooConfig& config : {TinyConfig(cache), other}) {
    const uint64_t misses_before = misses.value();
    const uint64_t hits_before = hits.value();
    ModelZoo zoo(config);
    zoo.Build();
    EXPECT_EQ(misses.value() - misses_before, 6u) << "seed " << config.seed;
    EXPECT_EQ(hits.value(), hits_before) << "seed " << config.seed;
    if (first.empty()) {
      first = zoo.Encoder(ModelKind::kKTeleBertStl)
                  .Encode(zoo.retrain_data().causal_sentences[0]);
    }
  }
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(cache),
                          std::filesystem::directory_iterator()),
            12);
  const uint64_t misses_before = misses.value();
  const uint64_t hits_before = hits.value();
  {
    ModelZoo zoo(TinyConfig(cache));
    zoo.Build();
    EXPECT_TRUE(zoo.WasCached(ModelKind::kKTeleBertStl));
    EXPECT_EQ(zoo.Encoder(ModelKind::kKTeleBertStl)
                  .Encode(zoo.retrain_data().causal_sentences[0]),
              first);
  }
  EXPECT_EQ(hits.value() - hits_before, 6u);
  EXPECT_EQ(misses.value(), misses_before);
  std::filesystem::remove_all(cache);
}

TEST(ModelZooTest, CheckpointDigestCoversConfigAndVocabulary) {
  text::Vocab vocab;
  vocab.AddToken("ospf");
  const ZooConfig base = TinyConfig("a");
  const std::string digest = CheckpointDigest(base, vocab);
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(CheckpointDigest(TinyConfig("b"), vocab), digest)
      << "the cache directory is not part of the digest";
  ZooConfig steps = base;
  steps.retrain.total_steps += 1;
  EXPECT_NE(CheckpointDigest(steps, vocab), digest);
  ZooConfig world = base;
  world.world.trigger_density += 0.01;
  EXPECT_NE(CheckpointDigest(world, vocab), digest);
  ZooConfig dropout = base;
  dropout.encoder.dropout = 0.2f;
  EXPECT_NE(CheckpointDigest(dropout, vocab), digest);
  text::Vocab other = vocab;
  other.AddToken("bgp");
  EXPECT_NE(CheckpointDigest(base, other), digest);
}

TEST(ModelZooTest, ServiceEncoderModesDiffer) {
  ModelZoo zoo(TinyConfig(""));
  zoo.Build();
  ServiceEncoder service = zoo.MakeServiceEncoder(ModelKind::kTeleBert);
  const std::string name = zoo.world().alarms()[0].name;
  auto only = service.Encode(name, ServiceMode::kOnlyName);
  auto entity = service.Encode(name, ServiceMode::kEntityNoAttr);
  auto with_attr = service.Encode(name, ServiceMode::kEntityWithAttr);
  EXPECT_NE(only, entity);      // entity mode appends the class
  EXPECT_NE(entity, with_attr);  // attribute mode appends attributes
}

TEST(ModelZooTest, SignalingFlowExtensionAddsLogs) {
  ZooConfig config = TinyConfig("");
  config.include_signaling_flows = false;
  ModelZoo base(config);
  base.BuildData();
  config.include_signaling_flows = true;
  config.max_signaling_records = 40;
  ModelZoo extended(config);
  extended.BuildData();
  EXPECT_EQ(extended.retrain_data().machine_logs.size(),
            base.retrain_data().machine_logs.size() + 40);
  // Signaling entries carry no numeric tag.
  int untagged = 0;
  for (int tag : extended.retrain_data().machine_log_tags) {
    untagged += tag < 0;
  }
  EXPECT_GE(untagged, 40);
}

TEST(ModelZooTest, PartialBuildsAreCheaper) {
  ModelZoo zoo(TinyConfig(""));
  zoo.BuildData();
  EXPECT_FALSE(zoo.retrain_data().causal_sentences.empty());
  zoo.BuildPretrained();
  auto v = zoo.telebert().ServiceVector(zoo.retrain_data().causal_sentences[0]);
  EXPECT_EQ(v.size(), 32u);
}

}  // namespace
}  // namespace core
}  // namespace telekit
