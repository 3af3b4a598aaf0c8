// Property-based tests: invariants checked across parameterized sweeps of
// shapes, rates, and sizes (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "eval/metrics.h"
#include "kg/kge.h"
#include "synth/log.h"
#include "synth/world.h"
#include "tensor/ops.h"
#include "text/masking.h"
#include "text/numeric.h"
#include "text/tokenizer.h"

namespace telekit {
namespace {

using tensor::Shape;
using tensor::Tensor;

// --- Tensor-shape sweeps ---------------------------------------------------------

class TensorShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TensorShapeProperty, TransposeIsInvolution) {
  const auto [m, n] = GetParam();
  Rng rng(m * 100 + n);
  Tensor a = Tensor::Randn({m, n}, rng);
  Tensor round_trip = tensor::Transpose(tensor::Transpose(a));
  EXPECT_EQ(round_trip.shape(), a.shape());
  EXPECT_EQ(round_trip.data(), a.data());
}

TEST_P(TensorShapeProperty, MatMulIdentityIsNoop) {
  const auto [m, n] = GetParam();
  Rng rng(m * 101 + n);
  Tensor a = Tensor::Randn({m, n}, rng);
  Tensor out = tensor::MatMul(a, Tensor::Eye(n));
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(out.at(i), a.at(i), 1e-5f);
  }
}

TEST_P(TensorShapeProperty, SoftmaxRowsAreDistributions) {
  const auto [m, n] = GetParam();
  Rng rng(m * 102 + n);
  Tensor s = tensor::Softmax(Tensor::Randn({m, n}, rng, 3.0f));
  for (int i = 0; i < m; ++i) {
    float total = 0;
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST_P(TensorShapeProperty, LayerNormRowsStandardized) {
  const auto [m, n] = GetParam();
  if (n < 4) GTEST_SKIP() << "variance estimate too coarse";
  Rng rng(m * 103 + n);
  Tensor y = tensor::LayerNorm(Tensor::Randn({m, n}, rng, 5.0f),
                               Tensor::Ones({n}), Tensor::Zeros({n}));
  for (int i = 0; i < m; ++i) {
    float mean = 0;
    for (int j = 0; j < n; ++j) mean += y.at(i, j);
    mean /= static_cast<float>(n);
    EXPECT_NEAR(mean, 0.0f, 1e-3f);
  }
}

TEST_P(TensorShapeProperty, SumEqualsMeanTimesCount) {
  const auto [m, n] = GetParam();
  Rng rng(m * 104 + n);
  Tensor a = Tensor::Randn({m, n}, rng);
  EXPECT_NEAR(tensor::Sum(a).item(),
              tensor::Mean(a).item() * static_cast<float>(a.size()), 1e-2f);
}

TEST_P(TensorShapeProperty, ConcatThenSliceRecovers) {
  const auto [m, n] = GetParam();
  Rng rng(m * 105 + n);
  Tensor a = Tensor::Randn({m, n}, rng);
  Tensor b = Tensor::Randn({m, n}, rng);
  Tensor cat = tensor::ConcatRows({a, b});
  Tensor a2 = tensor::SliceRows(cat, 0, m);
  Tensor b2 = tensor::SliceRows(cat, m, m);
  EXPECT_EQ(a2.data(), a.data());
  EXPECT_EQ(b2.data(), b.data());
}

TEST_P(TensorShapeProperty, L2NormalizedRowsHaveUnitNorm) {
  const auto [m, n] = GetParam();
  Rng rng(m * 106 + n);
  Tensor y = tensor::L2NormalizeRows(Tensor::Randn({m, n}, rng, 2.0f));
  for (int i = 0; i < m; ++i) {
    float sq = 0;
    for (int j = 0; j < n; ++j) sq += y.at(i, j) * y.at(i, j);
    EXPECT_NEAR(std::sqrt(sq), 1.0f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TensorShapeProperty,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{1, 8},
                                           std::tuple{3, 5}, std::tuple{8, 8},
                                           std::tuple{16, 4},
                                           std::tuple{7, 33}));

// --- Masking-rate sweep -----------------------------------------------------------

class MaskingRateProperty : public ::testing::TestWithParam<float> {};

TEST_P(MaskingRateProperty, BudgetRespectedAndLabelsConsistent) {
  const float rate = GetParam();
  text::Tokenizer tok(text::TokenizerOptions{.max_len = 32,
                                             .min_word_count = 1});
  std::vector<std::string> corpus = {
      "alpha beta gamma delta epsilon zeta eta theta iota kappa"};
  tok.BuildVocab(corpus);
  text::EncodedInput input = tok.EncodeSentence(corpus[0]);
  const int maskable = 10;
  Rng rng(static_cast<uint64_t>(rate * 1000));
  text::MaskingOptions options;
  options.mask_rate = rate;
  options.strategy = text::MaskingStrategy::kToken;
  for (int trial = 0; trial < 50; ++trial) {
    text::MaskedExample masked =
        text::ApplyMasking(input, tok.vocab(), options, rng);
    EXPECT_GE(masked.num_masked, 1);
    // Budget: at most ceil(rate * maskable) + one unit of overshoot.
    EXPECT_LE(masked.num_masked,
              static_cast<int>(rate * maskable) + 1);
    for (size_t i = 0; i < masked.ids.size(); ++i) {
      if (masked.labels[i] < 0) {
        EXPECT_EQ(masked.ids[i], input.ids[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, MaskingRateProperty,
                         ::testing::Values(0.1f, 0.15f, 0.3f, 0.4f, 0.6f));

// --- Normalizer property sweep -------------------------------------------------------

class NormalizerProperty : public ::testing::TestWithParam<int> {};

TEST_P(NormalizerProperty, NormalizeIsMonotoneAndBounded) {
  const int num_obs = GetParam();
  Rng rng(static_cast<uint64_t>(num_obs));
  text::MinMaxNormalizer norm;
  for (int i = 0; i < num_obs; ++i) {
    norm.Observe("tag", static_cast<float>(rng.Uniform(-100, 100)));
  }
  float prev = -1.0f;
  for (float v = -150.0f; v <= 150.0f; v += 10.0f) {
    const float n = norm.Normalize("tag", v);
    EXPECT_GE(n, 0.0f);
    EXPECT_LE(n, 1.0f);
    EXPECT_GE(n, prev);  // monotone non-decreasing in v
    prev = n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NormalizerProperty,
                         ::testing::Values(2, 5, 50, 500));

// --- World-seed sweep ------------------------------------------------------------------

class WorldSeedProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorldSeedProperty, InvariantsHoldForAnySeed) {
  synth::WorldConfig config;
  config.seed = GetParam();
  config.num_alarm_types = 24;
  config.num_kpi_types = 12;
  config.num_network_elements = 15;
  synth::WorldModel world(config);
  // Acyclic trigger DAG.
  for (const synth::CausalEdge& e : world.causal_edges()) {
    if (e.kind == synth::CausalEdge::Kind::kAlarmTriggersAlarm) {
      EXPECT_LT(e.src_alarm, e.dst);
    }
    EXPECT_GT(e.confidence, 0.0f);
    EXPECT_LE(e.confidence, 1.0f);
  }
  // At least one root; every alarm affects some KPI.
  EXPECT_FALSE(world.RootAlarms().empty());
  for (const synth::AlarmType& alarm : world.alarms()) {
    EXPECT_FALSE(world.AffectedKpis(alarm.id).empty());
  }
  // Episodes respect the DAG.
  synth::LogGenerator logs(world, synth::LogConfig{});
  Rng rng(GetParam() ^ 0xABCDULL);
  for (int i = 0; i < 5; ++i) {
    synth::Episode episode = logs.Simulate(rng);
    for (const synth::AlarmEvent& event : episode.events) {
      if (event.parent_index < 0) continue;
      const synth::AlarmEvent& parent =
          episode.events[static_cast<size_t>(event.parent_index)];
      EXPECT_GT(event.time, parent.time);
      bool direct = false;
      for (const auto& [child, conf] :
           world.TriggeredAlarms(parent.alarm_type)) {
        direct |= child == event.alarm_type;
      }
      EXPECT_TRUE(direct);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldSeedProperty,
                         ::testing::Values(1, 7, 42, 1234, 999999));

// --- KGE rank bounds -------------------------------------------------------------------

class KgeRankProperty : public ::testing::TestWithParam<int> {};

TEST_P(KgeRankProperty, RanksAlwaysInBounds) {
  const int num_entities = GetParam();
  kg::TripleStore store;
  for (int i = 0; i < num_entities; ++i) {
    store.AddEntity("e" + std::to_string(i));
  }
  const kg::RelationId r = store.AddRelation("r");
  for (int i = 0; i + 1 < num_entities; i += 2) store.AddTriple(i, r, i + 1);
  Rng rng(static_cast<uint64_t>(num_entities));
  kg::KgeOptions options;
  options.dim = 8;
  options.epochs = 5;
  kg::TranslationalKge kge(store.num_entities(), store.num_relations(),
                           options, rng);
  kg::NegativeSampler sampler(store);
  std::vector<kg::Quadruple> facts;
  for (const kg::Triple& t : store.triples()) {
    facts.push_back({t.head, t.relation, t.tail, 1.0f});
  }
  kge.Fit(facts, sampler, rng);
  std::vector<kg::EntityId> all;
  for (int i = 0; i < num_entities; ++i) all.push_back(i);
  for (const kg::Triple& t : store.triples()) {
    const double rank = kge.RankOfTail(t.head, t.relation, t.tail, all);
    EXPECT_GE(rank, 1.0);
    EXPECT_LE(rank, static_cast<double>(num_entities));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KgeRankProperty,
                         ::testing::Values(4, 10, 30, 100));

// --- Metric identities across sample sizes ------------------------------------------------

class MetricProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricProperty, RankingIdentities) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31);
  eval::RankingAccumulator acc;
  for (int i = 0; i < n; ++i) {
    acc.AddRank(1.0 + static_cast<double>(rng.UniformInt(20)));
  }
  // MRR% >= Hits@1%, MR >= 1, Hits monotone in N.
  EXPECT_GE(100.0 * acc.MeanReciprocalRank(), acc.HitsAt(1) - 1e-9);
  EXPECT_GE(acc.MeanRank(), 1.0);
  double prev = 0;
  for (int k : {1, 2, 3, 5, 10, 20}) {
    const double hits = acc.HitsAt(k);
    EXPECT_GE(hits, prev);
    prev = hits;
  }
  EXPECT_NEAR(acc.HitsAt(21), 100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MetricProperty,
                         ::testing::Values(1, 5, 32, 500));

}  // namespace
}  // namespace telekit
