#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "common/string_util.h"
#include "synth/corpus.h"
#include "synth/kg_gen.h"
#include "synth/log.h"
#include "synth/task_data.h"
#include "synth/world.h"

namespace telekit {
namespace synth {
namespace {

WorldModel& TestWorld() {
  static WorldModel* const kWorld = new WorldModel(WorldConfig{});
  return *kWorld;
}

// --- WorldModel ------------------------------------------------------------------

TEST(WorldTest, SizesMatchConfig) {
  const WorldModel& w = TestWorld();
  EXPECT_EQ(static_cast<int>(w.elements().size()),
            w.config().num_network_elements);
  EXPECT_EQ(static_cast<int>(w.alarms().size()), w.config().num_alarm_types);
  EXPECT_EQ(static_cast<int>(w.kpis().size()), w.config().num_kpi_types);
  EXPECT_FALSE(w.services().empty());
}

TEST(WorldTest, DeterministicForSeed) {
  WorldModel a(WorldConfig{.seed = 9});
  WorldModel b(WorldConfig{.seed = 9});
  ASSERT_EQ(a.alarms().size(), b.alarms().size());
  for (size_t i = 0; i < a.alarms().size(); ++i) {
    EXPECT_EQ(a.alarms()[i].name, b.alarms()[i].name);
  }
  EXPECT_EQ(a.topology(), b.topology());
}

TEST(WorldTest, TopologyIsConnected) {
  const WorldModel& w = TestWorld();
  const int n = static_cast<int>(w.elements().size());
  std::vector<bool> visited(static_cast<size_t>(n), false);
  std::vector<int> stack = {0};
  visited[0] = true;
  int count = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (int v : w.TopologyNeighbors(u)) {
      if (!visited[static_cast<size_t>(v)]) {
        visited[static_cast<size_t>(v)] = true;
        ++count;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(count, n);
}

TEST(WorldTest, CausalDagIsAcyclic) {
  const WorldModel& w = TestWorld();
  // Trigger edges only go from lower to higher alarm id by construction.
  for (const CausalEdge& e : w.causal_edges()) {
    if (e.kind == CausalEdge::Kind::kAlarmTriggersAlarm) {
      EXPECT_LT(e.src_alarm, e.dst);
    }
  }
  // Therefore no alarm can transitively trigger itself.
  for (int a = 0; a < static_cast<int>(w.alarms().size()); ++a) {
    EXPECT_FALSE(w.TriggersTransitively(a, a));
  }
}

TEST(WorldTest, RootAlarmsHaveNoParents) {
  const WorldModel& w = TestWorld();
  const auto roots = w.RootAlarms();
  ASSERT_FALSE(roots.empty());
  std::unordered_set<int> root_set(roots.begin(), roots.end());
  for (const CausalEdge& e : w.causal_edges()) {
    if (e.kind == CausalEdge::Kind::kAlarmTriggersAlarm) {
      EXPECT_EQ(root_set.count(e.dst), 0u);
    }
  }
}

TEST(WorldTest, EveryAlarmAffectsSomeKpi) {
  const WorldModel& w = TestWorld();
  for (const AlarmType& alarm : w.alarms()) {
    EXPECT_FALSE(w.AffectedKpis(alarm.id).empty());
  }
}

TEST(WorldTest, AlarmNamesUseDomainVocabulary) {
  const WorldModel& w = TestWorld();
  for (const AlarmType& alarm : w.alarms()) {
    bool mentions_service = false;
    for (const std::string& service : w.services()) {
      mentions_service |= Contains(alarm.name, service);
    }
    EXPECT_TRUE(mentions_service) << alarm.name;
  }
}

TEST(WorldTest, DomainPhrasesMultiword) {
  for (const std::string& phrase : TestWorld().DomainPhrases()) {
    EXPECT_NE(phrase.find(' '), std::string::npos) << phrase;
  }
}

TEST(WorldTest, ServiceLevelsPartitionServices) {
  const WorldModel& w = TestWorld();
  const int levels = w.config().num_service_levels;
  int seen_min = levels, seen_max = -1;
  for (size_t s = 0; s < w.services().size(); ++s) {
    const int level = w.ServiceLevel(static_cast<int>(s));
    EXPECT_GE(level, 0);
    EXPECT_LT(level, levels);
    seen_min = std::min(seen_min, level);
    seen_max = std::max(seen_max, level);
    // Monotone in service index by construction.
    if (s > 0) {
      EXPECT_GE(level, w.ServiceLevel(static_cast<int>(s) - 1));
    }
  }
  EXPECT_EQ(seen_min, 0);
  EXPECT_EQ(seen_max, levels - 1);
}

TEST(WorldTest, TriggersPropagateUpOrWithinTheHierarchy) {
  // The dominant share of trigger edges must stay within a service or go
  // exactly one level up — the causal-hierarchy property the text
  // embeddings exploit.
  const WorldModel& w = TestWorld();
  int structured = 0, total = 0;
  for (const CausalEdge& e : w.causal_edges()) {
    if (e.kind != CausalEdge::Kind::kAlarmTriggersAlarm) continue;
    ++total;
    const bool same_service =
        w.alarms()[static_cast<size_t>(e.src_alarm)].service ==
        w.alarms()[static_cast<size_t>(e.dst)].service;
    const bool upward = w.AlarmLevel(e.dst) == w.AlarmLevel(e.src_alarm) + 1;
    structured += same_service || upward;
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(structured) / total, 0.7);
}

TEST(WorldTest, RootAlarmsConcentrateInLowLevels) {
  const WorldModel& w = TestWorld();
  double root_level_total = 0;
  const auto roots = w.RootAlarms();
  for (int r : roots) root_level_total += w.AlarmLevel(r);
  double all_level_total = 0;
  for (const AlarmType& a : w.alarms()) all_level_total += w.AlarmLevel(a.id);
  const double root_mean = root_level_total / static_cast<double>(roots.size());
  const double all_mean =
      all_level_total / static_cast<double>(w.alarms().size());
  EXPECT_LT(root_mean, all_mean);
}

// --- CorpusGenerator ------------------------------------------------------------

TEST(CorpusTest, GeneratesRequestedCounts) {
  CorpusGenerator gen(TestWorld(), CorpusConfig{.num_tele_sentences = 100,
                                                .num_general_sentences = 50});
  Rng rng(1);
  EXPECT_EQ(gen.GenerateTeleCorpus(rng).size(), 100u);
  EXPECT_EQ(gen.GenerateGeneralCorpus(rng).size(), 50u);
}

TEST(CorpusTest, TeleAndGeneralVocabulariesDisjoint) {
  CorpusGenerator gen(TestWorld(), CorpusConfig{.num_tele_sentences = 300,
                                                .num_general_sentences = 300});
  Rng rng(2);
  auto tele = gen.GenerateTeleCorpus(rng);
  auto general = gen.GenerateGeneralCorpus(rng);
  std::set<std::string> tele_words, general_words;
  for (const auto& s : tele) {
    for (const auto& w : SplitString(s, ' ')) tele_words.insert(w);
  }
  for (const auto& s : general) {
    for (const auto& w : SplitString(s, ' ')) general_words.insert(w);
  }
  // Allow a few shared function words ("the", "a", ...), but content must
  // be overwhelmingly disjoint.
  int shared = 0;
  for (const auto& w : general_words) shared += tele_words.count(w);
  EXPECT_LT(static_cast<double>(shared) /
                static_cast<double>(general_words.size()),
            0.15);
}

TEST(CorpusTest, StripIdsRemovesCodes) {
  const std::string s = "alarm ALM-100072 indicates KPI-192948013 moves";
  const std::string stripped = CorpusGenerator::StripIds(s);
  EXPECT_EQ(stripped.find("ALM-"), std::string::npos);
  EXPECT_EQ(stripped.find("KPI-"), std::string::npos);
  EXPECT_NE(stripped.find("alarm"), std::string::npos);
  EXPECT_NE(stripped.find("indicates"), std::string::npos);
}

TEST(CorpusTest, CausalExtractionKeepsOnlyCausalKeywordSentences) {
  CorpusGenerator gen(TestWorld(), CorpusConfig{.num_tele_sentences = 500});
  Rng rng(3);
  auto corpus = gen.GenerateTeleCorpus(rng);
  auto causal = CorpusGenerator::ExtractCausalSentences(corpus, 6);
  EXPECT_GT(causal.size(), 50u);
  EXPECT_LT(causal.size(), corpus.size());
  for (const std::string& s : causal) {
    bool has_keyword = false;
    for (const std::string& k : CorpusGenerator::CausalKeywords()) {
      has_keyword |= Contains(s, k);
    }
    EXPECT_TRUE(has_keyword) << s;
    EXPECT_EQ(s.find("ALM-"), std::string::npos) << s;
  }
}

TEST(CorpusTest, CausalExtractionEnforcesMinLength) {
  std::vector<std::string> corpus = {"x leads to y",
                                     "alarm a leads to severe kpi drops"};
  auto causal = CorpusGenerator::ExtractCausalSentences(corpus, 6);
  ASSERT_EQ(causal.size(), 1u);
  EXPECT_NE(causal[0].find("severe"), std::string::npos);
}

// --- LogGenerator ------------------------------------------------------------------

TEST(LogTest, EpisodeStartsAtRoot) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Episode e = logs.Simulate(rng);
    ASSERT_FALSE(e.events.empty());
    EXPECT_EQ(e.events[0].alarm_type, e.root_alarm);
    EXPECT_EQ(e.events[0].element, e.root_element);
    EXPECT_EQ(e.events[0].time, 0.0);
    const auto roots = TestWorld().RootAlarms();
    EXPECT_NE(std::find(roots.begin(), roots.end(), e.root_alarm),
              roots.end());
  }
}

TEST(LogTest, PropagatedEventsFollowTriggerEdges) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    Episode e = logs.Simulate(rng);
    for (size_t k = 1; k < e.events.size(); ++k) {
      // Every non-root event must be transitively triggered by the root.
      EXPECT_TRUE(TestWorld().TriggersTransitively(e.root_alarm,
                                                   e.events[k].alarm_type));
      EXPECT_GT(e.events[k].time, 0.0);
    }
  }
}

TEST(LogTest, AnomalousReadingsDeviateFromBaseline) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(6);
  int anomalous_seen = 0;
  for (int i = 0; i < 30; ++i) {
    Episode e = logs.Simulate(rng);
    for (const KpiReading& r : e.readings) {
      const KpiType& kpi =
          TestWorld().kpis()[static_cast<size_t>(r.kpi_type)];
      const float deviation = std::abs(r.value - kpi.baseline);
      if (r.anomalous) {
        ++anomalous_seen;
        EXPECT_GT(deviation, 0.3f * kpi.scale);
      } else {
        EXPECT_LT(deviation, 0.3f * kpi.baseline);
      }
    }
  }
  EXPECT_GT(anomalous_seen, 0);
}

TEST(LogTest, SubnetEpisodeStaysInSubnet) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(7);
  const std::vector<int> subnet = {0, 1, 2, 3, 4};
  const auto roots = TestWorld().RootAlarms();
  for (int i = 0; i < 10; ++i) {
    Episode e = logs.SimulateOnSubnet(roots[0], subnet, rng);
    for (const AlarmEvent& event : e.events) {
      EXPECT_NE(std::find(subnet.begin(), subnet.end(), event.element),
                subnet.end());
    }
  }
}

TEST(LogTest, NormalReadingsNotAnomalous) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(8);
  for (const KpiReading& r : logs.NormalReadings(100, rng)) {
    EXPECT_FALSE(r.anomalous);
    EXPECT_GT(r.value, 0.0f);
  }
}

// --- KgGenerator ------------------------------------------------------------------

TEST(KgGenTest, SchemaHierarchyPresent) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(9);
  auto episodes = logs.SimulateMany(5, rng);
  kg::TripleStore store = KgGenerator().Generate(TestWorld(), episodes);

  auto alarm_class = store.FindEntity(TeleSchema::kAlarmClass);
  auto event_class = store.FindEntity(TeleSchema::kEvent);
  auto subclass_of = store.FindRelation(TeleSchema::kSubclassOf);
  ASSERT_TRUE(alarm_class.ok());
  ASSERT_TRUE(event_class.ok());
  ASSERT_TRUE(subclass_of.ok());
  EXPECT_TRUE(store.HasTriple(*alarm_class, *subclass_of, *event_class));
  // NE types sit two levels below Resource.
  auto resource = store.FindEntity(TeleSchema::kResource);
  auto smf = store.FindEntity("SMF");
  ASSERT_TRUE(smf.ok());
  EXPECT_TRUE(store.Reaches(*smf, *resource, *subclass_of));
}

TEST(KgGenTest, CausalEdgesBecomeQuadruples) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(10);
  kg::TripleStore store = KgGenerator().Generate(TestWorld(), {});
  int triggers = 0, affects = 0;
  for (const CausalEdge& e : TestWorld().causal_edges()) {
    triggers += e.kind == CausalEdge::Kind::kAlarmTriggersAlarm;
    affects += e.kind == CausalEdge::Kind::kAlarmAffectsKpi;
  }
  EXPECT_EQ(store.quadruples().size(),
            static_cast<size_t>(triggers + affects));
  for (const kg::Quadruple& q : store.quadruples()) {
    EXPECT_GT(q.confidence, 0.5f);
    EXPECT_LE(q.confidence, 1.0f);
  }
}

TEST(KgGenTest, AlarmEntitiesFindableBySurface) {
  kg::TripleStore store = KgGenerator().Generate(TestWorld(), {});
  for (const AlarmType& alarm : TestWorld().alarms()) {
    EXPECT_TRUE(
        store.FindEntity(KgGenerator::AlarmEntitySurface(alarm)).ok())
        << alarm.name;
  }
}

TEST(KgGenTest, EpisodeCountsBecomeNumericAttributes) {
  LogGenerator logs(TestWorld(), LogConfig{});
  Rng rng(11);
  auto episodes = logs.SimulateMany(10, rng);
  kg::TripleStore store = KgGenerator().Generate(TestWorld(), episodes);
  bool found_count = false;
  for (const kg::NumericAttribute& a : store.numeric_attributes()) {
    if (a.attribute == "occurrence count") {
      found_count = true;
      EXPECT_GE(a.value, 1.0f);
    }
  }
  EXPECT_TRUE(found_count);
}

// --- RcaDataGen -----------------------------------------------------------------

TEST(RcaDataTest, MatchesPaperScale) {
  LogGenerator logs(TestWorld(), LogConfig{});
  RcaDataGen gen(TestWorld(), logs);
  Rng rng(12);
  RcaDataset data = gen.Generate(RcaDataConfig{}, rng);
  EXPECT_EQ(data.graphs.size(), 127u);  // Table III
  EXPECT_GE(data.AverageNodes(), 8.0);
  EXPECT_LE(data.AverageNodes(), 14.0);
  EXPECT_GT(data.AverageEdges(), data.AverageNodes() - 1);
  EXPECT_EQ(data.num_features,
            static_cast<int>(TestWorld().alarms().size() +
                             TestWorld().kpis().size()));
  EXPECT_EQ(data.feature_surfaces.size(),
            static_cast<size_t>(data.num_features));
}

TEST(RcaDataTest, RootNodeValidAndFeatured) {
  LogGenerator logs(TestWorld(), LogConfig{});
  RcaDataGen gen(TestWorld(), logs);
  Rng rng(13);
  RcaDataset data = gen.Generate(RcaDataConfig{.num_graphs = 30}, rng);
  for (const RcaStateGraph& g : data.graphs) {
    ASSERT_GE(g.root_node, 0);
    ASSERT_LT(g.root_node, g.topology.num_nodes);
    // The root node carries at least the root alarm event.
    float total = 0;
    for (float v : g.features[static_cast<size_t>(g.root_node)]) total += v;
    EXPECT_GE(total, 1.0f);
    // Edges reference valid local ids.
    for (const auto& [u, v] : g.topology.edges) {
      EXPECT_GE(u, 0);
      EXPECT_LT(u, g.topology.num_nodes);
      EXPECT_GE(v, 0);
      EXPECT_LT(v, g.topology.num_nodes);
    }
  }
}

// --- EapDataGen -----------------------------------------------------------------

TEST(EapDataTest, BalancedPairsAndValidFields) {
  LogGenerator logs(TestWorld(), LogConfig{});
  EapDataGen gen(TestWorld(), logs);
  Rng rng(14);
  EapDataset data = gen.Generate(EapDataConfig{}, rng);
  EXPECT_GT(data.pairs.size(), 100u);
  EXPECT_EQ(data.NumPositive() * 2, static_cast<int>(data.pairs.size()));
  EXPECT_EQ(data.topology.num_nodes, 31);  // Table V
  EXPECT_EQ(data.num_packages, 104);
  EXPECT_GT(data.num_events_used, 10);
  const int num_alarms = static_cast<int>(TestWorld().alarms().size());
  for (const EapPairSample& p : data.pairs) {
    EXPECT_GE(p.event_a, 0);
    EXPECT_LT(p.event_a, num_alarms);
    EXPECT_GE(p.event_b, 0);
    EXPECT_LT(p.event_b, num_alarms);
    EXPECT_LT(p.element_a, data.topology.num_nodes);
    EXPECT_LT(p.element_b, data.topology.num_nodes);
  }
}

TEST(EapDataTest, PositivesAreTrueTriggers) {
  LogGenerator logs(TestWorld(), LogConfig{});
  EapDataGen gen(TestWorld(), logs);
  Rng rng(15);
  EapDataset data = gen.Generate(EapDataConfig{.num_packages = 40}, rng);
  std::set<std::pair<int, int>> observed_positives;
  for (const EapPairSample& p : data.pairs) {
    if (p.positive) observed_positives.insert({p.event_a, p.event_b});
  }
  for (const EapPairSample& p : data.pairs) {
    if (p.positive) {
      bool direct = false;
      for (const auto& [child, conf] :
           TestWorld().TriggeredAlarms(p.event_a)) {
        direct |= child == p.event_b;
      }
      EXPECT_TRUE(direct);
      EXPECT_LT(p.time_a, p.time_b);  // parent precedes child
    } else {
      // Negatives avoid the observed positive set (the paper's policy);
      // they may rarely coincide with an unobserved true trigger.
      EXPECT_EQ(observed_positives.count({p.event_a, p.event_b}), 0u);
      EXPECT_NE(p.event_a, p.event_b);
    }
  }
}

// --- FctDataGen -----------------------------------------------------------------

TEST(FctDataTest, SplitsAreFirstHopsAndDisjoint) {
  LogGenerator logs(TestWorld(), LogConfig{});
  FctDataGen gen(TestWorld(), logs);
  Rng rng(16);
  FctDataset data = gen.Generate(FctDataConfig{}, rng);
  EXPECT_FALSE(data.train.empty());
  EXPECT_FALSE(data.valid.empty());
  EXPECT_FALSE(data.test.empty());
  // Test facts are masked out of the training store.
  for (const kg::Quadruple& q : data.test) {
    EXPECT_GE(q.head, 0);
    EXPECT_LT(q.head, data.store.num_entities());
  }
  // Train facts are in the store.
  for (const kg::Quadruple& q : data.train) {
    EXPECT_TRUE(data.store.HasTriple(q.head, q.relation, q.tail));
  }
  EXPECT_EQ(data.node_surfaces.size(),
            static_cast<size_t>(data.store.num_entities()));
}

TEST(FctDataTest, NodeSurfacesDescriptive) {
  LogGenerator logs(TestWorld(), LogConfig{});
  FctDataGen gen(TestWorld(), logs);
  Rng rng(17);
  FctDataset data = gen.Generate(FctDataConfig{.num_chains = 20}, rng);
  for (const std::string& surface : data.node_surfaces) {
    EXPECT_NE(surface.find(" at "), std::string::npos) << surface;
  }
}

TEST(FctDataTest, ConfidencesInRange) {
  LogGenerator logs(TestWorld(), LogConfig{});
  FctDataGen gen(TestWorld(), logs);
  Rng rng(18);
  FctDataset data = gen.Generate(FctDataConfig{.num_chains = 20}, rng);
  auto check = [](const std::vector<kg::Quadruple>& quads) {
    for (const kg::Quadruple& q : quads) {
      EXPECT_GT(q.confidence, 0.5f);
      EXPECT_LE(q.confidence, 1.0f);
    }
  };
  check(data.train);
  check(data.valid);
  check(data.test);
}

}  // namespace
}  // namespace synth
}  // namespace telekit
