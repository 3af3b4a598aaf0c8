// `plan`: the seeded request schedules of the serving workloads, and the
// reference answers of a sample, computed before any timing starts.
//
// hot_replica  64 surfaces from the replica world (alarm and KPI names),
//              all six ops in equal shares, 25 % int8. The warm-up sends
//              every (surface, precision, op), so each measured request is
//              a cache hit.
// cold_replica every text is a new word sequence over the world's
//              vocabulary whose token ids no earlier request (or catalogue
//              entry) had, so each request misses the embedding cache.
//
// Arrivals are Poisson at kRate over --seconds per window. The plan holds
// one untraced window (untraced.plan) with its answer-check sample, which
// the harness replays on several freshly started replicas; with --trace=1
// it also holds a traced window (traced.plan) whose requests carry a trace
// id.
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>

#include "common/rng.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "probe.h"
#include "serve/embedding_cache.h"
#include "serve/protocol.h"
#include "tensor/simd.h"

namespace telekit {
namespace perfbench {
namespace {

const std::vector<std::string>& Ops() {
  static const std::vector<std::string> ops = {
      "encode", "rca", "eap", "fct", "retrieve", "troubleshoot"};
  return ops;
}

/// Open-loop arrivals per second, both serving workloads.
constexpr double kRate = 400.0;
constexpr double kInt8Share = 0.25;
constexpr int kHotSurfaces = 64;
constexpr int kSamplePerStratum = 16;
constexpr int kColdWarmRequests = 400;

std::string RequestLine(int64_t id, const std::string& op,
                        const std::string& text, bool int8,
                        uint64_t trace_id) {
  obs::JsonValue json = obs::JsonValue::Object();
  json.Set("id", obs::JsonValue(id));
  json.Set("op", obs::JsonValue(op));
  json.Set("text", obs::JsonValue(text));
  json.Set("top_k", obs::JsonValue(5));
  if (int8) json.Set("precision", obs::JsonValue("int8"));
  if (trace_id != 0) json.Set("trace", obs::JsonValue(obs::TraceIdToHex(trace_id)));
  return json.Dump();
}

/// New word sequences whose token ids (the embedding cache's key) were
/// never produced before in this plan.
class UniqueTexts {
 public:
  UniqueTexts(const serve::ModelBundle& bundle, Rng* rng)
      : service_(*bundle.service), rng_(rng) {
    std::set<std::string> words;
    const synth::WorldModel& world = bundle.zoo->world();
    auto add = [&](const std::string& surface) {
      for (const std::string& word : SplitString(ToLower(surface), ' ')) {
        if (word.size() > 1 && word.find('|') == std::string::npos) {
          words.insert(word);
        }
      }
      Remember(surface);
    };
    for (const auto& alarm : world.alarms()) add(alarm.name);
    for (const auto& kpi : world.kpis()) add(kpi.name);
    for (const auto& element : world.elements()) add(element.name);
    words_.assign(words.begin(), words.end());
  }

  std::string Next() {
    while (true) {
      const int n = static_cast<int>(rng_->UniformInt(4, 9));
      std::string text;
      for (int i = 0; i < n; ++i) {
        if (i > 0) text += ' ';
        text += words_[static_cast<size_t>(rng_->UniformInt(
            static_cast<int64_t>(words_.size())))];
      }
      if (Remember(text)) return text;
    }
  }

 private:
  /// True when `text` produced token ids not seen before.
  bool Remember(const std::string& text) {
    const text::EncodedInput input =
        service_.BuildInput(text, core::ServiceMode::kEntityNoAttr);
    const serve::CacheKey key =
        serve::EmbeddingCache::HashIds(input.ids, input.length);
    return seen_.insert({key.lo, key.hi}).second;
  }

  const core::ServiceEncoder& service_;
  Rng* rng_;
  std::vector<std::string> words_;
  std::set<std::pair<uint64_t, uint64_t>> seen_;
};

}  // namespace

int RunPlan(const Flags& flags) {
  const Clock::time_point started = Clock::now();
  const std::string workload = flags.Str("workload", "");
  const bool hot = workload == "hot_replica";
  if (!hot && workload != "cold_replica") {
    std::cerr << "plan: --workload must be hot_replica or cold_replica\n";
    return 64;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const double seconds = flags.Num("seconds", 10.0);
  const bool trace = flags.Int("trace", 0) != 0;
  const std::string out = flags.Str("out", ".");

  // The reference: the replica's bundle, built in-process from the same
  // config and seed, answering through ServeEngine::Process at batch 1 with
  // the cache off.
  serve::EngineOptions options;
  options.num_workers = 0;
  options.enable_cache = false;
  options.compute_threads = 1;
  auto built = serve::BuildModelBundle(
      "telebert", std::make_shared<core::ModelZoo>(ReplicaZooConfig()),
      options, ReplicaIndexOptions());
  if (!built.ok()) {
    std::cerr << "plan: " << built.status().ToString() << "\n";
    return 1;
  }
  const serve::ModelBundle& bundle = *built.value();
  const synth::WorldModel& world = bundle.zoo->world();

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EEDULL);
  std::vector<std::string> surfaces;
  for (const auto& alarm : world.alarms()) surfaces.push_back(alarm.name);
  for (const auto& kpi : world.kpis()) surfaces.push_back(kpi.name);
  rng.Shuffle(surfaces);
  if (surfaces.size() > kHotSurfaces) surfaces.resize(kHotSurfaces);
  UniqueTexts unique(bundle, &rng);

  int64_t next_id = 1;
  std::vector<PlannedLine> warm;
  if (hot) {
    for (const std::string& text : surfaces) {
      for (bool int8 : {false, true}) {
        for (const std::string& op : Ops()) {
          warm.push_back({0.0, '-', RequestLine(next_id++, op, text, int8, 0)});
        }
      }
    }
    rng.Shuffle(warm);
    for (size_t i = 0; i < warm.size(); ++i) warm[i].due_us = 1e6 * i / kRate;
  } else {
    for (int i = 0; i < kColdWarmRequests; ++i) {
      const std::string& op = Ops()[static_cast<size_t>(rng.UniformInt(6))];
      warm.push_back({1e6 * i / kRate, '-',
                      RequestLine(next_id++, op, unique.Next(),
                                  rng.Uniform() < kInt8Share, 0)});
    }
  }
  WritePlan(out + "/warm.plan", warm);

  obs::JsonValue counts = obs::JsonValue::Array();
  std::ofstream reference(out + "/reference.tsv");
  int sampled = 0;
  for (int w = 0; w < (trace ? 2 : 1); ++w) {
    const bool traced = w == 1;
    std::vector<PlannedLine> plan;
    std::map<std::string, std::vector<size_t>> strata;
    double t_us = 0.0;
    while (true) {
      t_us += -std::log(1.0 - rng.Uniform()) * 1e6 / kRate;
      if (t_us >= seconds * 1e6) break;
      const std::string& op = Ops()[static_cast<size_t>(rng.UniformInt(6))];
      const bool int8 = rng.Uniform() < kInt8Share;
      const std::string text =
          hot ? surfaces[static_cast<size_t>(rng.UniformInt(
                    static_cast<int64_t>(surfaces.size())))]
              : unique.Next();
      const uint64_t trace_id = traced ? (rng.NextU64() | 1ULL) : 0;
      strata[op + (int8 ? "/int8" : "/fp32")].push_back(plan.size());
      plan.push_back({t_us, traced ? 't' : '-',
                      RequestLine(next_id++, op, text, int8, trace_id)});
    }
    if (!traced) {
      // A seeded sample covering every op at both precisions.
      for (auto& [name, members] : strata) {
        rng.Shuffle(members);
        for (size_t i = 0; i < members.size() && i < kSamplePerStratum; ++i) {
          PlannedLine& line = plan[members[i]];
          line.tag = 's';
          serve::Request request;
          obs::JsonValue json;
          std::string error;
          obs::JsonValue::Parse(line.line, &json, &error);
          const Status parsed = serve::ParseRequest(json, &request);
          if (!parsed.ok()) {
            std::cerr << "plan: " << parsed.ToString() << "\n";
            return 1;
          }
          const serve::Response response = bundle.engine->Process(request);
          reference << static_cast<int64_t>(json.Find("id")->AsNumber())
                    << '\t'
                    << serve::ResponseToJson(request, response,
                                             json.Find("id"))
                           .Dump()
                    << '\n';
          ++sampled;
        }
      }
    }
    WritePlan(out + (traced ? "/traced.plan" : "/untraced.plan"), plan);
    counts.Append(obs::JsonValue(static_cast<uint64_t>(plan.size())));
  }
  if (!reference) {
    std::cerr << "plan: cannot write reference answers\n";
    return 1;
  }

  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("windows", std::move(counts));
  result.Set("warm", obs::JsonValue(static_cast<uint64_t>(warm.size())));
  result.Set("sampled", obs::JsonValue(sampled));
  result.Set("surfaces", obs::JsonValue(static_cast<uint64_t>(surfaces.size())));
  result.Set("simd", obs::JsonValue(tensor::simd::ActiveBackendName()));
  result.Set("rate_rps", obs::JsonValue(kRate));
  result.Set("plan_s", obs::JsonValue(Seconds(started, Clock::now())));
  Emit(result);
  return 0;
}

}  // namespace perfbench
}  // namespace telekit
