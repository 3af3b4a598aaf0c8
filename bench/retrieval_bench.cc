// Retrieval benchmark (DESIGN.md §12): recall/latency frontier of the
// HNSW index against the exact flat scan, plus the int8 query-encoding
// recall delta through the real encoder. Two parts:
//
//  1. Synthetic at-scale frontier: N random unit vectors (default 6000,
//     dim 96 — far past the serving corpus, where the graph actually
//     earns its keep), queries perturbed from stored vectors, recall@1 /
//     recall@10 and per-query p50/p99 across efSearch. Gates: some
//     efSearch reaches recall@10 >= 0.95, and at the first such operating
//     point HNSW is >= 3x faster than the flat scan (p50).
//
//  2. Encoder-in-the-loop: the serving corpus (catalogue + tickets)
//     embedded by the real TeleBERT service encoder; queries are
//     word-dropped doc texts. Ground truth is the exact scan over fp32
//     query embeddings; the int8 path re-encodes the same queries with
//     the calibrated QuantizedEncoder (exactly what --precision=int8
//     retrieve requests do). Gate: |fp32 - int8| recall@10 <= 0.05.
//
// Writes BENCH_retrieval.json; exit 0 iff every gate passed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flag_parse.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/model_zoo.h"
#include "index/ann.h"
#include "index/corpus_index.h"
#include "obs/json.h"
#include "serve/model_host.h"
#include "synth/tickets.h"

namespace telekit {
namespace bench {
namespace {

struct RetrievalFlags {
  int synthetic_n = 8000;
  int synthetic_dim = 96;
  int queries = 200;
  int num_tickets = 96;
  std::string out = "BENCH_retrieval.json";
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t i = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(i, values.size() - 1)];
}

double RecallAtK(const std::vector<index::SearchResult>& truth,
                 const std::vector<index::SearchResult>& got, size_t k) {
  size_t hits = 0;
  const size_t limit = std::min(k, truth.size());
  for (size_t i = 0; i < limit; ++i) {
    for (size_t j = 0; j < std::min(k, got.size()); ++j) {
      if (got[j].id == truth[i].id) {
        ++hits;
        break;
      }
    }
  }
  return limit == 0 ? 0.0 : static_cast<double>(hits) / limit;
}

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Part 1: recall/latency frontier over a synthetic vector set big enough
/// that the flat scan hurts.
obs::JsonValue RunSyntheticFrontier(const RetrievalFlags& flags,
                                    bool* recall_passed,
                                    bool* speedup_passed) {
  const int n = flags.synthetic_n;
  const int dim = flags.synthetic_dim;
  const int num_queries = flags.queries;
  Rng rng(20230401);

  // Clustered vectors, like a real document corpus (alarm families, KPI
  // groups): ~64 points around each of n/64 centers. Uniform Gaussian
  // noise with no structure would make every neighbour list arbitrary —
  // adversarial for any graph index and unrepresentative of text
  // embeddings.
  const int num_clusters = std::max(1, n / 64);
  std::vector<std::vector<float>> centers(num_clusters,
                                          std::vector<float>(dim));
  for (auto& c : centers) {
    for (float& x : c) x = static_cast<float>(rng.Normal());
  }
  std::vector<std::vector<float>> base(n, std::vector<float>(dim));
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& c = centers[i % num_clusters];
    for (int d = 0; d < dim; ++d) {
      base[i][d] = c[d] + 0.30f * static_cast<float>(rng.Normal());
    }
  }

  // Queries perturb stored vectors: correlated enough that top-k is
  // meaningful, noisy enough that the graph has to work for it.
  std::vector<std::vector<float>> queries(num_queries,
                                          std::vector<float>(dim));
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<float>& anchor =
        base[static_cast<size_t>(rng.UniformInt(n))];
    for (int d = 0; d < dim; ++d) {
      queries[q][d] =
          anchor[d] + 0.20f * static_cast<float>(rng.Normal());
    }
    index::NormalizeVector(queries[q].data(), dim);
  }

  index::FlatIndex flat(dim);
  index::HnswOptions options;  // M=16, efc=100 — the serving defaults
  index::HnswIndex hnsw(dim, options);
  const Clock::time_point build_start = Clock::now();
  for (const auto& v : base) flat.Add(v);
  const double flat_build_ms = ElapsedUs(build_start) / 1e3;
  const Clock::time_point hnsw_start = Clock::now();
  for (const auto& v : base) hnsw.Add(v);
  const double hnsw_build_ms = ElapsedUs(hnsw_start) / 1e3;

  constexpr int kTopK = 10;
  std::vector<std::vector<index::SearchResult>> truth(num_queries);
  std::vector<double> flat_us(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    const Clock::time_point start = Clock::now();
    truth[q] = flat.Search(queries[q].data(), kTopK);
    flat_us[q] = ElapsedUs(start);
  }
  const double flat_p50 = Percentile(flat_us, 0.50);
  const double flat_p99 = Percentile(flat_us, 0.99);

  TablePrinter table("HNSW recall/latency frontier (synthetic, n=" +
                     std::to_string(n) + ", d=" + std::to_string(dim) + ")");
  table.SetHeader({"efSearch", "recall@1", "recall@10", "p50_us", "p99_us",
                   "speedup_p50"});

  obs::JsonValue curve = obs::JsonValue::Array();
  int operating_ef = -1;
  double operating_speedup = 0.0;
  double operating_recall10 = 0.0;
  for (int ef : {4, 8, 16, 32, 64, 128}) {
    double recall1 = 0.0;
    double recall10 = 0.0;
    std::vector<double> us(num_queries);
    for (int q = 0; q < num_queries; ++q) {
      const Clock::time_point start = Clock::now();
      const std::vector<index::SearchResult> got =
          hnsw.Search(queries[q].data(), kTopK, ef);
      us[q] = ElapsedUs(start);
      recall1 += RecallAtK(truth[q], got, 1);
      recall10 += RecallAtK(truth[q], got, kTopK);
    }
    recall1 /= num_queries;
    recall10 /= num_queries;
    const double p50 = Percentile(us, 0.50);
    const double p99 = Percentile(us, 0.99);
    const double speedup = p50 > 0.0 ? flat_p50 / p50 : 0.0;
    if (operating_ef < 0 && recall10 >= 0.95) {
      operating_ef = ef;
      operating_speedup = speedup;
      operating_recall10 = recall10;
    }
    table.AddRow(std::to_string(ef), {recall1, recall10, p50, p99, speedup},
                 3);
    obs::JsonValue point = obs::JsonValue::Object();
    point.Set("ef_search", obs::JsonValue(ef));
    point.Set("recall_at_1", obs::JsonValue(recall1));
    point.Set("recall_at_10", obs::JsonValue(recall10));
    point.Set("p50_us", obs::JsonValue(p50));
    point.Set("p99_us", obs::JsonValue(p99));
    point.Set("speedup_p50", obs::JsonValue(speedup));
    curve.Append(std::move(point));
  }
  table.Print(std::cout);

  *recall_passed = operating_ef > 0;
  *speedup_passed = operating_ef > 0 && operating_speedup >= 3.0;
  std::cout << "flat scan:       p50 " << flat_p50 << " us, p99 " << flat_p99
            << " us (build " << flat_build_ms << " ms; hnsw build "
            << hnsw_build_ms << " ms)\n";
  if (operating_ef > 0) {
    std::cout << "operating point: efSearch=" << operating_ef
              << " recall@10=" << operating_recall10 << " speedup="
              << operating_speedup << "x (gates: recall@10 >= 0.95 "
              << (*recall_passed ? "PASS" : "FAIL")
              << ", speedup >= 3x " << (*speedup_passed ? "PASS" : "FAIL")
              << ")\n";
  } else {
    std::cout << "operating point: NONE reached recall@10 >= 0.95 (FAIL)\n";
  }

  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("n", obs::JsonValue(n));
  out.Set("dim", obs::JsonValue(dim));
  out.Set("queries", obs::JsonValue(num_queries));
  out.Set("M", obs::JsonValue(options.M));
  out.Set("ef_construction", obs::JsonValue(options.ef_construction));
  out.Set("flat_build_ms", obs::JsonValue(flat_build_ms));
  out.Set("hnsw_build_ms", obs::JsonValue(hnsw_build_ms));
  out.Set("flat_p50_us", obs::JsonValue(flat_p50));
  out.Set("flat_p99_us", obs::JsonValue(flat_p99));
  out.Set("curve", std::move(curve));
  obs::JsonValue op = obs::JsonValue::Object();
  op.Set("ef_search", obs::JsonValue(operating_ef));
  op.Set("recall_at_10", obs::JsonValue(operating_recall10));
  op.Set("speedup_p50", obs::JsonValue(operating_speedup));
  out.Set("operating_point", std::move(op));
  return out;
}

/// Word-dropout paraphrase of a doc text: keep two of every three tokens.
std::string DropWords(const std::string& text) {
  std::string out;
  int word = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(' ', start);
    if (end == std::string::npos) end = text.size();
    if (word % 3 != 2) {
      if (!out.empty()) out.push_back(' ');
      out.append(text, start, end - start);
    }
    ++word;
    start = end + 1;
  }
  return out.empty() ? text : out;
}

/// Part 2: the real serving corpus + encoder; int8 query embeddings vs
/// fp32 through the same index.
obs::JsonValue RunEncoderDelta(const RetrievalFlags& flags,
                               bool* delta_passed) {
  core::ZooConfig config;
  config.seed = 20230402;
  config.world.num_alarm_types = 32;
  config.corpus.num_tele_sentences = 800;
  config.corpus.num_general_sentences = 800;
  config.num_episodes = 20;
  config.pretrain.steps = 0;
  config.cache_dir = "";
  auto zoo = std::make_shared<core::ModelZoo>(config);
  zoo->BuildData();
  zoo->BuildPretrained();

  serve::EngineOptions engine_options;
  engine_options.num_workers = 1;
  serve::BundleIndexOptions index_options;
  index_options.enable = true;
  index_options.num_tickets = flags.num_tickets;
  auto built = serve::BuildModelBundle("telebert", zoo, engine_options,
                                       index_options);
  if (!built.ok()) {
    std::cerr << "bundle build failed: " << built.status().ToString() << "\n";
    std::exit(1);
  }
  std::shared_ptr<serve::ModelBundle> bundle = *built;
  const index::CorpusIndex& index = *bundle->index;

  // Queries: word-dropped doc texts, one per doc — paraphrases with a
  // known best answer (the doc they came from).
  std::vector<std::string> query_texts;
  query_texts.reserve(index.size());
  for (size_t i = 0; i < index.size(); ++i) {
    query_texts.push_back(DropWords(index.doc(static_cast<int>(i)).text));
  }

  std::vector<text::EncodedInput> inputs;
  inputs.reserve(query_texts.size());
  std::vector<const text::EncodedInput*> ptrs;
  ptrs.reserve(query_texts.size());
  for (const std::string& text : query_texts) {
    inputs.push_back(bundle->service->BuildInput(
        text, core::ServiceMode::kEntityNoAttr));
    ptrs.push_back(&inputs.back());
  }
  const std::vector<std::vector<float>> fp32 =
      bundle->service->EncodeInputs(ptrs);
  const std::vector<std::vector<float>> int8 =
      bundle->quantized->EncodeBatch(ptrs);

  constexpr int kTopK = 10;
  double fp32_recall10 = 0.0;
  double int8_recall10 = 0.0;
  double self_hit1 = 0.0;
  for (size_t q = 0; q < query_texts.size(); ++q) {
    const std::vector<index::ScoredDoc> truth =
        index.SearchExact(fp32[q].data(), kTopK);
    const std::vector<index::ScoredDoc> fp32_got =
        index.Search(fp32[q].data(), kTopK);
    const std::vector<index::ScoredDoc> int8_got =
        index.Search(int8[q].data(), kTopK);
    auto recall = [&truth](const std::vector<index::ScoredDoc>& got) {
      size_t hits = 0;
      for (const index::ScoredDoc& t : truth) {
        for (const index::ScoredDoc& g : got) {
          if (g.doc_id == t.doc_id) {
            ++hits;
            break;
          }
        }
      }
      return truth.empty() ? 0.0
                           : static_cast<double>(hits) / truth.size();
    };
    fp32_recall10 += recall(fp32_got);
    int8_recall10 += recall(int8_got);
    if (!fp32_got.empty() &&
        fp32_got.front().doc_id == static_cast<int>(q)) {
      self_hit1 += 1.0;
    }
  }
  const double nq = static_cast<double>(query_texts.size());
  fp32_recall10 /= nq;
  int8_recall10 /= nq;
  self_hit1 /= nq;
  const double delta = fp32_recall10 - int8_recall10;
  *delta_passed = delta <= 0.05 && delta >= -0.05;

  std::cout << "encoder corpus:  " << index.size() << " docs, dim "
            << index.dim() << "\n"
            << "fp32 recall@10:  " << fp32_recall10 << " (self-hit@1 "
            << self_hit1 << ")\nint8 recall@10:  " << int8_recall10
            << "\nint8 delta:      " << delta
            << " (gate: |delta| <= 0.05) "
            << (*delta_passed ? "PASS" : "FAIL") << "\n";

  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("docs", obs::JsonValue(index.size()));
  out.Set("dim", obs::JsonValue(index.dim()));
  out.Set("queries", obs::JsonValue(static_cast<uint64_t>(query_texts.size())));
  out.Set("fp32_recall_at_10", obs::JsonValue(fp32_recall10));
  out.Set("int8_recall_at_10", obs::JsonValue(int8_recall10));
  out.Set("fp32_self_hit_at_1", obs::JsonValue(self_hit1));
  out.Set("delta", obs::JsonValue(delta));
  return out;
}

int Main(int argc, char** argv) {
  RetrievalFlags flags;
  FlagSet cli("retrieval_bench");
  cli.Int("synthetic-n=N", &flags.synthetic_n, 64, 1 << 22,
          "synthetic corpus size (default 8000)");
  cli.Int("synthetic-dim=N", &flags.synthetic_dim, 4, 4096,
          "synthetic vector width (default 96)");
  cli.Int("queries=N", &flags.queries, 1, 1 << 20,
          "queries per part (default 200)");
  cli.Int("num-tickets=N", &flags.num_tickets, 0, 1 << 20,
          "trouble tickets in the encoder corpus (default 96)");
  cli.String("out=PATH", &flags.out,
             "report file (default BENCH_retrieval.json)");
  ObsSession obs_session(argc, argv, &cli);

  bool recall_passed = false;
  bool speedup_passed = false;
  bool delta_passed = false;
  obs::JsonValue synthetic =
      RunSyntheticFrontier(flags, &recall_passed, &speedup_passed);
  obs::JsonValue encoder = RunEncoderDelta(flags, &delta_passed);

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("benchmark", obs::JsonValue("retrieval_bench"));
  report.Set("synthetic", std::move(synthetic));
  report.Set("encoder", std::move(encoder));
  obs::JsonValue gates = obs::JsonValue::Object();
  gates.Set("recall_at_10_ge_0_95", obs::JsonValue(recall_passed));
  gates.Set("hnsw_speedup_ge_3x", obs::JsonValue(speedup_passed));
  gates.Set("int8_delta_le_0_05", obs::JsonValue(delta_passed));
  const bool all_passed = recall_passed && speedup_passed && delta_passed;
  gates.Set("passed", obs::JsonValue(all_passed));
  report.Set("gates", std::move(gates));
  report.Set("passed", obs::JsonValue(all_passed));

  std::ofstream out_file(flags.out);
  out_file << report.Dump(2) << "\n";
  std::cout << "wrote " << flags.out << "\n";
  return all_passed ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace telekit

int main(int argc, char** argv) { return telekit::bench::Main(argc, argv); }
