// `layers`: in-process timings of each module's public calls, on the
// replica's model world and on request lines taken from the workload's own
// plan (the replica world's surfaces when there is no plan).
//
// Set-up stages are the steps serve::BuildModelBundle takes, called one by
// one so each can be timed. Per-call timings are medians over all inputs
// and passes. Every timed call is also recorded as a span and written to
// --spans at the end.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "common/rng.h"
#include "core/qencode.h"
#include "index/corpus_index.h"
#include "obs/metrics.h"
#include "obs/requestlog.h"
#include "obs/spanstore.h"
#include "probe.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "synth/corpus.h"
#include "synth/tickets.h"
#include "tasks/scoring.h"
#include "tensor/compute_pool.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace telekit {
namespace perfbench {
namespace {

constexpr size_t kMaxLines = 240;
constexpr int kPasses = 3;
constexpr int kSliceSteps = 4;

/// Spans of the probe's own calls, kept in memory until the end.
class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  /// Times `fn` as one span named `name` under `parent`; returns seconds.
  template <typename Fn>
  double Time(const std::string& name, const std::string& parent, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    obs::JsonValue span = obs::JsonValue::Object();
    span.Set("name", obs::JsonValue(name));
    span.Set("parent", obs::JsonValue(parent));
    span.Set("start_us", obs::JsonValue(Seconds(t0_, start) * 1e6));
    span.Set("end_us", obs::JsonValue(Seconds(t0_, end) * 1e6));
    spans_.Append(std::move(span));
    return Seconds(start, end);
  }

  const obs::JsonValue& spans() const { return spans_; }

 private:
  Clock::time_point t0_;
  obs::JsonValue spans_ = obs::JsonValue::Array();
};

/// Median microseconds per call of `fn(i)` over i in [0, n), `passes`
/// times.
template <typename Fn>
double MedianCallUs(size_t n, int passes, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n * static_cast<size_t>(passes));
  for (int p = 0; p < passes; ++p) {
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point start = Clock::now();
      fn(i);
      us.push_back(Seconds(start, Clock::now()) * 1e6);
    }
  }
  return MedianOf(std::move(us));
}

std::vector<std::string> RequestLines(const std::string& plan_path,
                                      const synth::WorldModel& world) {
  std::vector<std::string> lines;
  if (!plan_path.empty()) {
    const std::vector<PlannedLine> plan = ReadPlan(plan_path);
    const size_t stride = std::max<size_t>(1, plan.size() / kMaxLines);
    for (size_t i = 0; i < plan.size() && lines.size() < kMaxLines;
         i += stride) {
      lines.push_back(plan[i].line);
    }
    return lines;
  }
  static const char* kOps[] = {"encode", "rca", "eap",
                               "fct", "retrieve", "troubleshoot"};
  for (size_t i = 0; i < world.alarms().size(); ++i) {
    obs::JsonValue json = obs::JsonValue::Object();
    json.Set("id", obs::JsonValue(static_cast<uint64_t>(i)));
    json.Set("op", obs::JsonValue(kOps[i % 6]));
    json.Set("text", obs::JsonValue(world.alarms()[i].name));
    json.Set("top_k", obs::JsonValue(5));
    lines.push_back(json.Dump());
  }
  return lines;
}

}  // namespace

int RunLayers(const Flags& flags) {
  const double mean_batch = flags.Num("mean-batch", 1.0);
  SpanLog log;
  obs::JsonValue metrics = obs::JsonValue::Object();
  auto set = [&metrics](const std::string& name, double value) {
    metrics.Set(name, obs::JsonValue(value));
  };

  // --- Set-up stages of one replica ---------------------------------------
  const core::ZooConfig config = ReplicaZooConfig();
  auto zoo = std::make_shared<core::ModelZoo>(config);
  set("synth.build_data_ms",
      1e3 * log.Time("synth/build_data", "setup", [&] { zoo->BuildData(); }));
  set("core.build_models_ms", 1e3 * log.Time("core/build_models", "setup",
                                             [&] { zoo->BuildPretrained(); }));
  core::TeleBertEncoder adapter(&zoo->telebert());
  core::ServiceEncoder service(&adapter, &zoo->tokenizer(), &zoo->store(),
                               &zoo->normalizer());
  std::vector<std::string> alarm_names;
  for (const auto& alarm : zoo->world().alarms()) alarm_names.push_back(alarm.name);
  std::vector<text::EncodedInput> catalog_inputs;
  for (const std::string& name : alarm_names) {
    catalog_inputs.push_back(
        service.BuildInput(name, core::ServiceMode::kEntityNoAttr));
  }
  std::vector<const text::EncodedInput*> catalog_ptrs;
  for (const auto& input : catalog_inputs) catalog_ptrs.push_back(&input);
  core::QuantizedEncoder quantized(zoo->telebert().encoder());
  set("core.calibrate_ms",
      1e3 * log.Time("core/calibrate", "setup",
                     [&] { quantized.Calibrate(catalog_ptrs); }));
  const serve::BundleIndexOptions index_options = ReplicaIndexOptions();
  std::unique_ptr<index::CorpusIndex> corpus_index;
  Status index_status;
  set("index.build_ms", 1e3 * log.Time("index/build", "setup", [&] {
        synth::TicketConfig tickets;
        tickets.num_tickets = index_options.num_tickets;
        tickets.seed = config.seed;
        auto built = index::CorpusIndex::BuildOrLoad(
            synth::BuildRetrievalCorpus(zoo->world(), tickets), service.dim(),
            "telebert",
            [&service](const std::vector<std::string>& texts) {
              std::vector<text::EncodedInput> inputs;
              for (const std::string& t : texts) {
                inputs.push_back(
                    service.BuildInput(t, core::ServiceMode::kEntityNoAttr));
              }
              std::vector<const text::EncodedInput*> ptrs;
              for (const auto& input : inputs) ptrs.push_back(&input);
              return service.EncodeInputs(ptrs);
            },
            index_options.hnsw, "");
        index_status = built.status();
        if (built.ok()) corpus_index = std::move(*built);
      }));
  if (!index_status.ok()) {
    std::cerr << "layers: " << index_status.ToString() << "\n";
    return 1;
  }
  serve::EngineOptions engine_options;
  engine_options.num_workers = 0;
  engine_options.compute_threads = 1;
  serve::ServeEngine engine(&service, engine_options, &quantized,
                            corpus_index.get());
  Status catalog_status;
  set("serve.load_catalog_ms", 1e3 * log.Time("serve/load_catalog", "setup", [&] {
        for (serve::TaskOp op :
             {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
          Status s = engine.LoadCatalog(op, alarm_names);
          if (!s.ok()) catalog_status = s;
        }
      }));
  if (!catalog_status.ok()) {
    std::cerr << "layers: " << catalog_status.ToString() << "\n";
    return 1;
  }

  // --- Per-request calls on the workload's own request lines ---------------
  const std::vector<std::string> lines =
      RequestLines(flags.Str("plan", ""), zoo->world());
  std::vector<serve::Request> requests(lines.size());
  std::vector<obs::JsonValue> ids(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    obs::JsonValue json;
    std::string error;
    obs::JsonValue::Parse(lines[i], &json, &error);
    if (const obs::JsonValue* id = json.Find("id")) ids[i] = *id;
  }
  log.Time("serve/parse", "requests", [&] {
    set("serve.parse_us", MedianCallUs(lines.size(), kPasses, [&](size_t i) {
          serve::ParseRequestLine(lines[i], &requests[i]);
        }));
  });
  std::vector<serve::Response> responses(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    responses[i] = engine.Process(requests[i]);  // warms the cache
  }
  log.Time("serve/engine", "requests", [&] {
    set("serve.engine_us", MedianCallUs(lines.size(), kPasses, [&](size_t i) {
          responses[i] = engine.Process(requests[i]);
        }));
  });
  log.Time("serve/render", "requests", [&] {
    set("serve.render_us", MedianCallUs(lines.size(), kPasses, [&](size_t i) {
          serve::ResponseToJson(requests[i], responses[i], &ids[i]).Dump();
        }));
  });
  std::vector<text::EncodedInput> inputs(lines.size());
  log.Time("text/build_input", "requests", [&] {
    set("text.build_input_us",
        MedianCallUs(lines.size(), kPasses, [&](size_t i) {
          inputs[i] = service.BuildInput(requests[i].text, requests[i].mode);
        }));
  });
  double tokens = 0;
  for (const auto& input : inputs) tokens += input.length;
  const double tokens_per_input = tokens / static_cast<double>(inputs.size());
  set("text.tokens_per_input", tokens_per_input);

  std::vector<std::vector<float>> vectors(inputs.size());
  log.Time("core/encode_fp32", "requests", [&] {
    set("core.encode_fp32_us",
        MedianCallUs(inputs.size(), kPasses, [&](size_t i) {
          vectors[i] = std::move(service.EncodeInputs({&inputs[i]})[0]);
        }));
  });
  const size_t batch = static_cast<size_t>(std::max(2.0, std::round(mean_batch)));
  log.Time("core/encode_fp32_batched", "requests", [&] {
    const size_t groups = inputs.size() / batch;
    set("core.encode_fp32_batched_us",
        MedianCallUs(groups, kPasses, [&](size_t g) {
          std::vector<const text::EncodedInput*> group;
          for (size_t j = 0; j < batch; ++j) {
            group.push_back(&inputs[g * batch + j]);
          }
          service.EncodeInputs(group);
        }) / static_cast<double>(batch));
  });
  log.Time("core/encode_int8", "requests", [&] {
    set("core.encode_int8_us",
        MedianCallUs(inputs.size(), kPasses, [&](size_t i) {
          quantized.EncodeBatch({&inputs[i]});
        }));
  });

  // One GEMM per encoder linear shape, one token row block per input.
  {
    const core::EncoderConfig& enc = zoo->config().encoder;
    const int rows = std::max(1, static_cast<int>(std::lround(tokens_per_input)));
    Rng rng(7);
    const std::vector<std::pair<int, int>> shapes = {
        {enc.d_model, enc.d_model}, {enc.d_model, enc.ffn_dim},
        {enc.ffn_dim, enc.d_model}};
    std::vector<tensor::Tensor> a, b;
    double flops = 0;
    for (const auto& [k, n] : shapes) {
      a.push_back(tensor::Tensor::Randn({rows, k}, rng));
      b.push_back(tensor::Tensor::Randn({k, n}, rng));
      flops += 2.0 * rows * k * n;
    }
    constexpr int kIters = 200;
    std::vector<double> gflops;
    log.Time("tensor/gemm", "kernels", [&] {
      for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point start = Clock::now();
        for (int it = 0; it < kIters; ++it) {
          for (size_t s = 0; s < shapes.size(); ++s) tensor::MatMul(a[s], b[s]);
        }
        gflops.push_back(flops * kIters / Seconds(start, Clock::now()) / 1e9);
      }
    });
    set("tensor.gemm_gflops", MedianOf(gflops));
  }

  // ANN search at the served ef_search, and its recall against exact search.
  {
    std::vector<double> recall;
    log.Time("index/search", "requests", [&] {
      set("index.search_us", MedianCallUs(vectors.size(), kPasses, [&](size_t i) {
            corpus_index->Search(vectors[i].data(), 5, index_options.hnsw.ef_search);
          }));
    });
    for (const auto& v : vectors) {
      const auto approx = corpus_index->Search(v.data(), 5, index_options.hnsw.ef_search);
      const auto exact = corpus_index->SearchExact(v.data(), 5);
      int hits = 0;
      for (const auto& e : exact) {
        for (const auto& a : approx) hits += a.doc_id == e.doc_id ? 1 : 0;
      }
      recall.push_back(exact.empty() ? 1.0 : hits / static_cast<double>(exact.size()));
    }
    double sum = 0;
    for (double r : recall) sum += r;
    set("index.recall_at_5", sum / static_cast<double>(recall.size()));
  }

  // Catalogue scoring over the served catalogue.
  {
    const std::vector<std::vector<float>> catalog =
        service.EncodeInputs(catalog_ptrs);
    log.Time("tasks/score", "requests", [&] {
      set("tasks.score_us", MedianCallUs(vectors.size(), kPasses, [&](size_t i) {
            tasks::TopKByCosine(vectors[i], alarm_names, catalog, 5);
          }));
    });
  }

  // One request's observability payloads: the serve/request span and its
  // three stage spans, the wide event, and the two exemplars.
  {
    obs::SpanRecord span;
    span.trace_id = 0x1234;
    span.span_id = 0x5678;
    span.name = "serve/request";
    span.process = "telekit_serve:0";
    span.outcome = "ok";
    span.start_unix_us = obs::UnixNowUs();
    span.dur_us = 2500;
    obs::WideEvent event;
    event.trace_id = 0x1234;
    event.op = "rca";
    event.batch_size = 1;
    event.total_us = 2500;
    event.verdict = alarm_names.front();
    event.status = "ok";
    log.Time("obs/record", "requests", [&] {
      set("obs.record_us", MedianCallUs(lines.size(), kPasses, [&](size_t) {
            for (const char* name :
                 {"serve/request", "serve/queue", "serve/encode", "serve/score"}) {
              obs::SpanRecord copy = span;
              copy.name = name;
              obs::SpanStore::Global().Record(std::move(copy));
            }
            obs::RequestLog::Global().Record(event);
            obs::ExemplarStore::Global().Record("serve/request_ms", 2.5, 0x1234);
            obs::ExemplarStore::Global().Record("serve/rca/request_ms", 2.5, 0x1234);
          }));
    });
  }

  // --- Intra-op threads: a fixed encode batch and a fixed train slice ------
  {
    Rng corpus_rng(zoo->config().seed);
    synth::CorpusGenerator corpus_gen(zoo->world(), zoo->config().corpus);
    std::vector<text::EncodedInput> corpus;
    for (const std::string& s : corpus_gen.GenerateTeleCorpus(corpus_rng)) {
      corpus.push_back(zoo->tokenizer().EncodeSentence(s));
    }
    core::PretrainOptions slice = zoo->config().pretrain;
    slice.steps = kSliceSteps;
    const obs::Counter& regions =
        obs::MetricsRegistry::Global().GetCounter("tensor/parallel_regions");
    std::map<int, double> wall_s;
    for (int threads : {1, 2, 4}) {
      tensor::SetComputeThreads(threads);
      const std::string tag = std::to_string(threads) + "t";
      std::vector<double> encode_s;
      for (int rep = 0; rep < 5; ++rep) {
        encode_s.push_back(log.Time("tensor/encode_batch_" + tag, "threads",
                                    [&] { service.EncodeInputs(catalog_ptrs); }));
      }
      const uint64_t regions_before = regions.value();
      const double train_s = log.Time("tensor/train_slice_" + tag, "threads", [&] {
        Rng init(11);
        core::TeleBert model(zoo->config().encoder, init);
        Rng rng(12);
        model.Pretrain(corpus, zoo->tokenizer().vocab(), slice, rng);
      });
      wall_s[threads] = MedianOf(encode_s) + train_s;
      if (threads == 1) {
        set("train.pretrain_step_ms", 1e3 * train_s / kSliceSteps);
      }
      if (threads == 4) {
        set("tensor.parallel_regions",
            static_cast<double>(regions.value() - regions_before) / kSliceSteps);
      }
    }
    tensor::SetComputeThreads(1);
    set("tensor.parallel_speedup_2t", wall_s[1] / wall_s[2]);
    set("tensor.parallel_speedup_4t", wall_s[1] / wall_s[4]);
  }

  // --- A re-training slice and the optimizer step --------------------------
  {
    core::KTeleBertConfig ktb;
    ktb.encoder = zoo->config().encoder;
    ktb.anenc = zoo->config().anenc;
    ktb.num_tags = zoo->num_tags();
    Rng init(13);
    core::KTeleBert model(ktb, init);
    if (!model.InitializeFromTeleBert(zoo->telebert()).ok()) {
      std::cerr << "layers: InitializeFromTeleBert failed\n";
      return 1;
    }
    core::ReTrainOptions options = zoo->config().retrain;
    options.total_steps = kSliceSteps;
    core::ReTrainer trainer(model, options);
    Rng rng(14);
    set("train.retrain_step_ms",
        1e3 * log.Time("train/retrain_slice", "train", [&] {
          trainer.Train(zoo->retrain_data(), rng);
        }) / kSliceSteps);
    tensor::Adam adam(options.learning_rate);
    adam.AddParameters(core::TensorsOf(model.Parameters()));
    adam.ZeroGrad();
    log.Time("tensor/adam_step", "train", [&] {
      set("train.optimizer_us",
          MedianCallUs(60, 1, [&](size_t) { adam.Step(); }));
    });
  }

  const std::string spans_path = flags.Str("spans", "");
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << log.spans().Dump() << '\n';
  }
  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("metrics", std::move(metrics));
  result.Set("requests", obs::JsonValue(static_cast<uint64_t>(lines.size())));
  Emit(result);
  return 0;
}

}  // namespace perfbench
}  // namespace telekit
