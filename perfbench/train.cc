// `train`: the fixed training schedule of the paper's tables, on
// bench_util.h's BenchZooConfig with the checkpoint cache off.
//
// Each pass builds a fresh ModelZoo. Its set-up is the construction plus
// BuildData (world, corpora, tokenizer, Tele-KG, re-training data); its
// schedule is ModelZoo::Build, which pre-trains TeleBERT and the MacBERT
// surrogate and re-trains the four KTeleBERT variants (STL, w/o ANEnc,
// PMTL, IMTL) for kSteps steps each.
//
// Everything is read from outside the zoo: step ends from a watcher that
// polls the step counts the trainers already export (the train/step_ms and
// retrain/step_ms histograms) once a millisecond, mean step times from
// those histograms' sums, per-model phase times from the zoo's own spans,
// and the re-train final losses from RetrainHistory. At one intra-op
// thread all training runs on the calling thread, so CPU is that thread's
// clock alone (the watcher's polling is not charged).
//
// The step ends cut each pass into the same segments: Build() start to the
// first step end, one segment per later step, and the last step end to
// Build() return. Every pass does the same work in segment k, so the
// harness can compare the passes segment by segment.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <pthread.h>
#include <iostream>
#include <thread>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe.h"
#include "tensor/optimizer.h"
#include "tensor/simd.h"

namespace telekit {
namespace perfbench {
namespace {

/// The benchmark seed picks one of this many zoo seeds, so every seed has
/// a checked-in reference loss (perfbench/train_reference.json).
constexpr uint64_t kSeedSpace = 16;
/// Pre-training and re-training steps per model.
constexpr int kSteps = 15;
/// Passes per run, each with its own set-up. The harness keeps each
/// segment's best pass, and a segment reads slow only when every pass
/// caught the host slow there, so many short passes are steadier than a
/// few long ones.
constexpr int kPasses = 10;

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

const std::vector<std::pair<core::ModelKind, std::string>>& Variants() {
  static const std::vector<std::pair<core::ModelKind, std::string>> variants = {
      {core::ModelKind::kKTeleBertStl, "ktelebert_stl"},
      {core::ModelKind::kKTeleBertStlNoAnEnc, "ktelebert_stl_noanenc"},
      {core::ModelKind::kKTeleBertPmtl, "ktelebert_pmtl"},
      {core::ModelKind::kKTeleBertImtl, "ktelebert_imtl"}};
  return variants;
}

/// A point in a pass: wall time and the training thread's CPU time.
struct Mark {
  Clock::time_point wall;
  double cpu_s = 0.0;
};

/// One pass of the schedule.
struct Pass {
  double setup_s = 0.0;
  double train_s = 0.0;
  double cpu_s = 0.0;
  /// Segment k runs from mark k to mark k + 1 (see the file comment).
  std::vector<double> segment_ms;
  std::vector<double> segment_cpu_ms;
  int steps = 0;
  /// Step ends the watcher saw together in one poll; their segment is
  /// split evenly between them.
  int shared_marks = 0;
  double pretrain_step_ms = 0.0;
  double retrain_step_ms = 0.0;
  /// Re-train final losses in Variants() order, and the re-train steps
  /// whose loss was not finite.
  std::vector<double> final_loss;
  int nonfinite_steps = 0;
  /// Span name -> self time (us) of the zoo's spans during Build().
  std::map<std::string, double> span_self_us;
  std::unique_ptr<core::ModelZoo> zoo;
};

Pass RunPass(const core::ZooConfig& config) {
  Pass pass;
  const Clock::time_point setup_start = Clock::now();
  pass.zoo = std::make_unique<core::ModelZoo>(config);
  pass.zoo->BuildData();
  pass.setup_s = Seconds(setup_start, Clock::now());

  clockid_t train_clock;
  pthread_getcpuclockid(pthread_self(), &train_clock);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Histogram& pre = registry.GetHistogram("train/step_ms");
  const obs::Histogram& re = registry.GetHistogram("retrain/step_ms");
  const uint64_t pre_count = pre.count(), re_count = re.count();
  const double pre_sum = pre.sum(), re_sum = re.sum();
  obs::TraceCollector::Global().Reset();
  std::vector<Mark> marks = {{Clock::now(), CpuSeconds(train_clock)}};
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    uint64_t seen = pre_count + re_count;
    while (true) {
      const bool last = done.load();  // one more look after Build() returns
      const uint64_t now_count = pre.count() + re.count();
      if (now_count != seen) {
        const Mark now{Clock::now(), CpuSeconds(train_clock)};
        const Mark prev = marks.back();
        const uint64_t ends = now_count - seen;
        pass.shared_marks += ends > 1 ? static_cast<int>(ends) : 0;
        for (uint64_t i = 1; i <= ends; ++i) {
          const double share = static_cast<double>(i) / ends;
          marks.push_back(
              {prev.wall + std::chrono::duration_cast<Clock::duration>(
                               (now.wall - prev.wall) * share),
               prev.cpu_s + (now.cpu_s - prev.cpu_s) * share});
        }
        seen = now_count;
      }
      if (last) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  pass.zoo->Build();
  const Mark end{Clock::now(), CpuSeconds(train_clock)};
  done.store(true);
  watcher.join();
  // The last step end is often seen only after Build() returns; it cannot
  // be later than the return itself.
  for (Mark& mark : marks) {
    if (mark.wall > end.wall) mark = end;
  }
  marks.push_back(end);

  pass.train_s = Seconds(marks.front().wall, end.wall);
  pass.cpu_s = end.cpu_s - marks.front().cpu_s;
  for (size_t k = 0; k + 1 < marks.size(); ++k) {
    pass.segment_ms.push_back(Seconds(marks[k].wall, marks[k + 1].wall) * 1e3);
    pass.segment_cpu_ms.push_back((marks[k + 1].cpu_s - marks[k].cpu_s) * 1e3);
  }
  const uint64_t pre_steps = pre.count() - pre_count;
  const uint64_t re_steps = re.count() - re_count;
  pass.steps = static_cast<int>(pre_steps + re_steps);
  pass.pretrain_step_ms = (pre.sum() - pre_sum) / std::max<uint64_t>(1, pre_steps);
  pass.retrain_step_ms = (re.sum() - re_sum) / std::max<uint64_t>(1, re_steps);
  for (const auto& [kind, name] : Variants()) {
    const auto& history = pass.zoo->RetrainHistory(kind);
    for (const auto& stats : history) {
      pass.nonfinite_steps += std::isfinite(stats.total_loss) ? 0 : 1;
    }
    pass.final_loss.push_back(history.empty() ? 0.0 : history.back().total_loss);
  }
  for (const auto& [name, stats] : obs::TraceCollector::Global().Aggregate()) {
    pass.span_self_us[name] = static_cast<double>(stats.self_us);
  }
  return pass;
}

obs::JsonValue Numbers(const std::vector<double>& values) {
  obs::JsonValue out = obs::JsonValue::Array();
  for (double v : values) out.Append(obs::JsonValue(v));
  return out;
}

}  // namespace

int RunTrain(const Flags& flags) {
  ::unsetenv("TELEKIT_CACHE");
  const uint64_t bench_seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const bool trace = flags.Int("trace", 0) != 0;

  core::ZooConfig config = bench::BenchZooConfig();
  config.seed = 20230401 + bench_seed % kSeedSpace;
  config.cache_dir = "";
  config.pretrain.steps = kSteps;
  config.retrain.total_steps = kSteps;

  std::vector<Pass> passes;
  for (int p = 0; p < kPasses; ++p) {
    // The previous pass's zoo is freed first, so peak RSS is one zoo's.
    if (!passes.empty()) passes.back().zoo.reset();
    if (trace && p + 1 == kPasses) obs::TraceCollector::Global().set_recording(true);
    passes.push_back(RunPass(config));
  }

  // Re-train final losses of the last pass; every pass must agree bit
  // for bit.
  obs::JsonValue models = obs::JsonValue::Object();
  bool losses_agree = true;
  for (size_t v = 0; v < Variants().size(); ++v) {
    models.Set(Variants()[v].second, obs::JsonValue(passes.back().final_loss[v]));
    for (const Pass& pass : passes) {
      losses_agree = losses_agree && pass.final_loss[v] == passes[0].final_loss[v];
    }
  }

  std::vector<double> setup_s, train_s, cpu_s, pre_ms, re_ms;
  obs::JsonValue steps = obs::JsonValue::Array();
  obs::JsonValue nonfinite = obs::JsonValue::Array();
  obs::JsonValue shared = obs::JsonValue::Array();
  obs::JsonValue segment_ms = obs::JsonValue::Array();
  obs::JsonValue segment_cpu_ms = obs::JsonValue::Array();
  for (const Pass& pass : passes) {
    setup_s.push_back(pass.setup_s);
    train_s.push_back(pass.train_s);
    cpu_s.push_back(pass.cpu_s);
    pre_ms.push_back(pass.pretrain_step_ms);
    re_ms.push_back(pass.retrain_step_ms);
    steps.Append(obs::JsonValue(pass.steps));
    nonfinite.Append(obs::JsonValue(pass.nonfinite_steps));
    shared.Append(obs::JsonValue(pass.shared_marks));
    segment_ms.Append(Numbers(pass.segment_ms));
    segment_cpu_ms.Append(Numbers(pass.segment_cpu_ms));
  }

  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("zoo_seed", obs::JsonValue(config.seed));
  result.Set("simd", obs::JsonValue(tensor::simd::ActiveBackendName()));
  result.Set("steps_per_model", obs::JsonValue(kSteps));
  result.Set("setup_s", Numbers(setup_s));
  result.Set("train_s", Numbers(train_s));
  result.Set("cpu_s", Numbers(cpu_s));
  result.Set("steps", std::move(steps));
  result.Set("shared_marks", std::move(shared));
  result.Set("segment_ms", std::move(segment_ms));
  result.Set("segment_cpu_ms", std::move(segment_cpu_ms));
  result.Set("nonfinite_steps", std::move(nonfinite));
  result.Set("final_loss", std::move(models));
  result.Set("losses_agree", obs::JsonValue(losses_agree));
  result.Set("pretrain_step_ms", obs::JsonValue(MedianOf(pre_ms)));
  result.Set("retrain_step_ms", obs::JsonValue(MedianOf(re_ms)));
  if (trace) {
    obs::JsonValue spans = obs::JsonValue::Object();
    for (const auto& [name, us] : passes.back().span_self_us) {
      spans.Set(name, obs::JsonValue(us));
    }
    result.Set("span_self_us", std::move(spans));
    result.Set("trace_events", obs::TraceCollector::Global().TraceEventsJson());
    // Adam::Step over TeleBERT's parameters. The gradients are zero, so
    // the update is zero and the weights stay as trained.
    tensor::Adam adam(config.pretrain.learning_rate);
    adam.AddParameters(core::TensorsOf(passes.back().zoo->telebert().Parameters()));
    adam.ZeroGrad();
    std::vector<double> step_us;
    for (int i = 0; i < 60; ++i) {
      const Clock::time_point start = Clock::now();
      adam.Step();
      step_us.push_back(Seconds(start, Clock::now()) * 1e6);
    }
    result.Set("optimizer_us", obs::JsonValue(MedianOf(step_us)));
  }
  result.Set("peak_rss_mb", obs::JsonValue(PeakRssMb()));
  Emit(result);
  return 0;
}

}  // namespace perfbench
}  // namespace telekit
