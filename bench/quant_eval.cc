// quant_eval: fp32-vs-int8 accuracy deltas on the three downstream tasks.
//
// Builds the zoo, generates the same RCA / EAP / FCT datasets as the
// table benches (same generator seeds), embeds each catalogue twice —
// through the fp32 ServiceEncoder and through the calibrated int8
// QuantizedEncoder twin — and runs the task evaluators on both embedding
// sets. Records per-task metrics and deltas into BENCH_serve.json under
// "int8_accuracy" (merging with the existing report) and exits 1 when any
// |delta| on a percent-valued metric exceeds the DESIGN.md §3.2 epsilon
// (5 percentage points; --fast doubles it, since its tiny corpus makes a
// single sample flip worth more than 3 points). Mean rank is reported but
// not gated (its scale tracks the candidate-set size, not a fixed range).
//
// Flags: see --help.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/qencode.h"
#include "synth/task_data.h"
#include "tasks/eap.h"
#include "tasks/embed.h"
#include "tasks/fct.h"
#include "tasks/rca.h"
#include "tensor/ops.h"

namespace telekit {
namespace {

// DESIGN.md §3.2 int8 accuracy budget, in percentage points (the task
// metrics are percent-valued). --fast runs on a corpus small enough that
// one flipped sample moves hits@1 by > 3 points, so it gets double.
constexpr double kEpsilon = 5.0;
constexpr double kFastEpsilon = 10.0;
constexpr int kRepeats = 3;

core::ZooConfig FastZooConfig() {
  core::ZooConfig config;
  config.seed = 777;
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
  config.encoder.num_layers = 2;
  config.encoder.ffn_dim = 64;
  config.pretrain.steps = 8;
  config.pretrain.batch_size = 4;
  config.retrain.total_steps = 8;
  config.retrain.batch_size = 4;
  config.retrain.ke_batch_size = 2;
  config.anenc.num_layers = 1;
  config.anenc.num_meta = 4;
  config.anenc.ffn_dim = 32;
  config.cache_dir = "";
  return config;
}

// Builds the int8 twin for `kind` the same way serve's BuildModelBundle
// does: snapshot the trained encoder, ANEnc numeric slots stay fp32 via
// the override hook.
core::QuantizedEncoder MakeQuantized(const core::ModelZoo& zoo,
                                     core::ModelKind kind) {
  if (kind == core::ModelKind::kTeleBert) {
    return core::QuantizedEncoder(zoo.telebert().encoder());
  }
  const core::KTeleBert* ktb = &zoo.ktelebert(kind);
  core::QuantizedEncoder::OverrideHook hook;
  if (ktb->config().use_anenc) {
    hook = [ktb](const text::EncodedInput& input) {
      std::vector<std::pair<int, std::vector<float>>> overrides;
      tensor::NoGradGuard no_grad;
      for (const text::NumericSlot& slot : input.numeric_slots) {
        if (slot.position >= input.length) continue;
        tensor::Tensor tag = ktb->encoder().MeanTokenEmbedding(slot.tag_ids);
        overrides.emplace_back(slot.position,
                               ktb->anenc().Forward(tag, slot.value).data());
      }
      return overrides;
    };
  }
  return core::QuantizedEncoder(ktb->encoder(), std::move(hook));
}

std::vector<text::EncodedInput> BuildInputs(
    const core::ServiceEncoder& service,
    const std::vector<std::string>& surfaces, core::ServiceMode mode) {
  std::vector<text::EncodedInput> inputs;
  inputs.reserve(surfaces.size());
  for (const std::string& surface : surfaces) {
    inputs.push_back(service.BuildInput(surface, mode));
  }
  return inputs;
}

std::vector<const text::EncodedInput*> Pointers(
    const std::vector<text::EncodedInput>& inputs) {
  std::vector<const text::EncodedInput*> ptrs;
  ptrs.reserve(inputs.size());
  for (const auto& input : inputs) ptrs.push_back(&input);
  return ptrs;
}

// Whitened int8 embeddings of already-built inputs — the quantized mirror
// of tasks::EmbedSurfaces.
std::vector<std::vector<float>> EmbedInt8(
    const core::QuantizedEncoder& quantized,
    const std::vector<text::EncodedInput>& inputs) {
  std::vector<std::vector<float>> embeddings =
      quantized.EncodeBatch(Pointers(inputs));
  tasks::WhitenEmbeddings(embeddings);
  return embeddings;
}

struct MetricRow {
  std::string name;
  double fp32 = 0.0;
  double int8 = 0.0;
  bool gated = true;  // false for mean rank (unbounded scale)
};

obs::JsonValue MetricsJson(const std::vector<MetricRow>& rows,
                           double* max_gated_delta) {
  obs::JsonValue task = obs::JsonValue::Object();
  obs::JsonValue fp32 = obs::JsonValue::Object();
  obs::JsonValue int8 = obs::JsonValue::Object();
  obs::JsonValue delta = obs::JsonValue::Object();
  for (const MetricRow& row : rows) {
    fp32.Set(row.name, obs::JsonValue(row.fp32));
    int8.Set(row.name, obs::JsonValue(row.int8));
    const double d = row.int8 - row.fp32;
    delta.Set(row.name, obs::JsonValue(d));
    if (row.gated) *max_gated_delta = std::max(*max_gated_delta, std::abs(d));
  }
  task.Set("fp32", std::move(fp32));
  task.Set("int8", std::move(int8));
  task.Set("delta", std::move(delta));
  return task;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  bool fast = false;
  FlagSet flags("quant_eval");
  flags.String("out=PATH", &out_path, "report file (default BENCH_serve.json)");
  flags.Switch("fast", &fast, true,
               "tiny zoo + smaller datasets, for CI smoke");
  bench::ObsSession obs_session(argc, argv, &flags);

  core::ModelZoo zoo(fast ? FastZooConfig() : bench::BenchZooConfig());
  std::cerr << "[quant_eval] building model zoo"
            << (fast ? " (--fast)" : " (cached after first run)") << "...\n";
  zoo.Build();

  // Same datasets (and generator seeds) as table4/table6/table8 so the
  // fp32 columns line up with the table benches.
  synth::RcaDataGen rca_gen(zoo.world(), zoo.log_generator());
  Rng rca_rng(zoo.config().seed ^ 0xAAA1ULL);
  synth::RcaDataset rca_data = rca_gen.Generate(
      synth::RcaDataConfig{.num_graphs = fast ? 32 : 127}, rca_rng);
  synth::EapDataGen eap_gen(zoo.world(), zoo.log_generator());
  Rng eap_rng(zoo.config().seed ^ 0xCCC3ULL);
  synth::EapDataset eap_data = eap_gen.Generate(
      synth::EapDataConfig{.num_packages = fast ? 32 : 104}, eap_rng);
  synth::FctDataGen fct_gen(zoo.world(), zoo.log_generator());
  Rng fct_rng(zoo.config().seed ^ 0xDDD4ULL);
  synth::FctDataConfig fct_config = bench::BenchFctConfig();
  if (fast) fct_config.num_chains = 60;
  synth::FctDataset fct_data = fct_gen.Generate(fct_config, fct_rng);

  obs::JsonValue models = obs::JsonValue::Array();
  double worst_delta = 0.0;
  for (core::ModelKind kind :
       {core::ModelKind::kTeleBert, core::ModelKind::kKTeleBertStl}) {
    std::cerr << "[quant_eval] evaluating " << core::ModelKindName(kind)
              << "\n";
    core::ServiceEncoder service = zoo.MakeServiceEncoder(kind);
    core::QuantizedEncoder quantized = MakeQuantized(zoo, kind);

    const auto rca_inputs = BuildInputs(service, rca_data.feature_surfaces,
                                        core::ServiceMode::kEntityWithAttr);
    const auto eap_inputs = BuildInputs(service, eap_data.event_surfaces,
                                        core::ServiceMode::kEntityWithAttr);
    const auto fct_inputs = BuildInputs(service, fct_data.node_surfaces,
                                        core::ServiceMode::kOnlyName);
    {
      // Calibrate activation clips over everything this eval will encode.
      std::vector<const text::EncodedInput*> all = Pointers(rca_inputs);
      for (const auto& input : eap_inputs) all.push_back(&input);
      for (const auto& input : fct_inputs) all.push_back(&input);
      quantized.Calibrate(all);
    }

    const auto rca_fp32 = tasks::EmbedSurfaces(
        service, rca_data.feature_surfaces,
        core::ServiceMode::kEntityWithAttr);
    const auto eap_fp32 = tasks::EmbedSurfaces(
        service, eap_data.event_surfaces,
        core::ServiceMode::kEntityWithAttr);
    const auto fct_fp32 = tasks::EmbedSurfaces(service, fct_data.node_surfaces,
                                               core::ServiceMode::kOnlyName);
    const auto rca_int8 = EmbedInt8(quantized, rca_inputs);
    const auto eap_int8 = EmbedInt8(quantized, eap_inputs);
    const auto fct_int8 = EmbedInt8(quantized, fct_inputs);

    tasks::RcaResult rca32, rca8;
    tasks::EapResult eap32, eap8;
    tasks::FctResult fct32, fct8;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const uint64_t r = static_cast<uint64_t>(rep);
      // Same fold seeds for both precisions: the delta isolates
      // quantization, not fold noise.
      tasks::RcaOptions rca_options;
      Rng rng_a(zoo.config().seed ^ (0xBBB2ULL + r));
      Rng rng_b(zoo.config().seed ^ (0xBBB2ULL + r));
      tasks::RcaResult one32 =
          tasks::RunRcaCrossValidation(rca_data, rca_fp32, rca_options, rng_a);
      tasks::RcaResult one8 =
          tasks::RunRcaCrossValidation(rca_data, rca_int8, rca_options, rng_b);
      rca32.mean_rank += one32.mean_rank / kRepeats;
      rca32.hits1 += one32.hits1 / kRepeats;
      rca32.hits3 += one32.hits3 / kRepeats;
      rca32.hits5 += one32.hits5 / kRepeats;
      rca8.mean_rank += one8.mean_rank / kRepeats;
      rca8.hits1 += one8.hits1 / kRepeats;
      rca8.hits3 += one8.hits3 / kRepeats;
      rca8.hits5 += one8.hits5 / kRepeats;

      tasks::EapOptions eap_options;
      Rng rng_c(zoo.config().seed ^ (0xEEE5ULL + r));
      Rng rng_d(zoo.config().seed ^ (0xEEE5ULL + r));
      tasks::EapResult two32 =
          tasks::RunEapCrossValidation(eap_data, eap_fp32, eap_options, rng_c);
      tasks::EapResult two8 =
          tasks::RunEapCrossValidation(eap_data, eap_int8, eap_options, rng_d);
      eap32.accuracy += two32.accuracy / kRepeats;
      eap32.precision += two32.precision / kRepeats;
      eap32.recall += two32.recall / kRepeats;
      eap32.f1 += two32.f1 / kRepeats;
      eap8.accuracy += two8.accuracy / kRepeats;
      eap8.precision += two8.precision / kRepeats;
      eap8.recall += two8.recall / kRepeats;
      eap8.f1 += two8.f1 / kRepeats;

      tasks::FctOptions fct_options;
      fct_options.kge.dim = service.dim();  // KGE entity dim = encoder dim
      Rng rng_e(zoo.config().seed ^ (0xFFF6ULL + r));
      Rng rng_f(zoo.config().seed ^ (0xFFF6ULL + r));
      tasks::FctResult three32 =
          tasks::RunFct(fct_data, &fct_fp32, fct_options, rng_e);
      tasks::FctResult three8 =
          tasks::RunFct(fct_data, &fct_int8, fct_options, rng_f);
      fct32.mrr += three32.mrr / kRepeats;
      fct32.hits1 += three32.hits1 / kRepeats;
      fct32.hits3 += three32.hits3 / kRepeats;
      fct32.hits10 += three32.hits10 / kRepeats;
      fct8.mrr += three8.mrr / kRepeats;
      fct8.hits1 += three8.hits1 / kRepeats;
      fct8.hits3 += three8.hits3 / kRepeats;
      fct8.hits10 += three8.hits10 / kRepeats;
    }

    double model_delta = 0.0;
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("model", obs::JsonValue(core::ModelKindName(kind)));
    entry.Set("rca",
              MetricsJson({{"mean_rank", rca32.mean_rank, rca8.mean_rank,
                            /*gated=*/false},
                           {"hits1", rca32.hits1, rca8.hits1},
                           {"hits3", rca32.hits3, rca8.hits3},
                           {"hits5", rca32.hits5, rca8.hits5}},
                          &model_delta));
    entry.Set("eap",
              MetricsJson({{"accuracy", eap32.accuracy, eap8.accuracy},
                           {"precision", eap32.precision, eap8.precision},
                           {"recall", eap32.recall, eap8.recall},
                           {"f1", eap32.f1, eap8.f1}},
                          &model_delta));
    entry.Set("fct", MetricsJson({{"mrr", fct32.mrr, fct8.mrr},
                                  {"hits1", fct32.hits1, fct8.hits1},
                                  {"hits3", fct32.hits3, fct8.hits3},
                                  {"hits10", fct32.hits10, fct8.hits10}},
                                 &model_delta));
    entry.Set("max_abs_delta", obs::JsonValue(model_delta));
    models.Append(std::move(entry));
    worst_delta = std::max(worst_delta, model_delta);

    std::printf(
        "%-16s rca hits@1 %.3f->%.3f  eap f1 %.3f->%.3f  fct mrr "
        "%.3f->%.3f  (max |delta| %.4f)\n",
        core::ModelKindName(kind).c_str(), rca32.hits1, rca8.hits1, eap32.f1,
        eap8.f1, fct32.mrr, fct8.mrr, model_delta);
  }

  const double epsilon = fast ? kFastEpsilon : kEpsilon;
  const bool gate_ok = worst_delta <= epsilon;
  obs::JsonValue section = obs::JsonValue::Object();
  section.Set("fast", obs::JsonValue(fast));
  section.Set("epsilon", obs::JsonValue(epsilon));
  section.Set("models", std::move(models));
  section.Set("max_abs_delta", obs::JsonValue(worst_delta));
  section.Set("gate",
              obs::JsonValue(std::string(gate_ok ? "pass" : "fail")));

  bench::MergeJsonSection(out_path, "int8_accuracy", std::move(section));
  std::printf("quant_eval: wrote %s (max |delta| %.4f, epsilon %.2f, gate "
              "%s)\n",
              out_path.c_str(), worst_delta, epsilon,
              gate_ok ? "pass" : "FAIL");
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace telekit

int main(int argc, char** argv) { return telekit::Main(argc, argv); }
