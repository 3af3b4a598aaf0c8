#ifndef TELEKIT_BENCH_BENCH_UTIL_H_
#define TELEKIT_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flag_parse.h"
#include "common/table_printer.h"
#include "core/model_zoo.h"
#include "obs/obs.h"
#include "synth/task_data.h"
#include "tensor/compute_pool.h"

namespace telekit {
namespace bench {

/// Shared observability wiring for every bench binary. Construct first
/// thing in Main(), after declaring the binary's own flags (if any) in a
/// FlagSet: it adds --obs-json (a metrics + span + Chrome-trace artifact
/// written on exit, with full trace-event recording), --log-level and
/// --compute-threads to the table and parses the command line, so any
/// other flag is a usage error (exit 64).
class ObsSession {
 public:
  /// For a binary with no flags of its own.
  ObsSession(int argc, char** argv) : ObsSession(argc, argv, nullptr) {}

  ObsSession(int argc, char** argv, FlagSet* flags) {
    FlagSet own(std::filesystem::path(argv[0]).filename().string());
    FlagSet* table = flags != nullptr ? flags : &own;
    table->String("obs-json=PATH", &obs_json_path_,
                  "write metrics/trace report on exit");
    AddLogLevelFlag(table);
    tensor::AddComputeThreadsFlag(table);
    table->Parse(argc, argv);
    if (!obs_json_path_.empty()) {
      obs::TraceCollector::Global().set_recording(true);
    }
    // Root span: everything the binary does nests under it in the trace.
    root_ = std::make_unique<obs::Span>("bench/main");
  }

  ~ObsSession() {
    root_.reset();  // close the root span before snapshotting
    if (!obs_json_path_.empty()) {
      obs::WriteReport(obs_json_path_);
      std::cerr << "[obs] wrote " << obs_json_path_ << "\n";
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string obs_json_path_;
  std::unique_ptr<obs::Span> root_;
};

/// Sets `key` to `value` in the JSON object stored at `path` and rewrites
/// the file, keeping every other member, so several benches can share one
/// BENCH_*.json. A missing, unreadable or non-object file starts a new
/// object. Returns false when the file cannot be written.
inline bool MergeJsonSection(const std::string& path, const std::string& key,
                             obs::JsonValue value) {
  obs::JsonValue report = obs::JsonValue::Object();
  if (std::ifstream in(path); in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    obs::JsonValue existing;
    if (obs::JsonValue::Parse(buffer.str(), &existing) &&
        existing.is_object()) {
      report = std::move(existing);
    }
  }
  report.Set(key, std::move(value));
  std::ofstream out(path);
  out << report.Dump(2) << "\n";
  return static_cast<bool>(out);
}

/// Paper-reported reference rows (ICDE 2023, Tables IV / VI / VIII),
/// used to print measured-vs-paper comparisons. Indexed by ModelKind.
struct PaperReference {
  /// Table IV: MR, Hits@1, Hits@3, Hits@5 (RCA).
  static std::map<core::ModelKind, std::vector<double>> RcaTable() {
    using MK = core::ModelKind;
    return {{MK::kRandom, {2.47, 54.88, 75.00, 88.67}},
            {MK::kMacBert, {2.16, 59.64, 82.68, 90.85}},
            {MK::kTeleBert, {2.09, 62.65, 83.52, 92.46}},
            {MK::kKTeleBertStl, {2.06, 63.66, 83.21, 91.87}},
            {MK::kKTeleBertStlNoAnEnc, {2.13, 60.72, 82.96, 90.80}},
            {MK::kKTeleBertPmtl, {2.03, 65.96, 84.98, 92.63}},
            {MK::kKTeleBertImtl, {2.02, 64.78, 85.65, 91.13}}};
  }

  /// Table VI: Accuracy, Precision, Recall, F1 (EAP).
  static std::map<core::ModelKind, std::vector<double>> EapTable() {
    using MK = core::ModelKind;
    return {{MK::kWordEmbedding, {64.9, 66.4, 96.8, 78.7}},
            {MK::kMacBert, {64.3, 65.9, 96.1, 78.2}},
            {MK::kTeleBert, {70.4, 71.4, 95.1, 81.5}},
            {MK::kKTeleBertStl, {77.3, 76.6, 96.6, 85.4}},
            {MK::kKTeleBertStlNoAnEnc, {76.0, 76.1, 95.1, 84.5}},
            {MK::kKTeleBertPmtl, {68.5, 68.8, 99.1, 81.3}}};
  }

  /// Table VIII: MRR, Hits@1, Hits@3, Hits@10 (FCT).
  static std::map<core::ModelKind, std::vector<double>> FctTable() {
    using MK = core::ModelKind;
    return {{MK::kRandom, {58.2, 56.2, 56.2, 62.5}},
            {MK::kMacBert, {65.9, 62.5, 65.6, 68.8}},
            {MK::kTeleBert, {69.0, 65.6, 71.9, 71.9}},
            {MK::kKTeleBertStl, {73.6, 71.9, 71.9, 78.1}},
            {MK::kKTeleBertStlNoAnEnc, {67.5, 65.6, 65.6, 71.9}},
            {MK::kKTeleBertPmtl, {87.3, 84.4, 87.5, 93.8}},
            {MK::kKTeleBertImtl, {94.8, 93.8, 93.8, 100.0}}};
  }
};

/// The shared benchmark configuration: one world, one tokenizer, one cache
/// (first binary trains, later binaries restore). Scale is chosen so the
/// whole harness runs on a single CPU core in minutes.
inline core::ZooConfig BenchZooConfig() {
  core::ZooConfig config;
  config.seed = 20230401;
  config.world.num_alarm_types = 64;
  config.world.num_kpi_types = 32;
  config.corpus.num_tele_sentences = 6000;
  config.corpus.num_general_sentences = 6000;
  config.num_episodes = 80;
  config.pretrain.steps = 900;
  config.pretrain.batch_size = 16;
  config.pretrain.simcse_weight = 0.3f;  // fight [CLS] anisotropy
  config.retrain.total_steps = 600;
  config.retrain.batch_size = 8;
  config.retrain.ke_loss_weight = 1.0f;
  config.max_ke_triples = 400;
  return config;
}

/// FCT dataset scale shared by the stats and results benches.
inline synth::FctDataConfig BenchFctConfig() {
  synth::FctDataConfig config;
  config.num_chains = 300;
  config.valid_fraction = 0.15;
  config.test_fraction = 0.15;
  return config;
}

/// Appends a "<name> (paper)" reference row when the reference table has
/// one for this kind.
inline void AddPaperRow(TablePrinter& table, core::ModelKind kind,
                        const std::map<core::ModelKind, std::vector<double>>&
                            reference,
                        int precision = 2) {
  auto it = reference.find(kind);
  if (it == reference.end()) return;
  table.AddRow(core::ModelKindName(kind) + " (paper)", it->second, precision);
}

}  // namespace bench
}  // namespace telekit

#endif  // TELEKIT_BENCH_BENCH_UTIL_H_
