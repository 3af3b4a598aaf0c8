#include "probe.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/flag_parse.h"
#include "obs/log.h"
#include "tensor/compute_pool.h"

namespace telekit {
namespace perfbench {

Flags::Flags(int argc, char** argv, const std::vector<std::string>& known) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::cerr << "perfbench_probe: bad flag " << arg << "\n";
      std::exit(64);
    }
    const std::string name = arg.substr(2, eq - 2);
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "perfbench_probe: unknown flag --" << name << "\n";
      std::exit(64);
    }
    values_[name] = arg.substr(eq + 1);
  }
}

std::string Flags::Str(const std::string& name,
                       const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::Int(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return ParseIntFlagOrDie(name.c_str(), it->second, 0, int64_t{1} << 62);
}

double Flags::Num(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return ParseDoubleFlagOrDie(name.c_str(), it->second, 0.0, 1e12);
}

core::ZooConfig ReplicaZooConfig() {
  core::ZooConfig config;
  config.seed = 20230401;
  config.world.num_alarm_types = 48;
  config.world.num_kpi_types = 24;
  config.corpus.num_tele_sentences = 1500;
  config.corpus.num_general_sentences = 1500;
  config.num_episodes = 40;
  config.pretrain.steps = 0;
  config.cache_dir = "";
  return config;
}

serve::BundleIndexOptions ReplicaIndexOptions() {
  serve::BundleIndexOptions options;
  options.enable = true;
  options.hnsw.ef_search = 32;
  options.num_tickets = 64;
  return options;
}

std::vector<PlannedLine> ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "perfbench_probe: cannot read " << path << "\n";
    std::exit(1);
  }
  std::vector<PlannedLine> plan;
  std::string row;
  while (std::getline(in, row)) {
    const size_t a = row.find('\t');
    const size_t b = a == std::string::npos ? a : row.find('\t', a + 1);
    if (b == std::string::npos || b != a + 2) {
      std::cerr << "perfbench_probe: malformed plan row in " << path << "\n";
      std::exit(1);
    }
    PlannedLine line;
    line.due_us = std::strtod(row.c_str(), nullptr);
    line.tag = row[a + 1];
    line.line = row.substr(b + 1);
    plan.push_back(std::move(line));
  }
  return plan;
}

void WritePlan(const std::string& path, const std::vector<PlannedLine>& plan) {
  std::ofstream out(path);
  for (const PlannedLine& line : plan) {
    char due[32];
    std::snprintf(due, sizeof(due), "%.1f", line.due_us);
    out << due << '\t' << line.tag << '\t' << line.line << '\n';
  }
  if (!out) {
    std::cerr << "perfbench_probe: cannot write " << path << "\n";
    std::exit(1);
  }
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void Emit(const obs::JsonValue& json) {
  std::cout << json.Dump() << std::endl;
}

}  // namespace perfbench
}  // namespace telekit

int main(int argc, char** argv) {
  using namespace telekit::perfbench;
  const std::string command = argc > 1 ? argv[1] : "";
  // The daemons' own INFO chatter would drown the one-line results.
  telekit::obs::Logger::Global().set_level(telekit::obs::LogLevel::kWarn);
  // Intra-op threads are pinned to 1 everywhere; see NOTES.md.
  telekit::tensor::SetComputeThreads(1);
  if (command == "plan") {
    return RunPlan(Flags(argc, argv,
                         {"workload", "seed", "seconds", "trace", "out"}));
  }
  if (command == "loadgen") {
    return RunLoadgen(Flags(argc, argv,
                            {"port", "plan", "out", "keep"}));
  }
  if (command == "layers") {
    return RunLayers(Flags(argc, argv, {"plan", "mean-batch", "spans"}));
  }
  if (command == "train") {
    return RunTrain(Flags(argc, argv, {"seed", "trace"}));
  }
  std::cerr << "usage: perfbench_probe plan|loadgen|layers|train "
               "--flag=value...\n";
  return 64;
}
