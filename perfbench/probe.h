// The C++ half of the TeleKit benchmark (perfbench/run.py drives it).
//
// Every subcommand prints one JSON object on stdout and exits 0 on
// success:
//
//   plan     builds the replica bundle in-process, writes the seeded
//            request schedules and the reference answers for a sample
//   loadgen  open-loop sender over 4 TCP connections
//   layers   in-process timings of each module's public calls
//   train    the fixed pre-train + re-train schedule
//
// The probe only calls public functions of the repository's modules and
// reads what the program already exports; it adds no instrumentation.
#ifndef TELEKIT_PERFBENCH_PROBE_H_
#define TELEKIT_PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/model_zoo.h"
#include "obs/json.h"
#include "serve/model_host.h"

namespace telekit {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// `--key=value` flags. Unknown or malformed flags are fatal (exit 64),
/// so a typo in run.py can never silently change a workload.
class Flags {
 public:
  Flags(int argc, char** argv, const std::vector<std::string>& known);

  std::string Str(const std::string& name, const std::string& fallback) const;
  int64_t Int(const std::string& name, int64_t fallback) const;
  double Num(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The model world telekit_serve builds at its defaults
/// (telekit_serve's ServeZooConfig with --seed=20230401, --pretrain-steps=0).
/// The reference answers and the layer probes are built from it; if the
/// replica's defaults drift away from it, answer_agreement drops.
core::ZooConfig ReplicaZooConfig();
serve::BundleIndexOptions ReplicaIndexOptions();

/// One scheduled request: due time from the window start, and its line.
/// `tag` is 's' for a request in the answer-check sample, 't' for a traced
/// request whose full reply is kept, '-' otherwise.
struct PlannedLine {
  double due_us = 0.0;
  char tag = '-';
  std::string line;
};

std::vector<PlannedLine> ReadPlan(const std::string& path);
void WritePlan(const std::string& path, const std::vector<PlannedLine>& plan);

double MedianOf(std::vector<double> values);
/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();
double Seconds(Clock::time_point from, Clock::time_point to);
/// Prints `json` as one line on stdout.
void Emit(const obs::JsonValue& json);

int RunPlan(const Flags& flags);
int RunLoadgen(const Flags& flags);
int RunLayers(const Flags& flags);
int RunTrain(const Flags& flags);

}  // namespace perfbench
}  // namespace telekit

#endif  // TELEKIT_PERFBENCH_PROBE_H_
