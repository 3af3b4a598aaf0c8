#ifndef TELEKIT_OBS_REQUESTLOG_H_
#define TELEKIT_OBS_REQUESTLOG_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/admin.h"
#include "obs/json.h"

namespace telekit {
namespace obs {

/// One wide event: everything known about one served request, in one
/// record. Durations are microseconds; `t_s` shares the TraceNowUs()
/// epoch (seconds since process start).
struct WideEvent {
  double t_s = 0.0;
  uint64_t trace_id = 0;
  std::string op;        ///< "rca" | "eap" | "fct" | "encode" | "detect"
  int batch_size = 0;    ///< batch the request was fulfilled in (0 = none)
  bool cache_hit = false;
  uint64_t queue_us = 0;
  uint64_t encode_us = 0;
  uint64_t score_us = 0;
  uint64_t total_us = 0;
  std::string verdict;   ///< top-1 result name ("" when none)
  bool ok = true;
  std::string status;    ///< "ok" or the error message
  // Routing story, filled by telekit_router (attempts > 0 marks a routed
  // event; serve-side events leave these at their defaults and do not
  // serialize them).
  std::string replica;   ///< replica that answered ("" when none did)
  int attempts = 0;      ///< forwarding attempts (first try + retries + hedge)
  std::string hedge;     ///< "" (not hedged) | "won" | "lost"

  /// Trace ids serialize as 16-hex strings (JSON numbers are doubles and
  /// cannot carry 64 bits exactly).
  JsonValue ToJson() const;
  /// Strict parse of ToJson()'s shape — the NDJSON sink round-trips
  /// through this. False on missing/mistyped fields.
  static bool FromJson(const JsonValue& value, WideEvent* out);
};

/// Bounded ring of wide events with an optional NDJSON file sink,
/// queryable via /requestz (JSON) and /tracez (Chrome trace). One
/// process-global instance so the serve engine can record from any
/// completion path without plumbing. Thread-safe; Record is O(1) plus one
/// formatted write when a sink is attached.
class RequestLog {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  static RequestLog& Global();

  explicit RequestLog(size_t capacity = kDefaultCapacity);

  void Record(WideEvent event);

  /// Attaches (append mode) or, with "", detaches the NDJSON sink. Events
  /// are flushed per record so a crash loses at most the in-flight line.
  /// False when the file cannot be opened.
  bool SetSinkFile(const std::string& path);
  std::string sink_path() const;

  struct Filter {
    uint64_t trace_id = 0;  ///< 0 = any
    std::string op;         ///< "" = any
    double min_ms = 0.0;    ///< keep events with total >= this
    size_t limit = 100;     ///< newest-first cap
  };

  /// Matching events, newest first.
  std::vector<WideEvent> Query(const Filter& filter) const;

  /// GET /requestz?trace_id=<hex>&op=rca&min_ms=5&limit=50.
  /// Malformed trace_id/min_ms/limit -> 400 JSON error.
  HttpResponse HandleQuery(const HttpRequest& request) const;

  /// GET /tracez, same filters as /requestz: the matching events as a
  /// Chrome trace (chrome://tracing, Perfetto), one lane per event with
  /// "<op>/request", "<op>/queue", "<op>/encode" and "<op>/score" slices
  /// placed on the TraceNowUs() clock; zero-length stages are left out.
  HttpResponse HandleTraceQuery(const HttpRequest& request) const;

  size_t size() const;
  uint64_t total_recorded() const;
  void Reset();  ///< clears the ring and counters; keeps the sink

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<WideEvent> ring_;
  size_t head_ = 0;  // next overwrite slot once full
  uint64_t total_recorded_ = 0;
  std::ofstream sink_;
  std::string sink_path_;
};

/// Latest exemplar per (histogram, bucket): the most recent trace id that
/// landed in each latency bucket, attached to `_bucket` lines in the
/// Prometheus exposition as
///
///   telekit_x_bucket{le="25.1"} 93 # {trace_id="4fca..."} 23.7 1754600000
///
/// so a scrape that shows a slow bucket links directly to a replayable
/// trace in /requestz. Thread-safe; Record is one map upsert.
class ExemplarStore {
 public:
  static ExemplarStore& Global();

  struct Exemplar {
    uint64_t trace_id = 0;
    double value_ms = 0.0;
    double unix_s = 0.0;  ///< wall-clock seconds (Prometheus timestamp)
  };

  /// Latest-wins upsert into the bucket of `histogram_name` that contains
  /// `value_ms` (same bucketing as Histogram).
  void Record(const std::string& histogram_name, double value_ms,
              uint64_t trace_id);

  /// Exemplar for the bucket with inclusive upper bound `le_ms`; false
  /// when that bucket has seen no exemplar.
  bool Find(const std::string& histogram_name, double le_ms,
            Exemplar* out) const;

  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::map<double, Exemplar>> exemplars_;
};

}  // namespace obs
}  // namespace telekit

#endif  // TELEKIT_OBS_REQUESTLOG_H_
