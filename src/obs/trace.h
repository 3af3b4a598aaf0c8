#ifndef TELEKIT_OBS_TRACE_H_
#define TELEKIT_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace telekit {
namespace obs {

/// One completed span, in Chrome trace_event "complete event" form.
struct TraceEvent {
  std::string name;
  uint64_t start_us = 0;  // since process start
  uint64_t dur_us = 0;
  int depth = 0;  // nesting depth at the time the span opened
};

/// Per-name aggregate over all completed spans of that name.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_us = 0;
  /// Time not covered by child spans (total minus direct children).
  uint64_t self_us = 0;
  uint64_t max_us = 0;
};

/// Collects completed spans. Aggregation (per-name totals) is always on;
/// full event recording — the Chrome trace — is opt-in via set_recording()
/// because long training runs would otherwise accumulate unbounded event
/// vectors. Recording stops at kMaxEvents; further spans are counted in
/// dropped_events (surfaced in AggregateJson) and the first drop logs one
/// WARNING so saturated traces are never mistaken for complete ones.
class TraceCollector {
 public:
  static TraceCollector& Global();

  bool recording() const { return recording_; }
  void set_recording(bool on) { recording_ = on; }

  void Record(const std::string& name, uint64_t start_us, uint64_t dur_us,
              uint64_t child_us, int depth);

  std::map<std::string, SpanStats> Aggregate() const;
  size_t NumEvents() const;
  /// Spans that arrived while recording was on but the buffer was full.
  uint64_t NumDropped() const;

  /// Chrome trace_event JSON array: [{name, ph:"X", ts, dur, pid, tid}].
  /// Load via chrome://tracing or https://ui.perfetto.dev.
  JsonValue TraceEventsJson() const;
  /// {name: {count, total_ms, self_ms, mean_ms, max_ms}} sorted by name,
  /// plus a top-level "dropped_events" number.
  JsonValue AggregateJson() const;

  /// Drops all events, aggregates, and the drop counter (recording flag is
  /// left unchanged).
  void Reset();

  /// Test hook: shrink the recording capacity (Reset() is recommended
  /// first; the default is kMaxEvents).
  void set_max_events(size_t max_events);

  static constexpr size_t kMaxEvents = 200000;

 private:
  TraceCollector() = default;

  mutable std::mutex mutex_;
  bool recording_ = false;
  size_t max_events_ = kMaxEvents;
  std::vector<TraceEvent> events_;
  std::map<std::string, SpanStats> aggregate_;
  uint64_t dropped_events_ = 0;
};

/// RAII tracing span. Spans nest: each thread keeps a span stack, the
/// recorded depth reflects it, and on close a span reports its duration to
/// its parent so per-name aggregates can split total vs self time.
///
///   void Train() {
///     obs::Span span("train/retrain");
///     ...
///   }
///
/// Cost when recording is off: two steady_clock reads plus one mutex-guarded
/// aggregate update per span — fine for per-step granularity, too heavy for
/// per-op granularity (use counters there).
class Span {
 public:
  explicit Span(std::string name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Microseconds since the span opened.
  uint64_t ElapsedUs() const;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  uint64_t start_us_;
  int depth_;
  uint64_t child_us_ = 0;  // filled in by closing children
  Span* parent_;
};

/// Microseconds since process start (shared epoch for all trace events).
uint64_t TraceNowUs();

// ---------------------------------------------------------------------------
// Request-scoped tracing
// ---------------------------------------------------------------------------

/// Fresh process-unique 64-bit trace id (never 0): a seeded counter passed
/// through a SplitMix64 finalizer, so ids are unguessable-looking but
/// deterministic per process given arrival order.
uint64_t NextTraceId();

/// 16-lowercase-hex-digit rendering — the wire form of a trace id (JSON
/// numbers are doubles and cannot carry 64 bits exactly).
std::string TraceIdToHex(uint64_t trace_id);
/// Parses 1-16 hex digits; false (out unspecified) on anything else.
bool ParseTraceIdHex(const std::string& text, uint64_t* out);

}  // namespace obs
}  // namespace telekit

/// Opens a span for the rest of the enclosing scope.
#define TELEKIT_SPAN_CONCAT_INNER(a, b) a##b
#define TELEKIT_SPAN_CONCAT(a, b) TELEKIT_SPAN_CONCAT_INNER(a, b)
#define TELEKIT_SPAN(name) \
  ::telekit::obs::Span TELEKIT_SPAN_CONCAT(telekit_span_, __LINE__)(name)

#endif  // TELEKIT_OBS_TRACE_H_
