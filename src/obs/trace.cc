#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "obs/log.h"

namespace telekit {
namespace obs {

namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

thread_local Span* g_current_span = nullptr;
thread_local int g_span_depth = 0;

}  // namespace

uint64_t TraceNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::Record(const std::string& name, uint64_t start_us,
                            uint64_t dur_us, uint64_t child_us, int depth) {
  bool first_drop = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SpanStats& stats = aggregate_[name];
    stats.count += 1;
    stats.total_us += dur_us;
    stats.self_us += dur_us > child_us ? dur_us - child_us : 0;
    stats.max_us = std::max(stats.max_us, dur_us);
    if (recording_) {
      if (events_.size() < max_events_) {
        events_.push_back(TraceEvent{name, start_us, dur_us, depth});
      } else {
        first_drop = dropped_events_ == 0;
        ++dropped_events_;
      }
    }
  }
  // Log outside the lock: a sink is free to open spans of its own.
  if (first_drop) {
    TELEKIT_LOG(WARN) << "trace recording saturated; dropping further events"
                      << F("max_events", max_events_) << F("span", name);
  }
}

std::map<std::string, SpanStats> TraceCollector::Aggregate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return aggregate_;
}

size_t TraceCollector::NumEvents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

uint64_t TraceCollector::NumDropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_events_;
}

void TraceCollector::set_max_events(size_t max_events) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_events_ = max_events;
}

JsonValue TraceCollector::TraceEventsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::Array();
  for (const TraceEvent& event : events_) {
    JsonValue e = JsonValue::Object();
    e.Set("name", JsonValue(event.name));
    e.Set("ph", JsonValue("X"));
    e.Set("ts", JsonValue(event.start_us));
    e.Set("dur", JsonValue(event.dur_us));
    e.Set("pid", JsonValue(1));
    e.Set("tid", JsonValue(1));
    JsonValue args = JsonValue::Object();
    args.Set("depth", JsonValue(event.depth));
    e.Set("args", std::move(args));
    out.Append(std::move(e));
  }
  return out;
}

JsonValue TraceCollector::AggregateJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::Object();
  for (const auto& [name, stats] : aggregate_) {
    JsonValue s = JsonValue::Object();
    s.Set("count", JsonValue(stats.count));
    s.Set("total_ms", JsonValue(static_cast<double>(stats.total_us) / 1000.0));
    s.Set("self_ms", JsonValue(static_cast<double>(stats.self_us) / 1000.0));
    s.Set("mean_ms",
          JsonValue(stats.count > 0
                        ? static_cast<double>(stats.total_us) /
                              (1000.0 * static_cast<double>(stats.count))
                        : 0.0));
    s.Set("max_ms", JsonValue(static_cast<double>(stats.max_us) / 1000.0));
    out.Set(name, std::move(s));
  }
  out.Set("dropped_events", JsonValue(dropped_events_));
  return out;
}

void TraceCollector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  aggregate_.clear();
  dropped_events_ = 0;
}

uint64_t NextTraceId() {
  static std::atomic<uint64_t> counter{
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count())};
  // SplitMix64 finalizer: consecutive counter values map to well-spread
  // ids, and the result is only 0 for one counter value in 2^64.
  uint64_t x = counter.fetch_add(1, std::memory_order_relaxed);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x != 0 ? x : 1;
}

std::string TraceIdToHex(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return std::string(buf);
}

bool ParseTraceIdHex(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

Span::Span(std::string name)
    : name_(std::move(name)),
      start_(std::chrono::steady_clock::now()),
      start_us_(TraceNowUs()),
      depth_(g_span_depth),
      parent_(g_current_span) {
  g_current_span = this;
  ++g_span_depth;
}

uint64_t Span::ElapsedUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

Span::~Span() {
  const uint64_t dur_us = ElapsedUs();
  g_current_span = parent_;
  --g_span_depth;
  if (parent_ != nullptr) parent_->child_us_ += dur_us;
  TraceCollector::Global().Record(name_, start_us_, dur_us, child_us_,
                                  depth_);
}

}  // namespace obs
}  // namespace telekit
