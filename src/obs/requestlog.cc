#include "obs/requestlog.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace telekit {
namespace obs {

namespace {

bool ReadNumber(const JsonValue& value, const char* key, double* out) {
  const JsonValue* field = value.Find(key);
  if (field == nullptr || !field->is_number()) return false;
  *out = field->AsNumber();
  return true;
}

bool ReadString(const JsonValue& value, const char* key, std::string* out) {
  const JsonValue* field = value.Find(key);
  if (field == nullptr || !field->is_string()) return false;
  *out = field->AsString();
  return true;
}

bool ReadBool(const JsonValue& value, const char* key, bool* out) {
  const JsonValue* field = value.Find(key);
  if (field == nullptr || !field->is_bool()) return false;
  *out = field->AsBool();
  return true;
}

double UnixNowS() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// The query both /requestz and /tracez take; false with a 400 in *error
/// on a malformed trace_id, min_ms or limit.
bool ParseFilter(const HttpRequest& request, RequestLog::Filter* filter,
                 HttpResponse* error) {
  for (const auto& [key, value] : ParseQuery(request.query)) {
    bool ok = true;
    if (key == "trace_id") {
      ok = ParseTraceIdHex(value, &filter->trace_id);
    } else if (key == "op") {
      filter->op = value;
    } else if (key == "min_ms") {
      char* end = nullptr;
      const double ms = std::strtod(value.c_str(), &end);
      ok = !value.empty() && *end == '\0' && ms >= 0.0;
      filter->min_ms = ms;
    } else if (key == "limit") {
      char* end = nullptr;
      const long limit = std::strtol(value.c_str(), &end, 10);
      ok = !value.empty() && *end == '\0' && limit > 0;
      filter->limit = static_cast<size_t>(limit);
    }
    if (!ok) {
      JsonValue body = JsonValue::Object();
      body.Set("error", JsonValue("bad " + key + ": " + value));
      *error = HttpResponse::Json(400, body);
      return false;
    }
  }
  return true;
}

}  // namespace

JsonValue WideEvent::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("t_s", JsonValue(t_s));
  out.Set("trace_id", JsonValue(TraceIdToHex(trace_id)));
  out.Set("op", JsonValue(op));
  out.Set("batch_size", JsonValue(batch_size));
  out.Set("cache_hit", JsonValue(cache_hit));
  out.Set("queue_us", JsonValue(queue_us));
  out.Set("encode_us", JsonValue(encode_us));
  out.Set("score_us", JsonValue(score_us));
  out.Set("total_us", JsonValue(total_us));
  out.Set("verdict", JsonValue(verdict));
  out.Set("ok", JsonValue(ok));
  out.Set("status", JsonValue(status));
  if (attempts > 0) {
    out.Set("replica", JsonValue(replica));
    out.Set("attempts", JsonValue(attempts));
    out.Set("hedge", JsonValue(hedge));
  }
  return out;
}

bool WideEvent::FromJson(const JsonValue& value, WideEvent* out) {
  WideEvent event;
  std::string trace_hex;
  double batch = 0.0;
  double queue = 0.0, encode = 0.0, score = 0.0, total = 0.0;
  if (!ReadNumber(value, "t_s", &event.t_s) ||
      !ReadString(value, "trace_id", &trace_hex) ||
      !ParseTraceIdHex(trace_hex, &event.trace_id) ||
      !ReadString(value, "op", &event.op) ||
      !ReadNumber(value, "batch_size", &batch) ||
      !ReadBool(value, "cache_hit", &event.cache_hit) ||
      !ReadNumber(value, "queue_us", &queue) ||
      !ReadNumber(value, "encode_us", &encode) ||
      !ReadNumber(value, "score_us", &score) ||
      !ReadNumber(value, "total_us", &total) ||
      !ReadString(value, "verdict", &event.verdict) ||
      !ReadBool(value, "ok", &event.ok) ||
      !ReadString(value, "status", &event.status)) {
    return false;
  }
  event.batch_size = static_cast<int>(batch);
  event.queue_us = static_cast<uint64_t>(queue);
  event.encode_us = static_cast<uint64_t>(encode);
  event.score_us = static_cast<uint64_t>(score);
  event.total_us = static_cast<uint64_t>(total);
  // Routing fields ride only on router-recorded events; when present they
  // must parse (and travel together — ToJson writes all three).
  if (value.Find("attempts") != nullptr) {
    double attempts = 0.0;
    if (!ReadNumber(value, "attempts", &attempts) ||
        !ReadString(value, "replica", &event.replica) ||
        !ReadString(value, "hedge", &event.hedge)) {
      return false;
    }
    event.attempts = static_cast<int>(attempts);
  }
  *out = std::move(event);
  return true;
}

RequestLog& RequestLog::Global() {
  static RequestLog* log = new RequestLog();
  return *log;
}

RequestLog::RequestLog(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

void RequestLog::Record(WideEvent event) {
  if (event.t_s == 0.0) {
    event.t_s = static_cast<double>(TraceNowUs()) / 1e6;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_recorded_;
  if (sink_.is_open()) {
    sink_ << event.ToJson().Dump(0) << '\n';
    sink_.flush();
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % ring_.size();
  }
}

bool RequestLog::SetSinkFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_.is_open()) sink_.close();
  sink_path_.clear();
  if (path.empty()) return true;
  sink_.open(path, std::ios::out | std::ios::app);
  if (!sink_.is_open()) {
    TELEKIT_LOG(ERROR) << "request log sink open failed" << F("path", path);
    return false;
  }
  sink_path_ = path;
  return true;
}

std::string RequestLog::sink_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sink_path_;
}

std::vector<WideEvent> RequestLog::Query(const Filter& filter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WideEvent> out;
  const double min_us = filter.min_ms * 1000.0;
  // Walk newest to oldest: the slot before head_ is the newest write.
  for (size_t i = 0; i < ring_.size() && out.size() < filter.limit; ++i) {
    const size_t index =
        (head_ + ring_.size() - 1 - i) % ring_.size();
    const WideEvent& event = ring_[index];
    if (filter.trace_id != 0 && event.trace_id != filter.trace_id) continue;
    if (!filter.op.empty() && event.op != filter.op) continue;
    if (static_cast<double>(event.total_us) < min_us) continue;
    out.push_back(event);
  }
  return out;
}

HttpResponse RequestLog::HandleQuery(const HttpRequest& request) const {
  Filter filter;
  HttpResponse error;
  if (!ParseFilter(request, &filter, &error)) return error;
  const std::vector<WideEvent> events = Query(filter);
  JsonValue out = JsonValue::Object();
  out.Set("total_recorded", JsonValue(total_recorded()));
  out.Set("count", JsonValue(static_cast<uint64_t>(events.size())));
  JsonValue items = JsonValue::Array();
  for (const WideEvent& event : events) items.Append(event.ToJson());
  out.Set("events", std::move(items));
  return HttpResponse::Json(200, out);
}

HttpResponse RequestLog::HandleTraceQuery(const HttpRequest& request) const {
  Filter filter;
  HttpResponse error;
  if (!ParseFilter(request, &filter, &error)) return error;
  const std::vector<WideEvent> events = Query(filter);
  JsonValue slices = JsonValue::Array();
  int lane = 0;
  for (const WideEvent& event : events) {
    ++lane;  // one Chrome "thread" per request keeps its slices together
    // t_s is the completion time; the stages run back to back from the
    // start, queue then encode, with scoring ending at completion.
    const uint64_t end_us = static_cast<uint64_t>(event.t_s * 1e6);
    const uint64_t start_us =
        end_us > event.total_us ? end_us - event.total_us : 0;
    const uint64_t score_us = std::min(event.score_us, event.total_us);
    const struct {
      const char* name;
      uint64_t start;
      uint64_t dur;
    } stages[] = {
        {"request", start_us, event.total_us},
        {"queue", start_us, event.queue_us},
        {"encode", start_us + event.queue_us, event.encode_us},
        {"score", start_us + event.total_us - score_us, score_us},
    };
    for (const auto& stage : stages) {
      if (stage.dur == 0) continue;
      JsonValue slice = JsonValue::Object();
      slice.Set("name", JsonValue(event.op + "/" + stage.name));
      slice.Set("ph", JsonValue("X"));
      slice.Set("ts", JsonValue(stage.start));
      slice.Set("dur", JsonValue(stage.dur));
      slice.Set("pid", JsonValue(1));
      slice.Set("tid", JsonValue(lane));
      JsonValue args = JsonValue::Object();
      args.Set("trace", JsonValue(TraceIdToHex(event.trace_id)));
      args.Set("op", JsonValue(event.op));
      args.Set("total_us", JsonValue(event.total_us));
      args.Set("cache_hit", JsonValue(event.cache_hit));
      args.Set("status", JsonValue(event.status));
      slice.Set("args", std::move(args));
      slices.Append(std::move(slice));
    }
  }
  JsonValue out = JsonValue::Object();
  out.Set("traceEvents", std::move(slices));
  out.Set("displayTimeUnit", JsonValue("ms"));
  out.Set("total_recorded", JsonValue(total_recorded()));
  out.Set("count", JsonValue(static_cast<uint64_t>(events.size())));
  return HttpResponse::Json(200, out);
}

size_t RequestLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

uint64_t RequestLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_recorded_;
}

void RequestLog::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  total_recorded_ = 0;
}

ExemplarStore& ExemplarStore::Global() {
  static ExemplarStore* store = new ExemplarStore();
  return *store;
}

void ExemplarStore::Record(const std::string& histogram_name, double value_ms,
                           uint64_t trace_id) {
  // Key by the containing bucket's inclusive upper bound — the exact
  // double the histogram's JSON/Prometheus export uses for `le`, so the
  // renderer can find this exemplar with a plain map lookup.
  const double le =
      Histogram::BucketUpperMs(Histogram::BucketIndex(value_ms));
  Exemplar exemplar;
  exemplar.trace_id = trace_id;
  exemplar.value_ms = value_ms;
  exemplar.unix_s = UnixNowS();
  std::lock_guard<std::mutex> lock(mutex_);
  exemplars_[histogram_name][le] = exemplar;
}

bool ExemplarStore::Find(const std::string& histogram_name, double le_ms,
                         Exemplar* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto by_name = exemplars_.find(histogram_name);
  if (by_name == exemplars_.end()) return false;
  const auto by_bucket = by_name->second.find(le_ms);
  if (by_bucket == by_name->second.end()) return false;
  *out = by_bucket->second;
  return true;
}

void ExemplarStore::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  exemplars_.clear();
}

}  // namespace obs
}  // namespace telekit
