#include "serve/engine.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/requestlog.h"
#include "obs/spanstore.h"
#include "obs/trace.h"
#include "tensor/compute_pool.h"

namespace telekit {
namespace serve {

namespace {

struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Counter& rejected;
  obs::Counter& deadline_exceeded;
  obs::Counter& slow_requests;
  /// Requests whose effective encode precision resolved to int8.
  obs::Counter& int8_requests;
  obs::Gauge& queue_depth;
  obs::Histogram& queue_ms;
  obs::Histogram& encode_ms;
  obs::Histogram& request_ms;
  // Per-TaskOp split (serve/<op>/...) so mixed traffic — e.g. the stream
  // pipeline's rca/eap/fct fan-out — stays attributable per task in the
  // Prometheus exposition. Indexed by static_cast<int>(TaskOp).
  obs::Counter* op_requests[kNumTaskOps];
  obs::Counter* op_errors[kNumTaskOps];
  obs::Histogram* op_request_ms[kNumTaskOps];

  void RecordRequest(TaskOp op, double total_ms, bool ok) {
    requests.Increment();
    request_ms.Observe(total_ms);
    const int i = static_cast<int>(op);
    op_requests[i]->Increment();
    op_request_ms[i]->Observe(total_ms);
    if (!ok) {
      errors.Increment();
      op_errors[i]->Increment();
    }
  }

  static ServeMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ServeMetrics m = [&reg] {
      ServeMetrics metrics{
          reg.GetCounter("serve/requests"),
          reg.GetCounter("serve/errors"),
          reg.GetCounter("serve/rejected"),
          reg.GetCounter("serve/deadline_exceeded"),
          reg.GetCounter("serve/slow_requests"),
          reg.GetCounter("serve/precision_int8_requests"),
          reg.GetGauge("serve/queue_depth"),
          reg.GetHistogram("serve/queue_ms"),
          reg.GetHistogram("serve/encode_ms"),
          reg.GetHistogram("serve/request_ms"),
          {},
          {},
          {},
      };
      for (TaskOp op :
           {TaskOp::kEncode, TaskOp::kRca, TaskOp::kEap, TaskOp::kFct,
            TaskOp::kRetrieve, TaskOp::kTroubleshoot}) {
        const int i = static_cast<int>(op);
        metrics.op_requests[i] =
            &reg.GetCounter("serve/" + TaskOpName(op) + "/requests");
        metrics.op_errors[i] =
            &reg.GetCounter("serve/" + TaskOpName(op) + "/errors");
        metrics.op_request_ms[i] =
            &reg.GetHistogram("serve/" + TaskOpName(op) + "/request_ms");
      }
      return metrics;
    }();
    return m;
  }
};

double MsSince(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

uint64_t MsToUs(double ms) {
  return ms > 0.0 ? static_cast<uint64_t>(ms * 1000.0) : 0;
}

/// When the request crossed the slow threshold: one WARN line with the
/// full per-stage breakdown. Its timing is in the request log either way,
/// where /tracez?min_ms= finds it.
void WarnIfSlow(double slow_request_ms, const Request& request,
                const Response& response) {
  if (slow_request_ms <= 0.0 || response.total_ms < slow_request_ms) return;
  ServeMetrics::Get().slow_requests.Increment();
  TELEKIT_LOG(WARN) << "slow request"
                    << obs::F("trace", obs::TraceIdToHex(response.trace_id))
                    << obs::F("op", TaskOpName(request.op))
                    << obs::F("total_ms", response.total_ms)
                    << obs::F("queue_ms", response.queue_ms)
                    << obs::F("batch_ms", response.batch_ms)
                    << obs::F("encode_ms", response.encode_ms)
                    << obs::F("score_ms", response.score_ms)
                    << obs::F("cache_hit", response.cache_hit)
                    << obs::F("status", response.status.ok()
                                       ? "ok"
                                       : response.status.message());
}

/// Distributed-trace spans for one completed request: a "serve/request"
/// span parented to the caller's hop (request.parent_span — the router's
/// attempt span — or a trace root when absent) plus queue/encode/score
/// children reconstructed from the response's stage timings. Recorded on
/// the wall clock so the /tracezd assembler can align this process's
/// spans with the router's and annotate the residual skew.
void RecordServeSpans(const Request& request, const Response& response) {
  auto& store = obs::SpanStore::Global();
  if (!store.enabled()) return;
  const uint64_t total_us = MsToUs(response.total_ms);
  const double start_unix_us = obs::UnixNowUs() -
                               static_cast<double>(total_us);
  obs::SpanRecord root;
  root.trace_id = response.trace_id;
  root.span_id = obs::NextTraceId();
  root.parent_span = request.parent_span;
  root.name = "serve/request";
  root.ok = response.status.ok();
  root.outcome = root.ok ? "ok" : "failed";
  root.start_unix_us = start_unix_us;
  root.dur_us = total_us;
  // Stage children laid back-to-back inside the request window: queued
  // first, then the encode share, with scoring ending at completion.
  const uint64_t queue_us = MsToUs(response.queue_ms);
  const uint64_t encode_us = MsToUs(response.encode_ms);
  const uint64_t score_us = MsToUs(response.score_ms);
  const uint64_t search_us = std::min(MsToUs(response.search_ms), score_us);
  const double score_start =
      start_unix_us + static_cast<double>(total_us - score_us);
  struct Stage {
    const char* name;
    double start;
    uint64_t dur;
  };
  std::vector<Stage> stages = {
      {"serve/queue", start_unix_us, queue_us},
      {"serve/encode", start_unix_us + static_cast<double>(queue_us),
       encode_us},
  };
  // The score window splits per op: the index-backed ops lead with the ANN
  // search ("index/search"), and troubleshoot spends the remainder in the
  // RCA-over-evidence chain ("serve/troubleshoot") — both parented under
  // serve/request so /tracezd shows the retrieve -> diagnose chain.
  if (request.op == TaskOp::kRetrieve ||
      request.op == TaskOp::kTroubleshoot) {
    stages.push_back({"index/search", score_start, search_us});
    if (request.op == TaskOp::kTroubleshoot) {
      stages.push_back({"serve/troubleshoot",
                        score_start + static_cast<double>(search_us),
                        score_us - search_us});
    }
  } else {
    stages.push_back({"serve/score", score_start, score_us});
  }
  for (const Stage& stage : stages) {
    if (stage.dur == 0) continue;
    obs::SpanRecord child;
    child.trace_id = response.trace_id;
    child.span_id = obs::NextTraceId();
    child.parent_span = root.span_id;
    child.name = stage.name;
    child.ok = root.ok;
    child.start_unix_us = stage.start;
    child.dur_us = stage.dur;
    store.Record(std::move(child));
  }
  store.Record(std::move(root));
}

/// One wide event per completed request, whichever path fulfilled it
/// (worker, deadline expiry, synchronous Process). The ring backs
/// /requestz; an attached --request-log sink persists the same record.
/// The same hook records the request's distributed-trace spans — both
/// fire once per completion, on every fulfilment path.
void RecordWideEvent(const Request& request, const Response& response) {
  RecordServeSpans(request, response);
  obs::WideEvent event;
  event.trace_id = response.trace_id;
  event.op = TaskOpName(request.op);
  event.cache_hit = response.cache_hit;
  event.queue_us = MsToUs(response.queue_ms);
  event.encode_us = MsToUs(response.encode_ms);
  event.score_us = MsToUs(response.score_ms);
  event.total_us = MsToUs(response.total_ms);
  event.ok = response.status.ok();
  event.status = event.ok ? "ok" : response.status.message();
  if (!response.results.empty()) event.verdict = response.results[0].name;
  obs::RequestLog::Global().Record(std::move(event));
  // Exemplars tie the latency histograms' buckets back to this trace id,
  // so a /metrics scrape showing a slow bucket resolves via /requestz.
  obs::ExemplarStore::Global().Record("serve/request_ms", response.total_ms,
                                      response.trace_id);
  obs::ExemplarStore::Global().Record(
      "serve/" + TaskOpName(request.op) + "/request_ms", response.total_ms,
      response.trace_id);
}

}  // namespace

std::string PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kDefault:
      return "default";
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "unknown";
}

std::string TaskOpName(TaskOp op) {
  switch (op) {
    case TaskOp::kEncode:
      return "encode";
    case TaskOp::kRca:
      return "rca";
    case TaskOp::kEap:
      return "eap";
    case TaskOp::kFct:
      return "fct";
    case TaskOp::kRetrieve:
      return "retrieve";
    case TaskOp::kTroubleshoot:
      return "troubleshoot";
  }
  return "unknown";
}

ServeEngine::ServeEngine(const core::ServiceEncoder* service,
                         const EngineOptions& options,
                         const core::TextEncoder* int8_encoder,
                         const index::CorpusIndex* corpus_index)
    : service_(service),
      int8_encoder_(int8_encoder),
      corpus_index_(corpus_index),
      options_(options),
      cache_(std::max<size_t>(options.cache_capacity, 1),
             std::max(options.cache_shards, 1)),
      queue_(options.queue_capacity) {
  TELEKIT_CHECK(service_ != nullptr);
  TELEKIT_CHECK_GE(options_.num_workers, 0);
  if (options_.compute_threads > 0) {
    tensor::SetComputeThreads(options_.compute_threads);
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServeEngine::~ServeEngine() { Stop(); }

Status ServeEngine::LoadCatalog(TaskOp op,
                                const std::vector<std::string>& names) {
  if (op == TaskOp::kEncode || op == TaskOp::kRetrieve ||
      op == TaskOp::kTroubleshoot) {
    return Status::InvalidArgument(TaskOpName(op) + " takes no catalogue");
  }
  if (names.empty()) {
    return Status::InvalidArgument("empty catalogue for op " + TaskOpName(op));
  }
  TELEKIT_SPAN("serve/load_catalog");
  Catalog catalog;
  catalog.names = names;
  // One EncodeInputs call over the whole catalogue; also warms the cache so
  // queries that coincide with catalogue entries hit immediately.
  std::vector<text::EncodedInput> inputs;
  inputs.reserve(names.size());
  std::vector<const text::EncodedInput*> ptrs;
  ptrs.reserve(names.size());
  for (const std::string& name : names) {
    inputs.push_back(
        service_->BuildInput(name, core::ServiceMode::kEntityNoAttr));
    ptrs.push_back(&inputs.back());
  }
  catalog.embeddings = service_->EncodeInputs(ptrs);
  for (size_t i = 0; i < catalog.names.size(); ++i) {
    catalog.by_name[catalog.names[i]] = i;
  }
  if (options_.enable_cache) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      cache_.Put(EmbeddingCache::HashIds(inputs[i].ids, inputs[i].length),
                 catalog.embeddings[i]);
    }
  }
  TELEKIT_LOG(INFO) << "serve: loaded catalogue op=" << TaskOpName(op)
                    << " size=" << catalog.names.size();
  {
    std::unique_lock<std::shared_mutex> lock(catalogs_mutex_);
    catalogs_[op] = std::move(catalog);
  }
  return Status::Ok();
}

size_t ServeEngine::CatalogSize(TaskOp op) const {
  std::shared_lock<std::shared_mutex> lock(catalogs_mutex_);
  auto it = catalogs_.find(op);
  return it == catalogs_.end() ? 0 : it->second.names.size();
}

void ServeEngine::Submit(Request request, Completion done,
                         double max_block_ms) {
  auto pending = std::make_unique<Pending>();
  if (request.trace_id == 0) request.trace_id = obs::NextTraceId();
  pending->request = std::move(request);
  pending->done = std::move(done);
  pending->enqueued = Clock::now();
  if (pending->request.deadline_ms > 0.0) {
    pending->deadline =
        pending->enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                pending->request.deadline_ms));
  }
  const bool pushed =
      max_block_ms > 0.0
          ? queue_.PushBlocking(std::move(pending),
                                static_cast<int64_t>(max_block_ms * 1000.0))
          : queue_.Push(std::move(pending));
  if (pushed) {
    ServeMetrics::Get().queue_depth.Set(static_cast<double>(queue_.size()));
    return;
  }
  // Push leaves `pending` intact on failure: reject here so the request is
  // still answered.
  ServeMetrics::Get().rejected.Increment();
  Response response;
  response.trace_id = pending->request.trace_id;
  response.status =
      Status::Unavailable(stopped_.load() ? "engine stopped"
                                          : "serve queue full");
  pending->done(std::move(response));
}

std::future<Response> ServeEngine::Submit(Request request,
                                          double max_block_ms) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  Submit(
      std::move(request),
      [promise](Response response) { promise->set_value(std::move(response)); },
      max_block_ms);
  return future;
}

void ServeEngine::WorkerLoop() {
  ServeMetrics& metrics = ServeMetrics::Get();
  while (std::optional<std::unique_ptr<Pending>> popped = queue_.Pop()) {
    Pending& pending = **popped;
    metrics.queue_depth.Set(static_cast<double>(queue_.size()));
    const Clock::time_point started = Clock::now();
    const double queue_ms = MsSince(pending.enqueued, started);
    if (pending.deadline == Clock::time_point() ||
        started <= pending.deadline) {
      metrics.queue_ms.Observe(queue_ms);
      pending.done(Run(pending.request, started, queue_ms));
      continue;
    }
    // The deadline lapsed while queued: fail without encoding.
    metrics.deadline_exceeded.Increment();
    Response response;
    response.status = Status::DeadlineExceeded(
        "deadline lapsed after " + std::to_string(queue_ms) + " ms in queue");
    response.trace_id = pending.request.trace_id;
    response.queue_ms = queue_ms;
    response.total_ms = queue_ms;
    // A lapsed deadline is a slow request by definition; its wide event
    // (ok=false) shows where the time went. It is also a served error for
    // the availability SLO — per-op requests counters only count scored
    // requests, so errors may outpace them (the burn computation clamps
    // for that).
    metrics.errors.Increment();
    metrics.op_errors[static_cast<int>(pending.request.op)]->Increment();
    WarnIfSlow(options_.slow_request_ms, pending.request, response);
    RecordWideEvent(pending.request, response);
    pending.done(std::move(response));
  }
}

Response ServeEngine::Process(const Request& request) const {
  return Run(request, Clock::now(), /*queue_ms=*/0.0);
}

Response ServeEngine::Run(const Request& request, Clock::time_point started,
                          double queue_ms) const {
  ServeMetrics& metrics = ServeMetrics::Get();
  Response response;
  response.trace_id =
      request.trace_id != 0 ? request.trace_id : obs::NextTraceId();
  response.queue_ms = queue_ms;

  // Fail int8 requests early when the engine has no quantized encoder —
  // they must not reach the encode stage.
  const Precision precision = EffectivePrecision(request);
  if (precision == Precision::kInt8) {
    metrics.int8_requests.Increment();
    if (int8_encoder_ == nullptr) {
      response.status = Status::FailedPrecondition(
          "precision int8 requested but this model has no quantized "
          "encoder");
      response.batch_ms = MsSince(started, Clock::now());
      response.total_ms = queue_ms + response.batch_ms;
      metrics.RecordRequest(request.op, response.total_ms, /*ok=*/false);
      RecordWideEvent(request, response);
      return response;
    }
  }

  // Tokenize + prompt-build (const tokenizer: safe concurrently). The
  // cache key is salted by precision so an int8 vector can never be
  // served to an fp32 request (or vice versa).
  const text::EncodedInput input =
      service_->BuildInput(request.text, request.mode);
  const CacheKey key = EmbeddingCache::HashIds(
      input.ids, input.length, precision == Precision::kInt8 ? 1 : 0);
  std::vector<float> vector;
  if (options_.enable_cache && cache_.Get(key, &vector)) {
    response.cache_hit = true;
  } else {
    obs::ScopedTimer timer(metrics.encode_ms);
    vector = precision == Precision::kInt8
                 ? int8_encoder_->Encode(input)
                 : std::move(service_->EncodeInputs({&input})[0]);
    response.encode_ms = timer.ElapsedMs();
    if (options_.enable_cache) cache_.Put(key, vector);
  }
  const Clock::time_point score_start = Clock::now();
  FinishRequest(request, std::move(vector), &response);
  response.score_ms = MsSince(score_start, Clock::now());
  response.batch_ms = MsSince(started, Clock::now());
  response.total_ms = queue_ms + response.batch_ms;
  metrics.RecordRequest(request.op, response.total_ms, response.status.ok());
  WarnIfSlow(options_.slow_request_ms, request, response);
  RecordWideEvent(request, response);
  return response;
}

Precision ServeEngine::EffectivePrecision(const Request& request) const {
  const Precision p = request.precision != Precision::kDefault
                          ? request.precision
                          : options_.default_precision;
  return p == Precision::kDefault ? Precision::kFp32 : p;
}

void ServeEngine::FinishRequest(const Request& request,
                                std::vector<float> vector,
                                Response* response) const {
  if (request.op == TaskOp::kEncode) {
    response->vector = std::move(vector);
    response->status = Status::Ok();
    return;
  }
  if (request.op == TaskOp::kRetrieve ||
      request.op == TaskOp::kTroubleshoot) {
    if (corpus_index_ == nullptr) {
      response->status = Status::FailedPrecondition(
          "no retrieval index loaded for op " + TaskOpName(request.op));
      return;
    }
    const int k = request.top_k > 0 ? request.top_k : 5;
    const Clock::time_point search_start = Clock::now();
    std::vector<index::ScoredDoc> hits =
        corpus_index_->Search(vector.data(), k, request.ef_search);
    response->search_ms = MsSince(search_start, Clock::now());
    response->docs.reserve(hits.size());
    for (const index::ScoredDoc& hit : hits) {
      const synth::RetrievalDoc& doc = corpus_index_->doc(hit.doc_id);
      response->docs.push_back({hit.doc_id, doc.title, doc.kind, hit.score});
    }
    if (request.op == TaskOp::kRetrieve) {
      response->status = Status::Ok();
      return;
    }
    // Troubleshoot: rank root-cause candidates over the union of the
    // retrieved docs' evidence alarms (the TeleDoCTR retrieve-then-diagnose
    // chain). Falls back to the whole RCA catalogue when the retrieved
    // evidence resolves to nothing.
    std::shared_lock<std::shared_mutex> lock(catalogs_mutex_);
    auto rca = catalogs_.find(TaskOp::kRca);
    if (rca == catalogs_.end()) {
      response->status = Status::FailedPrecondition(
          "troubleshoot requires the rca catalogue");
      return;
    }
    const Catalog& catalog = rca->second;
    std::vector<std::string> names;
    std::vector<std::vector<float>> embeddings;
    for (const index::ScoredDoc& hit : hits) {
      for (const std::string& alarm :
           corpus_index_->doc(hit.doc_id).evidence_alarms) {
        auto entry = catalog.by_name.find(alarm);
        if (entry == catalog.by_name.end()) continue;
        if (std::find(names.begin(), names.end(), alarm) != names.end()) {
          continue;
        }
        names.push_back(alarm);
        embeddings.push_back(catalog.embeddings[entry->second]);
      }
    }
    response->results =
        names.empty()
            ? tasks::TopKByCosine(vector, catalog.names, catalog.embeddings,
                                  request.top_k)
            : tasks::TopKByCosine(vector, names, embeddings, request.top_k);
    response->status = Status::Ok();
    return;
  }
  // Shared lock held across the scoring: LoadCatalog may replace this
  // Catalog (destroying the vectors we read) at any time.
  std::shared_lock<std::shared_mutex> lock(catalogs_mutex_);
  auto it = catalogs_.find(request.op);
  if (it == catalogs_.end()) {
    response->status = Status::FailedPrecondition(
        "no catalogue loaded for op " + TaskOpName(request.op));
    return;
  }
  response->results = tasks::TopKByCosine(vector, it->second.names,
                                          it->second.embeddings,
                                          request.top_k);
  response->status = Status::Ok();
}

void ServeEngine::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // With num_workers == 0 (or a race against Close) items may still sit in
  // the queue; fail them so every submitted request is answered.
  while (std::optional<std::unique_ptr<Pending>> remainder = queue_.Pop()) {
    Pending& pending = **remainder;
    Response response;
    response.trace_id = pending.request.trace_id;
    response.status = Status::Unavailable("engine stopped");
    response.queue_ms = MsSince(pending.enqueued, Clock::now());
    response.total_ms = response.queue_ms;
    pending.done(std::move(response));
  }
  ServeMetrics::Get().queue_depth.Set(0.0);
}

EngineStats ServeEngine::GetStats() const {
  ServeMetrics& metrics = ServeMetrics::Get();
  EngineStats stats;
  stats.queue_depth = queue_.size();
  stats.queue_capacity = options_.queue_capacity;
  stats.num_workers = options_.num_workers;
  stats.busy_workers =
      stopped_.load() ? 0
                      : options_.num_workers -
                            static_cast<int>(queue_.parked());
  stats.requests = metrics.requests.value();
  stats.rejected = metrics.rejected.value();
  stats.deadline_exceeded = metrics.deadline_exceeded.value();
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_hit_rate = cache_.HitRate();
  stats.cache_size = cache_.size();
  stats.saturated = stats.queue_depth >= stats.queue_capacity;
  return stats;
}

}  // namespace serve
}  // namespace telekit
