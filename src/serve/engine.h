#ifndef TELEKIT_SERVE_ENGINE_H_
#define TELEKIT_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/service.h"
#include "index/corpus_index.h"
#include "serve/embedding_cache.h"
#include "serve/work_queue.h"
#include "tasks/scoring.h"

namespace telekit {
namespace serve {

/// The online fault-analysis operations of the paper's deployment
/// (Sec. V): raw service-vector encoding, nearest-neighbour retrieval
/// against per-task catalogues for root-cause analysis, alarm/event
/// association prediction, and fault-chain tracing — plus the two
/// index-backed retrieval workloads (DESIGN.md §12): ANN document
/// retrieval over the synthetic corpus and the TeleDoCTR-style
/// troubleshoot chain (retrieve context docs, then RCA over the union of
/// their evidence).
enum class TaskOp { kEncode, kRca, kEap, kFct, kRetrieve, kTroubleshoot };

/// Number of TaskOp values (metrics arrays are indexed by the op).
inline constexpr int kNumTaskOps = 6;

/// Display/protocol name ("encode", "rca", "eap", "fct", "retrieve",
/// "troubleshoot").
std::string TaskOpName(TaskOp op);

/// Numeric precision of the encode forward pass. kDefault defers to the
/// engine's EngineOptions::default_precision; kInt8 routes the request
/// through the bundle's QuantizedEncoder (int8 GEMMs with fp32 dequant,
/// DESIGN.md §3) and fails FAILED_PRECONDITION when the engine has none.
enum class Precision { kDefault, kFp32, kInt8 };

/// Display/protocol name ("default", "fp32", "int8").
std::string PrecisionName(Precision precision);

/// One inference request.
struct Request {
  TaskOp op = TaskOp::kEncode;
  /// Target surface (alarm name, entity name, log text...).
  std::string text;
  /// Service-delivery format for prompt construction (Sec. V-A3).
  core::ServiceMode mode = core::ServiceMode::kEntityNoAttr;
  /// Model variant this request targets ("" = the host's default). The
  /// engine itself is single-model; serve::ModelHost resolves this field
  /// to a bundle before Submit, and the router forwards it untouched.
  std::string model;
  /// Candidates returned for task ops (<= 0 means the whole catalogue).
  int top_k = 5;
  /// Total time budget inside the engine; 0 disables the deadline.
  /// Requests whose deadline lapses while queued are failed without being
  /// encoded.
  double deadline_ms = 0.0;
  /// Request-scoped trace id: correlates the response, slow-request log
  /// lines, and /tracez entries. 0 means "assign one for me" (Submit and
  /// Process generate an id via obs::NextTraceId()).
  uint64_t trace_id = 0;
  /// Distributed-trace hop parent: the caller-side span (the router's
  /// per-attempt span) this request's serve spans nest under. 0 = this
  /// process is the trace root.
  uint64_t parent_span = 0;
  /// When true the protocol layer echoes the per-stage timing breakdown
  /// in the response JSON. Set by ParseRequest for requests carrying a
  /// "trace" field.
  bool echo_timing = false;
  /// Encode-path precision for this request ("precision" wire field).
  Precision precision = Precision::kDefault;
  /// ANN beam width for retrieve/troubleshoot ("ef_search" wire field);
  /// <= 0 uses the index's constructed default. Ignored by other ops.
  int ef_search = 0;
};

/// One retrieved document in a retrieve/troubleshoot response, resolved to
/// its display handle so the wire layer needs no index access.
struct RetrievedDoc {
  int doc_id = 0;
  std::string title;
  std::string kind;
  float score = 0.0f;
};

/// One inference response.
struct Response {
  Status status;
  /// kEncode: the service vector.
  std::vector<float> vector;
  /// Task ops (rca/eap/fct, and the troubleshoot verdict): ranked
  /// catalogue candidates.
  std::vector<tasks::ScoredCandidate> results;
  /// retrieve/troubleshoot: ANN hits in descending-score order.
  std::vector<RetrievedDoc> docs;
  /// True when the service vector came from the EmbeddingCache.
  bool cache_hit = false;
  /// The trace id of the request this answers (assigned if it carried 0).
  uint64_t trace_id = 0;
  double queue_ms = 0.0;
  /// Time the engine spent running this request after the queue: from the
  /// worker's pop (or the Process call) to fulfilment. Echoed as
  /// `timing.batch_us`.
  double batch_ms = 0.0;
  double encode_ms = 0.0;
  /// Catalogue-scoring time for this request (includes search_ms for the
  /// index-backed ops).
  double score_ms = 0.0;
  /// ANN index search time (retrieve/troubleshoot only).
  double search_ms = 0.0;
  double total_ms = 0.0;
};

/// Engine tuning knobs.
struct EngineOptions {
  int num_workers = 4;
  /// Bounded queue (see WorkQueue): Submit rejects once this many wait.
  size_t queue_capacity = 1024;
  /// Service-vector memoization.
  size_t cache_capacity = 4096;
  int cache_shards = 8;
  bool enable_cache = true;
  /// Requests whose total_ms meets or exceeds this are logged (WARN, with
  /// the per-stage breakdown) and counted in serve/slow_requests. Every
  /// request's timing is in the request log regardless, so
  /// /tracez?min_ms=X shows the slow ones. 0 turns the warning off.
  double slow_request_ms = 0.0;
  /// Intra-op tensor::ComputePool threads (process-wide). > 0 calls
  /// tensor::SetComputeThreads in the engine ctor; <= 0 leaves the
  /// TELEKIT_COMPUTE_THREADS / hardware default untouched.
  int compute_threads = 0;
  /// Precision used when a request carries Precision::kDefault
  /// (telekit_serve --precision). kDefault here means kFp32.
  Precision default_precision = Precision::kFp32;
};

/// Point-in-time engine counters for /statusz and /readyz.
struct EngineStats {
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  int num_workers = 0;
  /// Workers not parked on an empty queue (the rest wait for work).
  int busy_workers = 0;
  uint64_t requests = 0;
  uint64_t rejected = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  size_t cache_size = 0;
  /// True when the queue is at capacity: the next Submit would be rejected.
  bool saturated = false;
};

/// Multi-threaded inference engine over one ServiceEncoder:
///
///   Submit() -> bounded deadline queue -> worker pool, one request per
///   pop -> tokenize -> EmbeddingCache probe -> encoder forward on a miss
///   -> per-task catalogue scoring -> the request's completion callback
///
/// A worker runs the same per-request code as Process, then calls the
/// request's callback on its own thread, so a caller such as the NDJSON
/// server renders and sends the reply there without another thread hop.
///
/// Every stage reports to telekit::obs (serve/* metrics and spans).
///
/// Thread-safety: Submit/Process/LoadCatalog are safe from any thread;
/// a catalogue may be (re)loaded while requests for other ops are in
/// flight. LoadCatalog for an op must still complete before requests for
/// *that* op are submitted (they fail FAILED_PRECONDITION otherwise). The
/// ServiceEncoder (and the model behind it) must stay alive and unmodified
/// for the engine's lifetime.
class ServeEngine {
 public:
  /// `service` is borrowed. With num_workers == 0 the engine never drains
  /// its queue (useful for deterministic backpressure tests); Stop() then
  /// fails the queued requests as Unavailable.
  ///
  /// `int8_encoder` (borrowed, may be null) is the quantized twin of the
  /// service encoder used for Precision::kInt8 requests; it must encode
  /// the same inputs to the same dimensionality. Null fails int8 requests
  /// with FAILED_PRECONDITION.
  ///
  /// `corpus_index` (borrowed, may be null) backs the retrieve and
  /// troubleshoot ops; null fails those ops with FAILED_PRECONDITION. It
  /// must be immutable for the engine's lifetime (hot reload swaps the
  /// whole bundle — engine and index together — rather than mutating it).
  ServeEngine(const core::ServiceEncoder* service,
              const EngineOptions& options,
              const core::TextEncoder* int8_encoder = nullptr,
              const index::CorpusIndex* corpus_index = nullptr);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Registers the candidate catalogue for a task op, encoding every name
  /// through ServiceEncoder::EncodeInputs (and warming the cache). Replaces
  /// any previous catalogue for that op.
  Status LoadCatalog(TaskOp op, const std::vector<std::string>& names);

  /// Number of candidates in the catalogue for `op` (0 when absent).
  size_t CatalogSize(TaskOp op) const;

  /// Receives a submitted request's response. It must not throw.
  using Completion = std::function<void(Response)>;

  /// Enqueues a request. `done` is called exactly once: on the worker that
  /// ran the request or lapsed its deadline; on the calling thread, before
  /// Submit returns, when the queue is full or the engine stopped
  /// (Unavailable); or on the thread calling Stop() for a request still
  /// queued then (Unavailable).
  ///
  /// `max_block_ms` is the backpressure hook for streaming ingestion: when
  /// > 0 and the bounded queue is full, Submit blocks up to that long for
  /// a worker to make room before rejecting — so a saturated engine
  /// throttles the producer instead of forcing it to buffer or shed. 0
  /// keeps the historical fail-fast behaviour.
  void Submit(Request request, Completion done, double max_block_ms = 0.0);

  /// Submit with a future in place of the callback; the future is always
  /// fulfilled.
  std::future<Response> Submit(Request request, double max_block_ms = 0.0);

  /// Synchronous path: the request runs on the calling thread, with no
  /// queue. The load generator's single-thread baseline (with
  /// enable_cache = false).
  Response Process(const Request& request) const;

  /// Stops workers and fails everything still queued. Idempotent; also
  /// called by the destructor.
  void Stop();

  /// Point-in-time counters for the admin endpoints; safe from any thread.
  EngineStats GetStats() const;

  const EngineOptions& options() const { return options_; }
  const EmbeddingCache& cache() const { return cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request request;
    Completion done;
    Clock::time_point enqueued;
    /// Zero time_point when the request carries no deadline.
    Clock::time_point deadline;
  };

  struct Catalog {
    std::vector<std::string> names;
    std::vector<std::vector<float>> embeddings;
    /// name -> index into names/embeddings; troubleshoot restricts RCA
    /// scoring to the retrieved docs' evidence via this map.
    std::map<std::string, size_t> by_name;
  };

  void WorkerLoop();
  /// The per-request path of Process and the workers: tokenize, cache
  /// probe, encode on a miss, score. `started` is when the request left
  /// the queue (or entered Process) and `queue_ms` how long it waited.
  Response Run(const Request& request, Clock::time_point started,
               double queue_ms) const;
  /// Scores a vector against the op's catalogue into `response`.
  void FinishRequest(const Request& request, std::vector<float> vector,
                     Response* response) const;

  /// The request's effective precision under this engine's default.
  Precision EffectivePrecision(const Request& request) const;

  const core::ServiceEncoder* service_;
  const core::TextEncoder* int8_encoder_;
  const index::CorpusIndex* corpus_index_;
  EngineOptions options_;
  mutable EmbeddingCache cache_;
  WorkQueue<std::unique_ptr<Pending>> queue_;
  /// Exclusive in LoadCatalog, shared in FinishRequest/CatalogSize: a
  /// catalogue reload must not race workers scoring against the map.
  mutable std::shared_mutex catalogs_mutex_;
  std::map<TaskOp, Catalog> catalogs_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace serve
}  // namespace telekit

#endif  // TELEKIT_SERVE_ENGINE_H_
