#ifndef TELEKIT_STREAM_PIPELINE_H_
#define TELEKIT_STREAM_PIPELINE_H_

#include <deque>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "stream/sessionizer.h"
#include "synth/replay.h"

namespace telekit {
namespace stream {

/// Streaming pipeline knobs.
struct PipelineConfig {
  WindowConfig window;
  /// Replay speed in simulated seconds per wall second; infinity (the
  /// default) replays as fast as the engine drains.
  double speedup = synth::SimClock::kInfiniteSpeedup;
  /// Deterministic replay mode: candidates go through the synchronous
  /// ServeEngine::Process path on one thread, which the compute contract
  /// (DESIGN.md §3) makes bit-identical across runs and thread counts.
  /// Async mode rides Submit() to the worker pool with blocking
  /// backpressure instead: higher throughput, and the same verdicts bit
  /// for bit when nothing is shed, since a worker runs Process's code.
  bool deterministic = true;
  /// Async mode: max candidates with unharvested verdicts before
  /// ingestion blocks on the oldest (bounded memory).
  size_t max_in_flight = 32;
  /// Async mode: how long one Submit may block waiting for queue space
  /// before the episode is shed (0 sheds immediately on a full queue).
  double submit_block_ms = 1000.0;
  /// Candidates returned per task op.
  int top_k = 5;
};

/// The analysed outcome of one candidate episode: the query text plus the
/// RCA/EAP/FCT responses. `ok` is false when the engine shed the episode
/// (backpressure under saturation) — the candidate partition is still
/// reported so detection and analysis can be accounted separately.
struct EpisodeVerdict {
  EpisodeCandidate candidate;
  std::string query;
  serve::Response rca;
  serve::Response eap;
  serve::Response fct;
  bool ok = false;
  /// Wall-clock milliseconds from the window flush (the moment the
  /// episode became detectable) to the RCA verdict being available.
  double detect_ms = 0.0;
};

/// End-of-run pipeline accounting.
struct PipelineSummary {
  SessionizerStats sessionizer;
  uint64_t episodes_analysed = 0;
  uint64_t episodes_shed = 0;
  /// Submits that blocked on engine backpressure, and the total time
  /// ingestion spent throttled.
  uint64_t throttled_submits = 0;
  double throttled_ms = 0.0;
  double wall_seconds = 0.0;
  double episodes_per_sec = 0.0;
};

/// Online RCA accuracy accumulator: a verdict scores hit@k when the
/// ground-truth root alarm surface of its majority source episode appears
/// in the top k RCA candidates.
struct HitStats {
  int judged = 0;
  int hit1 = 0;
  int hit3 = 0;

  /// `truth_roots[i]` is the root alarm surface of scheduled episode i.
  void Accumulate(const EpisodeVerdict& verdict,
                  const std::vector<std::string>& truth_roots);
  double HitRate1() const { return judged > 0 ? 1.0 * hit1 / judged : 0.0; }
  double HitRate3() const { return judged > 0 ? 1.0 * hit3 / judged : 0.0; }
};

/// Drives an arrival-ordered event stream through sessionization and the
/// serve engine:
///
///   events -> SimClock pacing -> Sessionizer (watermark windows)
///          -> EpisodeQueryText -> ServeEngine kRca/kEap/kFct -> verdicts
///
/// Backpressure: in async mode submissions block (bounded by
/// submit_block_ms) when the engine queue is full, and at most
/// max_in_flight candidates are awaiting verdicts — a saturated engine
/// therefore throttles ingestion instead of growing queues. Verdicts are
/// delivered to the sink in flush order in both modes.
///
/// Reports stream/* metrics (window occupancy, watermark lag, late drops,
/// episodes, backpressure) to the global MetricsRegistry continuously, so
/// /statusz and /metrics observe a live run.
class StreamPipeline {
 public:
  using VerdictSink = std::function<void(EpisodeVerdict)>;

  StreamPipeline(const synth::WorldModel& world, serve::ServeEngine* engine,
                 const PipelineConfig& config);

  /// Replays the whole stream (blocking), flushes every remaining window,
  /// harvests every verdict, and returns the accounting. `sink` may be
  /// null. Call from one thread.
  PipelineSummary Run(const std::vector<synth::StreamEvent>& events,
                      const VerdictSink& sink);

 private:
  struct InFlight {
    EpisodeCandidate candidate;
    std::string query;
    std::future<serve::Response> rca;
    std::future<serve::Response> eap;
    std::future<serve::Response> fct;
    std::chrono::steady_clock::time_point flushed_at;
  };

  void Analyse(EpisodeCandidate candidate, const VerdictSink& sink);
  void HarvestOldest(const VerdictSink& sink);
  void HarvestAll(const VerdictSink& sink);
  std::future<serve::Response> SubmitOp(serve::TaskOp op,
                                        const std::string& query);
  void PublishMetrics();

  const synth::WorldModel& world_;
  serve::ServeEngine* engine_;
  PipelineConfig config_;
  Sessionizer sessionizer_;
  std::deque<InFlight> in_flight_;
  PipelineSummary summary_;
};

}  // namespace stream
}  // namespace telekit

#endif  // TELEKIT_STREAM_PIPELINE_H_
