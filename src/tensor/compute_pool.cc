#include "tensor/compute_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flag_parse.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace telekit {
namespace tensor {

namespace {

int DefaultThreads() {
  if (const char* env = std::getenv("TELEKIT_COMPUTE_THREADS")) {
    // Strict: "abc" or "4x" used to atoi to 0 and silently fall through to
    // the hardware default; now it exits 64 naming the variable.
    return static_cast<int>(
        ParseIntEnvOrDie("TELEKIT_COMPUTE_THREADS", env, 1, 4096));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

obs::Gauge& ThreadsGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("tensor/compute_threads");
  return gauge;
}

/// One parallel region. Heap-allocated and shared with the workers so a
/// late-waking worker can never dereference a submitter's dead stack frame.
struct Job {
  std::function<void(int, int)> body;
  int n = 0;
  int grain = 1;
  std::atomic<int> next{0};     // next chunk start offset
  std::atomic<int> pending{0};  // chunks not yet completed
  std::mutex mutex;
  std::condition_variable done;
};

/// Executes chunks of `job` until none remain. Chunk boundaries are
/// multiples of job.grain, so the grid is fixed per (n, grain) no matter
/// how many threads drain it or in what order.
void Drain(Job& job) {
  for (;;) {
    const int begin = job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) return;
    const int end = std::min(begin + job.grain, job.n);
    job.body(begin, end);
    if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk: wake the submitter. Taking the mutex orders the notify
      // after the submitter's predicate check, so the wakeup cannot be lost.
      std::lock_guard<std::mutex> lock(job.mutex);
      job.done.notify_all();
    }
  }
}

class Pool {
 public:
  static Pool& Global() {
    // Leaked on purpose: worker threads survive to process exit, so the
    // pool must never run its destructor under them.
    static Pool* pool = new Pool();
    return *pool;
  }

  int Threads() {
    int t = target_.load(std::memory_order_relaxed);
    if (t > 0) return t;
    // First use and no explicit SetThreads: resolve env/hardware once.
    std::lock_guard<std::mutex> lock(submit_mutex_);
    t = target_.load(std::memory_order_relaxed);
    if (t > 0) return t;
    t = DefaultThreads();
    target_.store(t, std::memory_order_relaxed);
    ThreadsGauge().Set(static_cast<double>(t));
    return t;
  }

  void SetThreads(int n) {
    TELEKIT_CHECK(n >= 0) << "compute threads must be >= 0, got " << n;
    const int t = n > 0 ? n : DefaultThreads();
    std::lock_guard<std::mutex> lock(submit_mutex_);
    target_.store(t, std::memory_order_relaxed);
    ThreadsGauge().Set(static_cast<double>(t));
    if (static_cast<int>(workers_.size()) > t - 1) StopWorkersLocked();
  }

  void Run(int n, int grain, const std::function<void(int, int)>& body) {
    std::unique_lock<std::mutex> lock(submit_mutex_, std::try_to_lock);
    if (!lock.owns_lock()) {
      // Another thread owns the pool (concurrent serve workers): run the
      // whole range inline — same chunk grid degenerated to one executor,
      // bit-identical result.
      body(0, n);
      return;
    }
    const int target = target_.load(std::memory_order_relaxed);
    EnsureWorkersLocked(target);
    if (workers_.empty()) {
      body(0, n);
      return;
    }
    static obs::Counter& regions =
        obs::MetricsRegistry::Global().GetCounter("tensor/parallel_regions");
    regions.Increment();
    auto job = std::make_shared<Job>();
    job->body = body;
    job->n = n;
    job->grain = grain;
    job->pending.store((n + grain - 1) / grain, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> work_lock(work_mutex_);
      job_ = job;
      ++generation_;
    }
    work_cv_.notify_all();
    Drain(*job);  // the submitter is one of the executors
    {
      std::unique_lock<std::mutex> job_lock(job->mutex);
      job->done.wait(job_lock, [&] {
        return job->pending.load(std::memory_order_acquire) == 0;
      });
    }
    std::lock_guard<std::mutex> work_lock(work_mutex_);
    job_.reset();
  }

 private:
  Pool() = default;

  /// Brings the worker count to target - 1 (the submitter participates).
  /// Called with submit_mutex_ held.
  void EnsureWorkersLocked(int target) {
    const int want = target - 1;
    if (static_cast<int>(workers_.size()) == want) return;
    StopWorkersLocked();
    workers_.reserve(static_cast<size_t>(want));
    for (int i = 0; i < want; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkersLocked() {
    {
      std::lock_guard<std::mutex> work_lock(work_mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    std::lock_guard<std::mutex> work_lock(work_mutex_);
    stop_ = false;
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(work_mutex_);
        work_cv_.wait(lock, [&] {
          return stop_ || (job_ != nullptr && generation_ != seen);
        });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      Drain(*job);
    }
  }

  // Serializes submitters and configuration changes; also the gate that
  // makes concurrent ParallelFor callers fall back to inline execution.
  std::mutex submit_mutex_;
  std::atomic<int> target_{0};  // 0 = not yet resolved
  std::vector<std::thread> workers_;

  // Hand-off of the current job to the workers.
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::shared_ptr<Job> job_;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

int ComputeThreads() { return Pool::Global().Threads(); }

void SetComputeThreads(int n) { Pool::Global().SetThreads(n); }

void AddComputeThreadsFlag(FlagSet* flags) {
  flags->Custom("compute-threads=N", "",
                "intra-op tensor threads (default:\n"
                "TELEKIT_COMPUTE_THREADS env, else hardware;\n1 = serial)",
                [](const std::string& value) {
                  SetComputeThreads(static_cast<int>(
                      ParseIntFlagOrDie("compute-threads", value, 0, 4096)));
                  return true;
                });
}

namespace internal {

void RunParallel(int n, int grain, const std::function<void(int, int)>& body) {
  Pool::Global().Run(n, grain, body);
}

}  // namespace internal

}  // namespace tensor
}  // namespace telekit
