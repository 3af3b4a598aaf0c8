#ifndef TELEKIT_SERVE_WORK_QUEUE_H_
#define TELEKIT_SERVE_WORK_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace telekit {
namespace serve {

/// Bounded MPMC queue with work-conserving pops: a free consumer takes the
/// oldest item at once and never waits on a non-empty queue.
///
/// Consumers that find the queue empty park, each on its own condition
/// variable, and Push hands the item to the one that parked most recently
/// (LIFO). At light load one warm consumer then serves the traffic while
/// the others stay parked, instead of the longest-idle, cache-cold one
/// being woken for every item.
///
/// Thread-safety: all methods are safe from any thread.
template <typename T>
class WorkQueue {
 public:
  /// Push() fails fast once `capacity` items wait (bounded backpressure).
  explicit WorkQueue(size_t capacity) : capacity_(capacity) {}

  /// Enqueues an item; false when the queue is full or closed. On failure
  /// `item` is left untouched, so the caller keeps ownership and can
  /// reject the request.
  bool Push(T&& item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    EnqueueLocked(std::move(item));
    return true;
  }

  /// Like Push, but when the queue is full blocks up to `max_block_us` for
  /// a consumer to make room — the backpressure primitive for ingestion
  /// paths that must throttle rather than shed. Still fails fast when
  /// closed, and fails (leaving `item` untouched) when the wait expires
  /// with the queue still full.
  bool PushBlocking(T&& item, int64_t max_block_us) {
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait_for(lock, std::chrono::microseconds(max_block_us), [&] {
      return closed_ || queue_.size() < capacity_;
    });
    if (closed_ || queue_.size() >= capacity_) return false;
    EnqueueLocked(std::move(item));
    return true;
  }

  /// Takes the oldest item, blocking only while the queue is empty. An
  /// empty result means "closed, nothing left" — never "another consumer
  /// beat me to the item".
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    // A woken consumer can find the queue empty again when another
    // consumer took the item first; it parks again.
    while (queue_.empty()) {
      if (closed_) return std::nullopt;
      Parked self;
      parked_.push_back(&self);
      self.cv.wait(lock, [&] { return self.woken; });
    }
    std::optional<T> item(std::move(queue_.front()));
    queue_.pop_front();
    space_cv_.notify_all();  // the pop made room for blocked producers
    return item;
  }

  /// Wakes all consumers; Pop drains the remainder, then returns empty.
  /// Push fails after Close.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      while (!parked_.empty()) WakeNewestLocked();
    }
    space_cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Consumers currently blocked in Pop on an empty queue.
  size_t parked() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return parked_.size();
  }

 private:
  /// One blocked Pop call; lives on that consumer's stack.
  struct Parked {
    std::condition_variable cv;
    bool woken = false;
  };

  void EnqueueLocked(T&& item) {
    queue_.push_back(std::move(item));
    if (!parked_.empty()) WakeNewestLocked();
  }

  /// Unparks the most recently parked consumer. Signalled under the lock:
  /// once woken, the consumer may return and destroy its Parked.
  void WakeNewestLocked() {
    Parked* newest = parked_.back();
    parked_.pop_back();
    newest->woken = true;
    newest->cv.notify_one();
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  /// Signalled when a pop (or Close) makes room for blocked producers.
  std::condition_variable space_cv_;
  std::deque<T> queue_;
  /// Parked consumers, oldest first.
  std::vector<Parked*> parked_;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace telekit

#endif  // TELEKIT_SERVE_WORK_QUEUE_H_
