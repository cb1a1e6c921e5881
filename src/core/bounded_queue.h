#ifndef STHIST_CORE_BOUNDED_QUEUE_H_
#define STHIST_CORE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "core/check.h"

namespace sthist {

/// Why TryPush refused an item — the two rejection causes call for different
/// reactions (a full queue is transient backpressure, a closed queue is
/// final), so the queue reports which one happened instead of a bare false.
enum class PushResult {
  kAccepted,
  kFull,    // At capacity; retrying later may succeed.
  kClosed,  // Close() was called; no push will ever succeed again.
};

/// Bounded multi-producer queue with batched consumption, the feedback
/// channel of the serving layer (DESIGN.md §11).
///
/// Producers never block: when the queue is at capacity `TryPush` refuses the
/// item and the caller decides what to do with the rejection (the service
/// counts it as a drop — admission control by shedding the newest feedback,
/// never by stalling a query thread). Consumers drain up to a whole batch
/// per call so a backlogged refiner amortizes its lock traffic: `PopBatch`
/// blocks until items arrive or the queue is closed, `TryPopBatch` never
/// blocks (what a serving cell's pool-scheduled run uses).
///
/// Safe for any number of producers and consumers; the serving layer uses it
/// MPSC (many feedback submitters, one refine run at a time).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    STHIST_CHECK(capacity > 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `item` unless the queue is full or closed; never blocks.
  /// Returns kAccepted, or the rejection cause.
  PushResult TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    ready_cv_.notify_one();
    return PushResult::kAccepted;
  }

  /// Moves up to `max_items` into `*out` (appended; existing contents are
  /// cleared first), blocking until at least one item is available or the
  /// queue is closed. Returns the number popped — 0 only when the queue is
  /// closed and fully drained, the consumer's termination signal.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    STHIST_CHECK(max_items > 0);
    out->clear();
    std::unique_lock<std::mutex> lock(mutex_);
    ready_cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    size_t n = std::min(max_items, items_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return n;
  }

  /// Non-blocking PopBatch for consumers that must never park on an empty
  /// queue (a pool worker running one serving cell among many): moves up to
  /// `max_items` into `*out` (cleared first) and returns how many, possibly
  /// 0.
  size_t TryPopBatch(std::vector<T>* out, size_t max_items) {
    STHIST_CHECK(max_items > 0);
    out->clear();
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = std::min(max_items, items_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return n;
  }

  /// Closes the queue: subsequent pushes are refused, and consumers drain
  /// what remains before PopBatch returns 0. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_cv_.notify_all();
  }

  /// Instantaneous item count (advisory under concurrency).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;  // Signals consumers: item or closed.
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace sthist

#endif  // STHIST_CORE_BOUNDED_QUEUE_H_
