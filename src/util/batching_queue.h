// Bounded MPSC queue with natural-batching pops — the coalescing engine behind
// serve/batching_executor.h. Producers Push single items; one consumer calls
// PopBatch, which blocks until at least one item is queued and then takes up
// to `width` of whatever is queued at that moment. It never waits on a timer:
// while the consumer is busy with one batch, arrivals pile up and form the
// next, so batch width follows load (about 1 when arrivals are sparse, up to
// `width` when they outpace the consumer) and an item that reaches an idle
// consumer is popped at once.
//
// Lives in util/ beside ThreadPool because it is index-agnostic plumbing; the
// executor layers search semantics (grouping by options, scattering results to
// futures) on top.
#ifndef USP_UTIL_BATCHING_QUEUE_H_
#define USP_UTIL_BATCHING_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace usp {

template <typename T>
class BatchingQueue {
 public:
  /// `capacity` bounds the number of queued (not yet popped) items; Push
  /// blocks while full. Capacity 0 is reserved/invalid — a zero-capacity
  /// queue could never make progress.
  explicit BatchingQueue(size_t capacity) : capacity_(capacity) {}

  BatchingQueue(const BatchingQueue&) = delete;
  BatchingQueue& operator=(const BatchingQueue&) = delete;

  /// Blocks while the queue is full. Returns false (dropping `item`) iff the
  /// queue was closed before space became available; a true return means the
  /// item is queued and a consumer will eventually pop it (Close never drops
  /// queued items).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking Push: returns false without waiting when the queue is full
  /// or closed. Lets callers implement load-shedding instead of back-pressure.
  bool TryPush(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Pops up to `width` items into `out` (appended; caller usually clears).
  /// Blocks until at least one item is queued, then takes what is queued at
  /// that moment, oldest first, without waiting for more. Returns the number
  /// of items popped; 0 means closed-and-drained, the consumer's signal to
  /// exit. After Close, remaining items are still delivered before 0 is
  /// returned.
  size_t PopBatch(std::vector<T>& out, size_t width) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return 0;  // closed and drained
    const size_t n = items_.size() < width ? items_.size() : width;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_all();
    return n;
  }

  /// Closes the queue: subsequent Push calls fail, blocked producers wake
  /// with false, and consumers drain the remaining items before PopBatch
  /// returns 0. Idempotent.
  void Close() {
    std::unique_lock<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return items_.size();
  }

  bool closed() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace usp

#endif  // USP_UTIL_BATCHING_QUEUE_H_
