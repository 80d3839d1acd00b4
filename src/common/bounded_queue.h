#ifndef CROWDRL_COMMON_BOUNDED_QUEUE_H_
#define CROWDRL_COMMON_BOUNDED_QUEUE_H_

#include <chrono>
#include <deque>
#include <optional>
#include <vector>

#include "common/mutex.h"

namespace crowdrl {

/// \brief Bounded multi-producer/multi-consumer queue — the hand-off
/// primitive of the asynchronous arrangement service (actor threads push
/// rank requests and transition blocks; the batch leader and the learner
/// thread drain them).
///
/// The bound is the service's backpressure mechanism: when the learner
/// falls behind, producers block in Push instead of growing an unbounded
/// backlog. Close() releases everyone — blocked producers return false,
/// consumers drain whatever is left and then receive "empty". TryPushFor
/// adds the admission-control variant: a producer with a latency budget
/// waits only that long for space and learns *why* it failed (closed vs
/// timed out), which is what lets a service shed instead of block.
///
/// Thread-safety is machine-checked: `items_`/`closed_` are
/// CROWDRL_GUARDED_BY(mu_) and every wait is an explicit condition loop in
/// the analyzed, lock-holding scope (see common/mutex.h).
template <typename T>
class BoundedQueue {
 public:
  /// Outcome of a bounded-wait push.
  enum class PushResult {
    kOk,       ///< item enqueued
    kClosed,   ///< queue closed (item dropped)
    kTimeout,  ///< budget elapsed with the queue still full (item dropped)
  };

  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false iff the queue was
  /// closed (the item is dropped).
  bool Push(T item) {
    {
      MutexLock lk(mu_);
      while (items_.size() >= capacity_ && !closed_) {
        not_full_.Wait(mu_, lk);
      }
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Deadline-aware Push: waits at most `budget_us` microseconds for queue
  /// space (0 = try once, no wait). The item is dropped unless kOk is
  /// returned. Close() wakes waiters immediately with kClosed, even
  /// mid-budget — the admission-control path must never outlive shutdown.
  PushResult TryPushFor(T item, int64_t budget_us) {
    {
      MutexLock lk(mu_);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(budget_us < 0 ? 0 : budget_us);
      while (items_.size() >= capacity_ && !closed_) {
        if (!not_full_.WaitUntil(mu_, lk, deadline)) break;  // budget spent
      }
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kTimeout;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return PushResult::kOk;
  }

  /// Keep-on-failure variant of TryPushFor for producers that own pooled
  /// resources: `*item` is moved from only when kOk is returned, so a
  /// timed-out (or shutdown-raced) push leaves the item with the caller
  /// instead of destroying it — a pooled item is never leaked.
  PushResult TryPushFor(T* item, int64_t budget_us) {
    {
      MutexLock lk(mu_);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(budget_us < 0 ? 0 : budget_us);
      while (items_.size() >= capacity_ && !closed_) {
        if (!not_full_.WaitUntil(mu_, lk, deadline)) break;  // budget spent
      }
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kTimeout;
      items_.push_back(std::move(*item));
    }
    not_empty_.NotifyOne();
    return PushResult::kOk;
  }

  /// Blocks while the queue is empty. Returns nullopt iff the queue was
  /// closed and fully drained.
  std::optional<T> Pop() {
    MutexLock lk(mu_);
    while (items_.empty() && !closed_) {
      not_empty_.Wait(mu_, lk);
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lk.Unlock();
    not_full_.NotifyOne();
    return item;
  }

  /// Non-blocking pop: returns the front item if one is immediately
  /// available, nullopt otherwise (empty or closed-and-drained).
  std::optional<T> TryPop() {
    MutexLock lk(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lk.Unlock();
    not_full_.NotifyOne();
    return item;
  }

  /// Deadline-aware pop: waits at most `budget_us` microseconds for an
  /// item (0 = try once, no wait). Returns nullopt on timeout or when the
  /// queue is closed and drained — callers that need to distinguish the
  /// two check closed(). Lets a consumer idle with a bounded park and
  /// re-check other state between waits instead of blocking in Pop.
  std::optional<T> PopFor(int64_t budget_us) {
    MutexLock lk(mu_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(budget_us < 0 ? 0 : budget_us);
    while (items_.empty() && !closed_) {
      if (!not_empty_.WaitUntil(mu_, lk, deadline)) break;  // budget spent
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lk.Unlock();
    not_full_.NotifyOne();
    return item;
  }

  /// Micro-batching pop: returns 0 at once if the queue is empty;
  /// otherwise drains up to `max_items`, waiting at most `coalesce_us`
  /// microseconds for stragglers to join the batch. Appends to `*out`;
  /// returns the number of items appended.
  size_t PopBatch(std::vector<T>* out, size_t max_items, int64_t coalesce_us) {
    const size_t before = out->size();
    MutexLock lk(mu_);
    if (items_.empty()) return 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(coalesce_us);
    for (;;) {
      while (!items_.empty() && out->size() - before < max_items) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
      }
      if (out->size() - before >= max_items || closed_ || coalesce_us <= 0) {
        break;
      }
      bool window_elapsed = false;
      while (items_.empty() && !closed_) {
        if (!not_empty_.WaitUntil(mu_, lk, deadline)) {
          window_elapsed = true;  // coalescing window elapsed
          break;
        }
      }
      if (window_elapsed) break;
      if (items_.empty()) break;  // woken by Close with nothing left
    }
    lk.Unlock();
    not_full_.NotifyAll();
    return out->size() - before;
  }

  /// Wakes every blocked producer (returns false) and consumer (drains,
  /// then empty). Idempotent.
  void Close() {
    {
      MutexLock lk(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const {
    MutexLock lk(mu_);
    return closed_;
  }

  size_t size() const {
    MutexLock lk(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ CROWDRL_GUARDED_BY(mu_);
  bool closed_ CROWDRL_GUARDED_BY(mu_) = false;
};

}  // namespace crowdrl

#endif  // CROWDRL_COMMON_BOUNDED_QUEUE_H_
