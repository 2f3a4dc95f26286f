// Bounded multi-producer queue feeding the serving engine's workers.
//
// Connection threads (producers) push parsed requests with TryPush, which
// never blocks: a full queue is an admission-control signal, not a wait
// (the caller turns it into a 429-style reject with a Retry-After hint, see
// docs/serving.md). Engine workers (consumers) block in Pop; the update
// coalescer uses TryPopIf to drain the maximal run of consecutive update
// requests at the head without reordering a checkpoint past them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <utility>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::server {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Enqueues `item` unless the queue is full or closed. Never blocks.
  bool TryPush(T item) {
    {
      util::MutexLock lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      depth_max_ = std::max(depth_max_, items_.size());
    }
    ready_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained;
  /// nullopt means closed-and-empty (consumer should exit).
  std::optional<T> Pop() {
    util::MutexLock lock(mu_);
    ready_.Wait(mu_, [this]() MC3_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Pops the head only when present and `pred(head)` holds. Never blocks.
  std::optional<T> TryPopIf(const std::function<bool(const T&)>& pred) {
    util::MutexLock lock(mu_);
    if (items_.empty() || !pred(items_.front())) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Rejects all future pushes and wakes blocked consumers; items already
  /// queued are still delivered (graceful drain).
  void Close() {
    {
      util::MutexLock lock(mu_);
      closed_ = true;
    }
    ready_.NotifyAll();
  }

  size_t Depth() const {
    util::MutexLock lock(mu_);
    return items_.size();
  }

  /// High watermark: the largest depth any push has left. Counted under
  /// the lock, so a consumer popping right after the push cannot hide it.
  size_t DepthMax() const {
    util::MutexLock lock(mu_);
    return depth_max_;
  }

  bool closed() const {
    util::MutexLock lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable util::Mutex mu_;
  util::CondVar ready_;
  std::deque<T> items_ MC3_GUARDED_BY(mu_);
  bool closed_ MC3_GUARDED_BY(mu_) = false;
  size_t depth_max_ MC3_GUARDED_BY(mu_) = 0;
};

}  // namespace mc3::server
