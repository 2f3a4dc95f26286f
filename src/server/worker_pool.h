// Fixed-size worker pool executing posted tasks (mxtasking-style ingress:
// a bounded set of threads drains an unbounded task list). The server posts
// one connection-handling task per accepted socket, so the pool size bounds
// concurrent connections without a thread per client.
//
// Lambdas posted here run on pool threads: lint rule R6 (shared-mutable
// capture) covers Post bodies exactly like ParallelFor bodies — captured
// state mutated inside a posted task needs an atomic, a mutex, or
// per-task-owned data.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::server {

class WorkerPool {
 public:
  explicit WorkerPool(size_t num_workers) {
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~WorkerPool() { Shutdown(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `task`; returns false after Shutdown (task dropped).
  bool Post(std::function<void()> task) {
    {
      util::MutexLock lock(mu_);
      if (shutdown_) return false;
      tasks_.push_back(std::move(task));
    }
    ready_.NotifyOne();
    return true;
  }

  /// Finishes every queued task, then joins the workers. Idempotent.
  void Shutdown() {
    {
      util::MutexLock lock(mu_);
      if (shutdown_) return;
      shutdown_ = true;
    }
    ready_.NotifyAll();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  size_t QueuedTasks() const {
    util::MutexLock lock(mu_);
    return tasks_.size();
  }

 private:
  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        util::MutexLock lock(mu_);
        ready_.Wait(mu_, [this]() MC3_REQUIRES(mu_) {
          return shutdown_ || !tasks_.empty();
        });
        if (tasks_.empty()) return;  // shutdown and drained
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  mutable util::Mutex mu_;
  util::CondVar ready_;
  std::deque<std::function<void()>> tasks_ MC3_GUARDED_BY(mu_);
  bool shutdown_ MC3_GUARDED_BY(mu_) = false;
  // Written only by the constructor, joined by Shutdown on the control
  // thread; never touched from pool threads.
  std::vector<std::thread> workers_;
};

}  // namespace mc3::server
