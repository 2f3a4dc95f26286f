// Annotated synchronization primitives for clang Thread Safety Analysis.
//
// Thin zero-overhead wrappers over the standard primitives that carry the
// MC3_* capability attributes (util/thread_annotations.h), so clang can
// statically verify lock discipline: which fields each mutex guards
// (MC3_GUARDED_BY), which functions expect it held (MC3_REQUIRES), and
// that every acquire has a matching release. Under GCC everything expands
// to the plain standard types' behavior.
//
// All threaded code in the repo uses these instead of raw std::mutex /
// std::lock_guard / std::condition_variable: lint rule R4 (`raw-sync`) bans
// the raw types outside this file, and R8 (`guard`) enforces annotation
// coverage on classes that own a mutex.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/thread_annotations.h"

namespace mc3::util {

class CondVar;

/// std::mutex with capability attributes. Satisfies BasicLockable /
/// Lockable, so standard RAII types also work, but prefer MutexLock /
/// UniqueLock below: the standard ones carry no attributes and make the
/// analysis reject every guarded access under clang.
class MC3_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MC3_ACQUIRE() { mu_.lock(); }
  void unlock() MC3_RELEASE() { mu_.unlock(); }
  bool try_lock() MC3_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::lock_guard over Mutex: acquires in the constructor, releases in
/// the destructor, no unlock in between.
class MC3_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MC3_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() MC3_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

/// std::unique_lock over Mutex: scoped like MutexLock but relockable, for
/// code that drops the lock around blocking work (e.g. the WAL group
/// committer releases it around the disk write). The destructor releases
/// only if currently held.
class MC3_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) MC3_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;
  ~UniqueLock() MC3_RELEASE() {
    if (held_) mu_.unlock();
  }

  void Unlock() MC3_RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  void Lock() MC3_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable bound to util::Mutex. Wait takes the mutex and a
/// predicate and loops internally, so a lost-wakeup-prone bare wait is
/// unrepresentable. Callers hold `mu` across the call; predicates
/// run with it held, so lambdas reading guarded fields should themselves
/// be annotated MC3_REQUIRES(mu).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until pred() is true. Caller holds `mu`; it is released while
  /// blocked and re-held both when pred runs and on return.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) MC3_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();  // the caller's scope still owns the re-acquired lock
  }

  /// Blocks until pred() is true or `timeout` elapsed; returns pred().
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Pred pred) MC3_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mc3::util
