// Lock-free publication slot for immutable, refcount-free objects.
//
// A VersionedPublisher<T> holds one atomic pointer to the current
// published value plus a monotonically increasing version counter. The
// writer builds a fresh immutable T off to the side, Publish()es it with
// a single atomic exchange, and hands the displaced value to an
// EpochManager (concurrency/epoch.h) for grace-period reclamation —
// readers meanwhile Acquire() the current pointer under a ReadGuard and
// dereference it with no locks, no reference counts and no copies.
//
// Ownership: published objects are heap-allocated by the writer and
// owned by the publisher/epoch-manager pair. Publish returns the
// displaced pointer; the caller must either Retire it (the normal case)
// or delete it (only when provably unreachable, e.g. before any reader
// exists). The destructor deletes the final published value.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/thread_annotations.h"

namespace mc3::concurrency {

template <typename T>
class VersionedPublisher {
 public:
  VersionedPublisher() = default;
  VersionedPublisher(const VersionedPublisher&) = delete;
  VersionedPublisher& operator=(const VersionedPublisher&) = delete;
  ~VersionedPublisher() {
    // mc3-lint: new-delete-ok(owns the final published value; readers are gone)
    delete current_.load(std::memory_order_relaxed);
  }

  /// Swaps `next` in as the published value and returns the displaced
  /// one (nullptr on the first publish). Single-writer-at-a-time by
  /// contract (the serving stack publishes under engine_mu_); the
  /// exchange is seq_cst so readers that observe the new pointer also
  /// observe everything the writer wrote into *next beforehand, and the
  /// epoch-reclamation proof in epoch.h can order the swap against
  /// retires and pins. IMPORTANT: Retire the returned pointer only once
  /// no published root reaches it; when this publisher is its one root, as
  /// for the server's read root, that is as soon as Publish returns.
  const T* Publish(const T* next) {
    version_.fetch_add(1, std::memory_order_seq_cst);
    return current_.exchange(next, std::memory_order_seq_cst);
  }

  /// Current published value. Caller must hold a ReadGuard on the
  /// EpochManager that reclaims this publisher's retired values, and
  /// must drop the returned pointer before releasing the guard.
  const T* Acquire() const { return current_.load(std::memory_order_seq_cst); }

  /// Number of Publish calls so far. Monotone; readers pair it with the
  /// version stamped inside the published T itself when they need the
  /// version and pointer to agree (the pointer's embedded version is the
  /// authoritative one — this counter is a cheap gauge).
  std::uint64_t version() const {
    return version_.load(std::memory_order_seq_cst);
  }

 private:
  // Lock-free publication slot: seq_cst swap by a single writer, seq_cst
  // loads by epoch-pinned readers; reclamation is deferred through
  // EpochManager per the proof in concurrency/epoch.h.
  std::atomic<const T*> current_{nullptr};
  // Monotone counter bumped only by the single writer.
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace mc3::concurrency
