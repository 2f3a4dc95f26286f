// Epoch-based reclamation for lock-free read paths.
//
// Writers publish immutable objects through an atomic root pointer
// (concurrency/versioned_publisher.h) and retire the displaced objects
// here instead of deleting them; readers pin the current epoch for the
// duration of a read and dereference the root without taking any lock. A
// retired object is freed only once every reader that could still reach
// it has unpinned — the classic RCU/EBR grace-period discipline (see
// docs/serving.md, "Lock-free reads", for the serving-stack wiring).
//
// Memory-ordering contract (all root swaps, pins and the writer's epoch
// reads use seq_cst so the proof below is a plain total-order argument):
//
//   * Retire(o) tags o with the global epoch R read *after* o became
//     unreachable from every published root.
//   * A reader that can still reach o loaded the root before that swap,
//     and its Pin stored a slot epoch e <= R before the load (Pin
//     re-checks the global epoch after publishing its slot, so the slot
//     value never lags the global epoch at the time of the root load).
//   * AdvanceAndReclaim frees o only when the minimum over all pinned
//     slots exceeds R — i.e. after every such reader has unpinned.
//   * A reader that pins *after* reclamation became possible observes an
//     epoch > R, hence (seq_cst) also observes the new root: it can no
//     longer reach o.
//
// Callers own the ordering obligation in the first bullet: retire an
// object only after it is unreachable from every root a reader could
// follow to it (Server::PublishReadRoot swaps its one root first, then
// retires the displaced value).
//
// Readers are registered threads (ReaderRegistration, slot allocation
// under a mutex, expected once per connection); Pin/Unpin (ReadGuard) on
// a registered slot are wait-free apart from the bounded re-check loop
// and touch no shared mutable state other than the slot itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::concurrency {

class ReaderRegistration;
class ReadGuard;

/// Grace-period tracker: per-reader epoch slots plus a deferred retire
/// list. Writers Retire displaced objects and call AdvanceAndReclaim
/// after publishing; readers pin via ReadGuard. The annotation layer
/// models the manager itself as a capability held in shared mode while a
/// read is pinned (MC3_REQUIRES_SHARED on view accessors).
class MC3_CAPABILITY("epoch") EpochManager {
 public:
  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Frees everything still on the retire list. No reader may be pinned
  /// and no registration may outlive the manager.
  ~EpochManager();

  /// Hands `object` to the manager for deferred deletion. Must be called
  /// only after `object` is unreachable from every published root. The
  /// templated overload deletes via the static type; prefer it over the
  /// erased form. Thread-safe (internal mutex, writer-side only).
  template <typename T>
  void Retire(const T* object) {
    // mc3-lint: new-delete-ok(EBR is the deferred-RAII layer; this IS the deleter)
    RetireErased(object, [](const void* p) { delete static_cast<const T*>(p); });
  }

  /// Advances the global epoch and frees every retired object whose tag
  /// is below the minimum epoch still pinned by a reader. Returns the
  /// number of objects freed. Writer-side; thread-safe.
  std::size_t AdvanceAndReclaim();

  /// Retired objects not yet freed (writer-side bookkeeping, for the
  /// `epoch.retired` gauge).
  std::size_t PendingRetired() const;

  /// Total objects freed so far.
  std::uint64_t TotalReclaimed() const {
    return total_reclaimed_.load(std::memory_order_relaxed);
  }

  /// Current global epoch (monotonically increasing; starts at 1 so the
  /// idle sentinel can never collide with a real epoch).
  std::uint64_t CurrentEpoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

 private:
  friend class ReaderRegistration;
  friend class ReadGuard;

  /// Slot value meaning "this reader is not in a critical section".
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  // A reader thread's published epoch. Heap-allocated and owned by the
  // manager so ReaderRegistration handles can come and go while writers
  // scan a stable set; freed slots are pooled for reuse.
  struct Slot {
    // Lock-free: the single writer is the owning reader thread (Pin/Unpin);
    // writers scan with seq_cst loads. The grace-period proof in the header
    // comment is the synchronization argument.
    std::atomic<std::uint64_t> epoch{kIdle};
    // Transitions only under slots_mu_ (atomic so MinActiveEpoch's scan of
    // live slots never races a release).
    std::atomic<bool> in_use{false};
  };

  struct Retired {
    const void* object;
    void (*deleter)(const void*);
    std::uint64_t epoch;  // global epoch when retired
  };

  void RetireErased(const void* object, void (*deleter)(const void*));

  Slot* AcquireSlot() MC3_EXCLUDES(slots_mu_);
  void ReleaseSlot(Slot* slot) MC3_EXCLUDES(slots_mu_);

  /// Minimum epoch over all pinned readers (kIdle if none pinned).
  /// Seq_cst scan; safe without slots_mu_ because slots are never freed
  /// while the manager lives, but taking the snapshot under retire_mu_
  /// (as AdvanceAndReclaim does) keeps the reclaim decision atomic with
  /// respect to concurrent retires.
  std::uint64_t MinActiveEpoch() const;

  // Monotone counter, seq_cst everywhere; the proof in the header comment
  // is the synchronization argument.
  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<std::uint64_t> total_reclaimed_{0};

  mutable util::Mutex slots_mu_;
  std::vector<std::unique_ptr<Slot>> slots_ MC3_GUARDED_BY(slots_mu_);

  mutable util::Mutex retire_mu_;
  std::vector<Retired> retired_ MC3_GUARDED_BY(retire_mu_);
};

/// Registers the calling thread as a reader for the manager's lifetime
/// (or its own, whichever ends first). Construction/destruction take a
/// mutex; hold one per long-lived reader (e.g. per server connection),
/// then pin per read with ReadGuard — pinning itself is lock-free.
class ReaderRegistration {
 public:
  explicit ReaderRegistration(EpochManager& manager)
      : manager_(manager), slot_(manager.AcquireSlot()) {}
  ReaderRegistration(const ReaderRegistration&) = delete;
  ReaderRegistration& operator=(const ReaderRegistration&) = delete;
  ~ReaderRegistration() { manager_.ReleaseSlot(slot_); }

 private:
  friend class ReadGuard;
  EpochManager& manager_;
  EpochManager::Slot* slot_;
};

/// RAII epoch pin: while alive, no object retired at or after the pinned
/// epoch is freed, so pointers loaded from a VersionedPublisher root stay
/// valid. Shared capability over the EpochManager: any number of
/// ReadGuards may be alive at once, and functions that dereference
/// published views annotate MC3_REQUIRES_SHARED(manager).
class MC3_SCOPED_CAPABILITY ReadGuard {
 public:
  /// `manager` is named explicitly (and must be `reg`'s manager) so the
  /// annotation layer can match the caller's capability expression — the
  /// same reason util::MutexLock takes the mutex, not a handle to it.
  ReadGuard(EpochManager& manager, ReaderRegistration& reg)
      MC3_ACQUIRE_SHARED(manager)
      : slot_(*reg.slot_) {
    // Publish a candidate epoch, then re-check the global epoch: once the
    // loop exits, the slot value equals the global epoch at some instant
    // at-or-after the pin began, so any root pointer loaded afterwards is
    // protected (see the ordering proof in epoch.h's header comment).
    std::uint64_t e = manager.global_epoch_.load(std::memory_order_seq_cst);
    for (;;) {
      slot_.epoch.store(e, std::memory_order_seq_cst);
      const std::uint64_t now =
          manager.global_epoch_.load(std::memory_order_seq_cst);
      if (now == e) break;
      e = now;
    }
  }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;
  ~ReadGuard() MC3_RELEASE_SHARED() {
    slot_.epoch.store(EpochManager::kIdle, std::memory_order_seq_cst);
  }

 private:
  EpochManager::Slot& slot_;
};

}  // namespace mc3::concurrency
