#ifndef DFLOW_COMMON_LOCK_RANK_H_
#define DFLOW_COMMON_LOCK_RANK_H_

#include <condition_variable>
#include <mutex>

#include "dflow/common/thread_annotations.h"

namespace dflow {

/// Central lock-order registry (DESIGN.md §9). Every RankedMutex in the
/// tree is constructed with one of these levels, and a thread may only
/// acquire a mutex whose rank is STRICTLY GREATER than the highest rank it
/// already holds. The total order makes lock-order cycles impossible by
/// construction; the debug checker below turns any violation into an
/// immediate abort, and tools/lint_lock_order.py proves statically that no
/// source file nests acquisitions against this order.
///
/// The numbering leaves gaps so new levels slot in without renumbering.
/// Outer, coarse service-layer locks rank low; leaf locks that are never
/// held across a call rank high. The lint parses this enum — keep one
/// enumerator per line in `kName = value,` form.
enum class LockRank : int {
  /// ServiceLoop completion bookkeeping (outcomes, finished-query maps).
  kServeCompletion = 10,
  /// AdmissionController tenant queues and in-flight counters.
  kAdmission = 20,
  /// The scheduler's committed-demand ledger (sched::DemandLedger).
  kDemandLedger = 30,
  /// Per-device circuit breakers (lifecycle::BreakerRegistry).
  kBreakerRegistry = 40,
  /// The brownout ladder state machine (lifecycle::BrownoutController).
  kBrownout = 50,
  /// WorkStealingScheduler deques, counters, and error slot.
  kStealDeque = 60,
  /// Per-partition hash-table locks in the parallel join build/probe.
  kJoinPartition = 70,
  /// A cluster's node-worker pool (cluster::NodeWorkers): the batch in
  /// flight and its completion count; never held while a node task runs.
  kNodeWorkers = 80,
  /// First-error capture slots; leaf rank, never held across a call.
  kErrorSlot = 90,
};

const char* LockRankName(LockRank rank);

namespace lock_rank_detail {
#ifndef DFLOW_INVARIANTS_DISABLED
/// Records `rank` on the calling thread's held-lock stack; aborts with a
/// diagnostic when a lock of rank >= `rank` is already held (out-of-order
/// acquisition). PopRank removes the most recent occurrence.
void PushRank(LockRank rank);
void PopRank(LockRank rank);
#endif
}  // namespace lock_rank_detail

/// std::mutex plus (a) thread-safety-analysis capability annotations and
/// (b) a debug-only runtime lock-order checker. With invariants compiled
/// out (-DDFLOW_DISABLE_INVARIANTS) the rank bookkeeping disappears and
/// lock/unlock forward straight to std::mutex; the annotations are
/// attributes and always cost nothing at runtime.
///
/// Satisfies BasicLockable, so RankedCondVar (condition_variable_any) can
/// wait on it directly — the unlock/relock inside a wait goes through the
/// ranked methods and keeps the checker's stack exact.
class DFLOW_CAPABILITY("mutex") RankedMutex {
 public:
  explicit RankedMutex(LockRank rank) : rank_(rank) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  LockRank rank() const { return rank_; }

  void lock() DFLOW_ACQUIRE() {
#ifndef DFLOW_INVARIANTS_DISABLED
    lock_rank_detail::PushRank(rank_);
#endif
    mu_.lock();
  }

  void unlock() DFLOW_RELEASE() {
    mu_.unlock();
#ifndef DFLOW_INVARIANTS_DISABLED
    lock_rank_detail::PopRank(rank_);
#endif
  }

  bool try_lock() DFLOW_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#ifndef DFLOW_INVARIANTS_DISABLED
    lock_rank_detail::PushRank(rank_);
#endif
    return true;
  }

 private:
  std::mutex mu_;
  const LockRank rank_;
};

/// RAII guard for RankedMutex — the annotated std::lock_guard. Scoped so
/// the analysis knows the capability is held for the guard's lifetime.
class DFLOW_SCOPED_CAPABILITY RankedMutexLock {
 public:
  explicit RankedMutexLock(RankedMutex* mu) DFLOW_ACQUIRE(mu) : mu_(mu) {
    mu_->lock();
  }
  ~RankedMutexLock() DFLOW_RELEASE() { mu_->unlock(); }
  RankedMutexLock(const RankedMutexLock&) = delete;
  RankedMutexLock& operator=(const RankedMutexLock&) = delete;

 private:
  RankedMutex* mu_;
};

/// Condition variable bound to RankedMutex. Wait() takes the mutex the
/// caller must hold (enforced by the analysis); use an explicit
/// `while (!condition) cv.Wait(&mu);` loop at the call site — predicate
/// lambdas are opaque to -Wthread-safety, explicit loops are not.
class RankedCondVar {
 public:
  void Wait(RankedMutex* mu) DFLOW_REQUIRES(mu) { cv_.wait(*mu); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace dflow

#endif  // DFLOW_COMMON_LOCK_RANK_H_
