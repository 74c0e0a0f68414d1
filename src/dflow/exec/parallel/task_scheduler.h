#ifndef DFLOW_EXEC_PARALLEL_TASK_SCHEDULER_H_
#define DFLOW_EXEC_PARALLEL_TASK_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "dflow/common/lock_rank.h"
#include "dflow/common/result.h"
#include "dflow/common/thread_annotations.h"

namespace dflow::parallel {

/// A fixed-pool work-stealing task scheduler: the morsel-driven executor's
/// engine room. Each worker owns a deque; it pops its own work LIFO (hot
/// caches, depth-first through task chains) and steals FIFO from a
/// pseudo-randomly chosen victim when its own deque runs dry (oldest tasks
/// first — the classic Chase–Lev discipline, here under a coarse lock).
///
/// Locking is deliberately coarse-grained: one mutex guards every deque
/// and counter. Tasks are morsel-granularity (~1k rows of columnar work),
/// so the lock is touched once per thousands of rows processed and never
/// shows up in profiles at the 1–8 worker scale this engine targets; in
/// exchange the scheduler is simple enough to eyeball for races and is
/// TSan-clean by construction. Every guarded member is annotated
/// DFLOW_GUARDED_BY(mutex_) and the mutex carries LockRank::kStealDeque,
/// so -Wthread-safety and the runtime rank checker both police it.
///
/// Exception propagation: the first exception a task throws is captured
/// and re-surfaced as an Internal status from Wait(); later tasks still
/// run (results are discarded by the caller on error). Tasks may submit
/// further tasks.
class WorkStealingScheduler {
 public:
  /// A task; `worker` is the executing worker's id (0-based), so tasks can
  /// address worker-local state (e.g. per-worker operator chains) without
  /// thread-local lookups.
  using Task = std::function<void(uint32_t worker)>;

  struct Stats {
    uint64_t tasks_run = 0;
    uint64_t steals = 0;  // tasks taken from another worker's deque
  };

  /// Starts `workers` threads (at least one).
  explicit WorkStealingScheduler(uint32_t workers);
  ~WorkStealingScheduler();  // implies Shutdown()
  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  uint32_t num_workers() const { return workers_; }

  /// Enqueues onto a specific worker's deque (it may still be stolen).
  void SubmitTo(uint32_t worker, Task task) DFLOW_EXCLUDES(mutex_);

  /// Blocks until every submitted task (including tasks submitted by
  /// tasks) has finished. Returns the first captured task exception as an
  /// Internal status — and clears it, so the scheduler is reusable.
  Status Wait() DFLOW_EXCLUDES(mutex_);

  /// Runs every already-queued task to completion, then stops and joins
  /// all workers. Idempotent; called by the destructor. After Shutdown,
  /// SubmitTo is illegal.
  void Shutdown() DFLOW_EXCLUDES(mutex_);

  Stats stats() const DFLOW_EXCLUDES(mutex_);

 private:
  void WorkerLoop(uint32_t id) DFLOW_EXCLUDES(mutex_);
  /// Pops a task for worker `id` (own deque back, else steal a victim's
  /// front). Returns false when no work exists.
  bool PopTaskLocked(uint32_t id, Task* task) DFLOW_REQUIRES(mutex_);

  const uint32_t workers_;
  mutable RankedMutex mutex_{LockRank::kStealDeque};
  RankedCondVar work_cv_;  // new work or shutdown
  RankedCondVar done_cv_;  // outstanding_ hit zero
  std::vector<std::deque<Task>> deques_ DFLOW_GUARDED_BY(mutex_);
  /// Per-worker victim-selection RNGs, under mutex_ like the deques.
  std::vector<std::mt19937_64> steal_rng_ DFLOW_GUARDED_BY(mutex_);
  /// Joined only by Shutdown after every worker observed shutdown_; not
  /// guarded (the ctor and Shutdown are single-threaded by contract).
  std::vector<std::thread> threads_;
  uint64_t outstanding_ DFLOW_GUARDED_BY(mutex_) = 0;
  bool shutdown_ DFLOW_GUARDED_BY(mutex_) = false;
  Stats stats_ DFLOW_GUARDED_BY(mutex_);
  std::exception_ptr first_error_ DFLOW_GUARDED_BY(mutex_);
};

}  // namespace dflow::parallel

#endif  // DFLOW_EXEC_PARALLEL_TASK_SCHEDULER_H_
