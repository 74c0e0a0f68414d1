#include "dflow/exec/parallel/task_scheduler.h"

#include <algorithm>
#include <utility>

#include "dflow/common/logging.h"

namespace dflow::parallel {

namespace {
/// Seed of the per-worker victim-selection RNGs (worker i uses seed + i).
/// Steal order affects scheduling only, never results.
constexpr uint64_t kStealSeed = 0x9e3779b97f4a7c15ULL;
}  // namespace

WorkStealingScheduler::WorkStealingScheduler(uint32_t workers)
    : workers_(std::max(1u, workers)) {
  deques_.resize(workers_);
  steal_rng_.reserve(workers_);
  for (uint32_t i = 0; i < workers_; ++i) {
    steal_rng_.emplace_back(kStealSeed + i);
  }
  threads_.reserve(workers_);
  for (uint32_t i = 0; i < workers_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingScheduler::~WorkStealingScheduler() { Shutdown(); }

void WorkStealingScheduler::SubmitTo(uint32_t worker, Task task) {
  {
    RankedMutexLock lock(&mutex_);
    DFLOW_CHECK(!shutdown_);
    DFLOW_CHECK(worker < workers_);
    outstanding_ += 1;
    deques_[worker].push_back(std::move(task));
  }
  work_cv_.NotifyAll();
}

bool WorkStealingScheduler::PopTaskLocked(uint32_t id, Task* task) {
  if (!deques_[id].empty()) {
    *task = std::move(deques_[id].back());
    deques_[id].pop_back();
    return true;
  }
  if (workers_ == 1) return false;
  // Steal from the front (oldest task) of a pseudo-random victim, scanning
  // the rest in ring order so a single loaded worker is always found.
  const uint32_t start = static_cast<uint32_t>(steal_rng_[id]() % workers_);
  for (uint32_t probe = 0; probe < workers_; ++probe) {
    const uint32_t victim = (start + probe) % workers_;
    if (victim == id || deques_[victim].empty()) continue;
    *task = std::move(deques_[victim].front());
    deques_[victim].pop_front();
    stats_.steals += 1;
    return true;
  }
  return false;
}

void WorkStealingScheduler::WorkerLoop(uint32_t id) {
  mutex_.lock();
  while (true) {
    Task task;
    if (PopTaskLocked(id, &task)) {
      mutex_.unlock();
      bool threw = false;
      std::exception_ptr error;
      try {
        task(id);
      } catch (...) {
        threw = true;
        error = std::current_exception();
      }
      mutex_.lock();
      if (threw && !first_error_) first_error_ = error;
      stats_.tasks_run += 1;
      outstanding_ -= 1;
      if (outstanding_ == 0) done_cv_.NotifyAll();
      continue;
    }
    if (shutdown_) break;
    work_cv_.Wait(&mutex_);
  }
  mutex_.unlock();
}

Status WorkStealingScheduler::Wait() {
  std::exception_ptr error;
  {
    RankedMutexLock lock(&mutex_);
    while (outstanding_ != 0) done_cv_.Wait(&mutex_);
    if (!first_error_) return Status::OK();
    error = std::exchange(first_error_, nullptr);
  }
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-std exception");
  }
}

void WorkStealingScheduler::Shutdown() {
  {
    RankedMutexLock lock(&mutex_);
    // Drain: workers keep pulling queued tasks until nothing is left, so a
    // shutdown never strands submitted work.
    while (outstanding_ != 0) done_cv_.Wait(&mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

WorkStealingScheduler::Stats WorkStealingScheduler::stats() const {
  RankedMutexLock lock(&mutex_);
  return stats_;
}

}  // namespace dflow::parallel
