#ifndef DFLOW_LIFECYCLE_BREAKER_H_
#define DFLOW_LIFECYCLE_BREAKER_H_

#include <cstdint>
#include <map>
#include <string>

#include "dflow/common/lock_rank.h"
#include "dflow/common/thread_annotations.h"
#include "dflow/sim/simulator.h"

namespace dflow::lifecycle {

/// Classic closed / open / half-open circuit breaker, per device, on
/// virtual time. Escalates the engine's binary device-health registry
/// (PR 1: a crashed accelerator is quarantined forever) into a policy that
/// stops placing work on a *flapping* device and probes it back to life:
///
///   closed     failures below threshold; everything allowed.
///   open       tripped; nothing allowed until the cool-down elapses.
///   half-open  cooled down; exactly one probe query may use the device.
///              Probe success closes the breaker, probe failure re-opens
///              it with a doubled (capped) cool-down.
///
/// All transitions are driven by virtual-time calls from the service loop,
/// so breaker behaviour is deterministic per --dflow_seed.
enum class BreakerState : uint8_t { kClosed = 0, kOpen, kHalfOpen };

struct BreakerConfig {
  /// Master switch: disabled means the registry never opens a breaker and
  /// always answers Allows() = true (the PR 1 quarantine path applies).
  bool enabled = false;
  /// Consecutive failures that trip a closed breaker open.
  uint32_t failure_threshold = 2;
  /// Cool-down before an open breaker admits a probe (doubles on every
  /// re-open, capped at max_cooldown_ns).
  sim::SimTime cooldown_ns = 5'000'000;
  sim::SimTime max_cooldown_ns = 40'000'000;
  /// Probe successes needed in half-open before the breaker closes.
  uint32_t success_threshold = 1;
};

/// Breaker for one device. Owned by BreakerRegistry.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig* config) : config_(config) {}

  /// Effective state at `now` (an open breaker whose cool-down elapsed
  /// reads as half-open; the stored state is promoted lazily on the next
  /// mutating call).
  BreakerState state(sim::SimTime now) const;

  /// Whether a new placement may use this device at `now`: closed yes,
  /// open no, half-open only while no probe is outstanding.
  bool Allows(sim::SimTime now) const;

  /// Marks the one half-open probe slot taken. Caller must have checked
  /// Allows() first.
  void BeginProbe(sim::SimTime now);

  void RecordSuccess(sim::SimTime now);
  void RecordFailure(sim::SimTime now);

  /// State transitions so far (closed->open, open->half-open, ...).
  uint64_t transitions() const { return transitions_; }

 private:
  void Refresh(sim::SimTime now);  // lazy open -> half-open promotion
  void Trip(sim::SimTime now);     // -> open, escalating the cool-down

  const BreakerConfig* config_;
  BreakerState stored_ = BreakerState::kClosed;
  sim::SimTime open_until_ = 0;
  sim::SimTime next_cooldown_ns_ = 0;  // 0 = use config cooldown_ns
  uint32_t consecutive_failures_ = 0;
  uint32_t half_open_successes_ = 0;
  bool probe_in_flight_ = false;
  uint64_t transitions_ = 0;
};

/// All breakers of one service run, keyed by device name (std::map: the
/// iteration order feeds reports and must be deterministic). Devices are
/// tracked lazily — a device with no recorded failure has no breaker and
/// is always allowed.
///
/// The registry is a monitor at LockRank::kBreakerRegistry: the breaker
/// map and probe counter are guarded, individual CircuitBreakers are only
/// ever touched under the registry lock, and no method calls out while
/// holding it. Placement filters (Scheduler::PlacementFilter closures
/// calling Allows) may thus run on a future re-placement thread while the
/// event loop records feedback.
class BreakerRegistry {
 public:
  explicit BreakerRegistry(BreakerConfig config) : config_(config) {}

  const BreakerConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// Whether a new placement may use `device` at `now`.
  bool Allows(const std::string& device, sim::SimTime now) const
      DFLOW_EXCLUDES(mutex_);

  /// Effective state (kClosed for untracked devices).
  BreakerState state(const std::string& device, sim::SimTime now) const
      DFLOW_EXCLUDES(mutex_);

  /// Takes the half-open probe slot of `device` if it is half-open;
  /// returns whether a probe was actually started.
  bool BeginProbe(const std::string& device, sim::SimTime now)
      DFLOW_EXCLUDES(mutex_);

  /// Feedback from a finished query. Success only touches devices that
  /// already have a breaker (closing half-open ones, clearing failure
  /// streaks); failure creates the breaker on first sight.
  void RecordSuccess(const std::string& device, sim::SimTime now)
      DFLOW_EXCLUDES(mutex_);
  void RecordFailure(const std::string& device, sim::SimTime now)
      DFLOW_EXCLUDES(mutex_);

  /// Number of devices whose breaker is open (not yet cooled) at `now`.
  size_t open_count(sim::SimTime now) const DFLOW_EXCLUDES(mutex_);

  uint64_t transitions_total() const DFLOW_EXCLUDES(mutex_);
  uint64_t probes_total() const DFLOW_EXCLUDES(mutex_) {
    RankedMutexLock lock(&mutex_);
    return probes_total_;
  }

 private:
  BreakerConfig config_;
  mutable RankedMutex mutex_{LockRank::kBreakerRegistry};
  std::map<std::string, CircuitBreaker> breakers_ DFLOW_GUARDED_BY(mutex_);
  uint64_t probes_total_ DFLOW_GUARDED_BY(mutex_) = 0;
};

}  // namespace dflow::lifecycle

#endif  // DFLOW_LIFECYCLE_BREAKER_H_
