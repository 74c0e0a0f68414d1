#include "dflow/lifecycle/breaker.h"

#include <algorithm>

#include "dflow/common/logging.h"

namespace dflow::lifecycle {

BreakerState CircuitBreaker::state(sim::SimTime now) const {
  if (stored_ == BreakerState::kOpen && now >= open_until_) {
    return BreakerState::kHalfOpen;
  }
  return stored_;
}

bool CircuitBreaker::Allows(sim::SimTime now) const {
  switch (state(now)) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return false;
    case BreakerState::kHalfOpen:
      return !probe_in_flight_;
  }
  return true;
}

void CircuitBreaker::Refresh(sim::SimTime now) {
  if (stored_ == BreakerState::kOpen && now >= open_until_) {
    stored_ = BreakerState::kHalfOpen;
    half_open_successes_ = 0;
    probe_in_flight_ = false;
    ++transitions_;
  }
}

void CircuitBreaker::Trip(sim::SimTime now) {
  const sim::SimTime cooldown =
      next_cooldown_ns_ == 0 ? config_->cooldown_ns : next_cooldown_ns_;
  stored_ = BreakerState::kOpen;
  open_until_ = now + cooldown;
  next_cooldown_ns_ = std::min(cooldown * 2, config_->max_cooldown_ns);
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  ++transitions_;
}

void CircuitBreaker::BeginProbe(sim::SimTime now) {
  Refresh(now);
  DFLOW_CHECK(stored_ == BreakerState::kHalfOpen && !probe_in_flight_);
  probe_in_flight_ = true;
}

void CircuitBreaker::RecordSuccess(sim::SimTime now) {
  Refresh(now);
  switch (stored_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kOpen:
      // A query placed before the trip finished after it; the breaker
      // stays open (the cool-down is about *new* placements).
      break;
    case BreakerState::kHalfOpen:
      probe_in_flight_ = false;
      if (++half_open_successes_ >= config_->success_threshold) {
        stored_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
        next_cooldown_ns_ = 0;  // a healthy device earns a fresh cool-down
        ++transitions_;
      }
      break;
  }
}

void CircuitBreaker::RecordFailure(sim::SimTime now) {
  Refresh(now);
  switch (stored_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_->failure_threshold) Trip(now);
      break;
    case BreakerState::kOpen:
      break;  // already open; nothing to escalate until the probe
    case BreakerState::kHalfOpen:
      Trip(now);  // the probe failed: re-open with a doubled cool-down
      break;
  }
}

bool BreakerRegistry::Allows(const std::string& device,
                             sim::SimTime now) const {
  RankedMutexLock lock(&mutex_);
  if (!config_.enabled) return true;
  auto it = breakers_.find(device);
  return it == breakers_.end() || it->second.Allows(now);
}

BreakerState BreakerRegistry::state(const std::string& device,
                                    sim::SimTime now) const {
  RankedMutexLock lock(&mutex_);
  auto it = breakers_.find(device);
  return it == breakers_.end() ? BreakerState::kClosed : it->second.state(now);
}

bool BreakerRegistry::BeginProbe(const std::string& device, sim::SimTime now) {
  RankedMutexLock lock(&mutex_);
  if (!config_.enabled) return false;
  auto it = breakers_.find(device);
  if (it == breakers_.end()) return false;
  if (it->second.state(now) != BreakerState::kHalfOpen ||
      !it->second.Allows(now)) {
    return false;
  }
  it->second.BeginProbe(now);
  ++probes_total_;
  return true;
}

void BreakerRegistry::RecordSuccess(const std::string& device,
                                    sim::SimTime now) {
  RankedMutexLock lock(&mutex_);
  if (!config_.enabled) return;
  auto it = breakers_.find(device);
  if (it != breakers_.end()) it->second.RecordSuccess(now);
}

void BreakerRegistry::RecordFailure(const std::string& device,
                                    sim::SimTime now) {
  RankedMutexLock lock(&mutex_);
  if (!config_.enabled) return;
  auto it = breakers_.find(device);
  if (it == breakers_.end()) {
    it = breakers_.emplace(device, CircuitBreaker(&config_)).first;
  }
  it->second.RecordFailure(now);
}

size_t BreakerRegistry::open_count(sim::SimTime now) const {
  RankedMutexLock lock(&mutex_);
  size_t open = 0;
  for (const auto& [name, breaker] : breakers_) {
    (void)name;
    if (breaker.state(now) == BreakerState::kOpen) ++open;
  }
  return open;
}

uint64_t BreakerRegistry::transitions_total() const {
  RankedMutexLock lock(&mutex_);
  uint64_t total = 0;
  for (const auto& [name, breaker] : breakers_) {
    (void)name;
    total += breaker.transitions();
  }
  return total;
}

}  // namespace dflow::lifecycle
