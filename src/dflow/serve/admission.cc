#include "dflow/serve/admission.h"

#include "dflow/common/logging.h"

namespace dflow::serve {

const char* RejectCodeName(RejectCode code) {
  switch (code) {
    case RejectCode::kQueueFull:
      return "QUEUE_FULL";
    case RejectCode::kOverload:
      return "OVERLOAD";
    case RejectCode::kBrownout:
      return "BROWNOUT";
  }
  return "UNKNOWN";
}

AdmissionController::AdmissionController(
    AdmissionConfig config, const std::vector<TenantConfig>* tenants)
    : config_(config), tenants_(tenants) {
  DFLOW_CHECK(tenants != nullptr);
  queues_.resize(tenants->size());
  in_flight_.resize(tenants->size(), 0);
}

std::optional<RejectCode> AdmissionController::Offer(const Ticket& ticket) {
  RankedMutexLock lock(&mutex_);
  const TenantConfig& tenant = (*tenants_)[ticket.tenant];
  if (queues_[ticket.tenant].size() >= tenant.queue_capacity) {
    return RejectCode::kQueueFull;
  }
  if (queued_total_ >= config_.global_queue_capacity) {
    return RejectCode::kOverload;
  }
  queues_[ticket.tenant].push_back(ticket);
  ++queued_total_;
  return std::nullopt;
}

bool AdmissionController::CanStartLocked(size_t tenant) const {
  if (in_flight_total_ >= config_.global_max_in_flight) return false;
  const size_t cap = (*tenants_)[tenant].max_in_flight;
  return cap == 0 || in_flight_[tenant] < cap;
}

std::optional<Ticket> AdmissionController::PopRunnable() {
  RankedMutexLock lock(&mutex_);
  const size_t n = queues_.size();
  bool found = false;
  size_t best = 0;
  int best_priority = 0;
  // Scan tenants starting after the round-robin cursor so equal-priority
  // classes take turns; a strictly lower priority number always wins.
  for (size_t step = 1; step <= n; ++step) {
    const size_t t = (rr_cursor_ + step) % n;
    if (queues_[t].empty() || !CanStartLocked(t)) continue;
    const int priority = (*tenants_)[t].priority;
    if (!found || priority < best_priority) {
      found = true;
      best = t;
      best_priority = priority;
    }
  }
  if (!found) return std::nullopt;
  Ticket ticket = queues_[best].front();
  queues_[best].pop_front();
  --queued_total_;
  ++in_flight_[best];
  ++in_flight_total_;
  rr_cursor_ = best;
  return ticket;
}

void AdmissionController::OnCompletion(size_t tenant) {
  RankedMutexLock lock(&mutex_);
  DFLOW_CHECK(in_flight_[tenant] > 0 && in_flight_total_ > 0);
  --in_flight_[tenant];
  --in_flight_total_;
}

std::optional<Ticket> AdmissionController::CancelQueued(uint64_t query_id) {
  RankedMutexLock lock(&mutex_);
  for (std::deque<Ticket>& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->query_id != query_id) continue;
      Ticket ticket = *it;
      queue.erase(it);
      --queued_total_;
      return ticket;
    }
  }
  return std::nullopt;
}

}  // namespace dflow::serve
