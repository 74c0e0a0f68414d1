#include "dflow/sched/scheduler.h"

#include <algorithm>
#include <array>

#include "dflow/common/logging.h"

namespace dflow {

Scheduler::Scheduler(Engine* engine) : engine_(engine) {
  DFLOW_CHECK(engine != nullptr);
}

// Drops variants that place stages on devices the engine has quarantined
// (accelerators that crashed in earlier runs). Keeps the original list when
// every variant is tainted — there is nothing better to offer, and the
// engine's own fallback still applies. Concurrent queries run on node 0.
static std::vector<RankedPlacement> HealthyVariants(
    Engine* engine, std::vector<RankedPlacement> variants) {
  std::vector<RankedPlacement> healthy;
  for (RankedPlacement& v : variants) {
    if (engine->PlacementHealthy(v.placement, /*node=*/0)) {
      healthy.push_back(std::move(v));
    }
  }
  return healthy.empty() ? variants : healthy;
}

Result<ScheduleDecision> Scheduler::PlanNaive(
    const std::vector<QuerySpec>& specs) const {
  ScheduleDecision decision;
  for (const QuerySpec& spec : specs) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<RankedPlacement> variants,
                           engine_->PlanVariants(spec));
    variants = HealthyVariants(engine_, std::move(variants));
    decision.placements.push_back(variants.front().placement);
    decision.network_rate_limits_gbps.push_back(0.0);
    decision.rationale.push_back("individually optimal (no contention model)");
    DFLOW_TRACE(engine_->tracer(),
                Instant("sched", "scheduler", "naive_choice",
                        engine_->fabric().simulator().now(),
                        /*value=*/decision.placements.size() - 1,
                        variants.front().placement.name));
  }
  return decision;
}

double Scheduler::NetworkGbps() const {
  const sim::FabricConfig& config = engine_->config();
  return std::min(config.storage_uplink_gbps, config.network_gbps);
}

double Scheduler::ContendedCompletionNs(
    const CostEstimate& cost, const CommittedDemand& committed) const {
  // Contended completion estimate: every shared resource serves this
  // query after (or interleaved with) the demand already committed.
  double completion = cost.media_ns;
  for (int s = 0; s < kNumSites; ++s) {
    completion = std::max(completion,
                          committed.site_busy_ns[s] + cost.device_busy_ns[s]);
  }
  completion = std::max(
      completion, committed.network_ns +
                      static_cast<double>(cost.network_bytes) / NetworkGbps());
  return completion;
}

void Scheduler::Charge(const CostEstimate& cost,
                       CommittedDemand* committed) const {
  for (int s = 0; s < kNumSites; ++s) {
    committed->site_busy_ns[s] += cost.device_busy_ns[s];
  }
  if (cost.network_bytes > 0) {
    const double bytes = static_cast<double>(cost.network_bytes);
    committed->network_ns += bytes / NetworkGbps();
    committed->network_bytes += bytes;
    ++committed->network_users;
  }
}

void Scheduler::Release(const CostEstimate& cost,
                        CommittedDemand* committed) const {
  for (int s = 0; s < kNumSites; ++s) {
    committed->site_busy_ns[s] =
        std::max(0.0, committed->site_busy_ns[s] - cost.device_busy_ns[s]);
  }
  if (cost.network_bytes > 0) {
    const double bytes = static_cast<double>(cost.network_bytes);
    committed->network_ns =
        std::max(0.0, committed->network_ns - bytes / NetworkGbps());
    committed->network_bytes = std::max(0.0, committed->network_bytes - bytes);
    committed->network_users = std::max(0, committed->network_users - 1);
  }
}

Result<ScheduleDecision> Scheduler::Plan(
    const std::vector<QuerySpec>& specs) const {
  ScheduleDecision decision;
  CommittedDemand committed;  // accumulated demand committed so far
  std::vector<double> chosen_network_bytes(specs.size(), 0.0);
  const double network_gbps = NetworkGbps();

  for (size_t q = 0; q < specs.size(); ++q) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<RankedPlacement> variants,
                           engine_->PlanVariants(specs[q]));
    variants = HealthyVariants(engine_, std::move(variants));
    double best_completion = 0;
    size_t best = 0;
    for (size_t v = 0; v < variants.size(); ++v) {
      const double completion =
          ContendedCompletionNs(variants[v].cost, committed);
      if (v == 0 || completion < best_completion) {
        best_completion = completion;
        best = v;
      }
    }
    const CostEstimate& cost = variants[best].cost;
    Charge(cost, &committed);
    chosen_network_bytes[q] = static_cast<double>(cost.network_bytes);
    decision.placements.push_back(variants[best].placement);
    decision.rationale.push_back(
        best == 0 ? "uncontended optimum"
                  : "diverted to variant #" + std::to_string(best) +
                        " to avoid contention");
    DFLOW_TRACE(engine_->tracer(),
                Instant("sched", "scheduler", "plan_choice",
                        engine_->fabric().simulator().now(), /*value=*/q,
                        variants[best].placement.name + " (" +
                            decision.rationale.back() + ")"));
  }

  // Fair-share rate caps when the chosen variants oversubscribe the
  // network: each flow gets bandwidth proportional to its byte demand.
  double total_bytes = 0;
  size_t network_users = 0;
  for (double b : chosen_network_bytes) {
    total_bytes += b;
    if (b > 0) ++network_users;
  }
  for (size_t q = 0; q < specs.size(); ++q) {
    double cap = 0.0;
    if (network_users > 1 && chosen_network_bytes[q] > 0) {
      cap = network_gbps * chosen_network_bytes[q] / total_bytes;
    }
    decision.network_rate_limits_gbps.push_back(cap);
  }
  return decision;
}

Result<IncrementalDecision> Scheduler::PlanOne(const QuerySpec& spec,
                                               const CommittedDemand& committed,
                                               PlacementChoice choice,
                                               const PlacementFilter& filter)
    const {
  DFLOW_ASSIGN_OR_RETURN(std::vector<RankedPlacement> variants,
                         engine_->PlanVariants(spec));
  Placement forced;
  if (choice != PlacementChoice::kAuto) {
    DFLOW_ASSIGN_OR_RETURN(forced, engine_->ChoosePlacement(spec, choice));
  }
  return PlanFromVariants(variants, forced, committed, choice, filter);
}

Result<IncrementalDecision> Scheduler::PlanFromVariants(
    const std::vector<RankedPlacement>& variants, const Placement& forced,
    const CommittedDemand& committed, PlacementChoice choice,
    const PlacementFilter& filter) const {
  IncrementalDecision decision;
  if (choice == PlacementChoice::kAuto) {
    std::vector<RankedPlacement> healthy = HealthyVariants(engine_, variants);
    if (filter) {
      std::vector<RankedPlacement> allowed;
      for (RankedPlacement& v : healthy) {
        if (filter(v.placement)) allowed.push_back(std::move(v));
      }
      if (!allowed.empty()) healthy = std::move(allowed);
    }
    double best_completion = 0;
    size_t best = 0;
    for (size_t v = 0; v < healthy.size(); ++v) {
      const double completion = ContendedCompletionNs(healthy[v].cost,
                                                      committed);
      if (v == 0 || completion < best_completion) {
        best_completion = completion;
        best = v;
      }
    }
    decision.placement = healthy[best].placement;
    decision.cost = healthy[best].cost;
    decision.rationale =
        best == 0 ? "uncontended optimum"
                  : "diverted to variant #" + std::to_string(best) +
                        " to avoid contention";
  } else {
    // Forced extreme (CPU-only / full-offload): still costed, so the
    // ledger and the rate cap stay honest.
    decision.placement = forced;
    bool found = false;
    for (const RankedPlacement& v : variants) {
      if (v.placement.sites == decision.placement.sites) {
        decision.cost = v.cost;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Internal("scheduler: forced placement '" +
                              decision.placement.name +
                              "' is not among the enumerated plan variants");
    }
    decision.rationale = choice == PlacementChoice::kCpuOnly
                             ? "forced cpu-only"
                             : "forced full-offload";
  }
  // Admission-time fair share: an arriving flow joining n running network
  // users gets capacity / (n + 1) so it cannot starve them.
  if (decision.cost.network_bytes > 0 && committed.network_users >= 1) {
    decision.network_rate_limit_gbps =
        NetworkGbps() / static_cast<double>(committed.network_users + 1);
    decision.rationale += "; fair-share cap across " +
                          std::to_string(committed.network_users + 1) +
                          " network flows";
  }
  DFLOW_TRACE(engine_->tracer(),
              Instant("sched", "scheduler", "plan_one",
                      engine_->fabric().simulator().now(),
                      /*value=*/committed.network_users,
                      decision.placement.name + " (" + decision.rationale +
                          ")"));
  return decision;
}

Result<Engine::ConcurrentResult> Scheduler::Run(
    const std::vector<QuerySpec>& specs, const ScheduleDecision& decision) {
  return engine_->ExecuteConcurrent(specs, decision.placements,
                                    decision.network_rate_limits_gbps);
}

}  // namespace dflow
