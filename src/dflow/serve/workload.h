#ifndef DFLOW_SERVE_WORKLOAD_H_
#define DFLOW_SERVE_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/common/random.h"
#include "dflow/common/status.h"
#include "dflow/plan/query_spec.h"
#include "dflow/sim/simulator.h"

namespace dflow::serve {

/// One entry of a tenant's query-template mix.
struct TemplateMix {
  QuerySpec spec;
  std::string name;  // template label; appears in traces and spans
  uint32_t weight = 1;
};

/// How one tenant offers load to the service.
struct TenantConfig {
  std::string name;
  /// Priority class; lower number is served first when queued.
  int priority = 1;
  /// Bounded admission queue (waiting, not in flight); arrivals beyond
  /// this are shed with QUEUE_FULL.
  size_t queue_capacity = 8;
  /// Per-tenant in-flight cap (0 = only the global cap applies).
  size_t max_in_flight = 0;
  /// Relative virtual-time deadline for each of this tenant's queries,
  /// measured from arrival (0 = none). A query that misses it — queued or
  /// running — is cancelled with DEADLINE_EXCEEDED.
  sim::SimTime deadline_ns = 0;

  // Open-loop arrivals, Poisson-like: each slot of slot_ns draws
  // Bernoulli(arrival_probability); an accepted slot places the arrival
  // uniformly inside the slot. Pure integer and IEEE-compare arithmetic —
  // no libm — so the arrival sequence is bit-reproducible across
  // platforms, which the byte-identical-report guarantee depends on.
  sim::SimTime slot_ns = 1'000'000;
  double arrival_probability = 0.0;  // per slot; 0 disables open-loop

  // Closed-loop clients: each issues a query, waits for its completion,
  // thinks, and reissues until the horizon.
  size_t closed_loop_clients = 0;
  sim::SimTime think_time_ns = 0;

  std::vector<TemplateMix> templates;
};

/// One query arrival (open- or closed-loop).
struct Arrival {
  sim::SimTime at = 0;
  size_t tenant = 0;
  size_t template_index = 0;
};

/// InvalidArgument naming the first bad field: no tenants, a tenant without
/// a positive-weight template, or a zero slot_ns.
Status ValidateTenants(const std::vector<TenantConfig>& tenants);

/// Deterministic arrival-stream generator. One Random stream per tenant
/// per purpose (arrival times vs. template mix), each derived from the
/// base seed and the tenant index, so adding a tenant or reordering calls
/// for one tenant never perturbs another tenant's sequence.
class WorkloadDriver {
 public:
  /// `tenants` must pass ValidateTenants.
  WorkloadDriver(std::vector<TenantConfig> tenants, uint64_t seed,
                 sim::SimTime horizon_ns);

  const std::vector<TenantConfig>& tenants() const { return tenants_; }
  sim::SimTime horizon_ns() const { return horizon_ns_; }

  /// Every open-loop arrival in [0, horizon), sorted by (time, tenant);
  /// template indices already sampled. Call once.
  std::vector<Arrival> OpenLoopArrivals();

  /// Samples which template the next query of `tenant` runs.
  size_t PickTemplate(size_t tenant);

  /// When a closed-loop client of `tenant` first issues (staggered
  /// uniformly inside the tenant's first slot).
  sim::SimTime InitialIssueTime(size_t tenant);

  /// Think time before a closed-loop client reissues: the configured base
  /// plus uniform jitter of up to one slot.
  sim::SimTime NextThinkTime(size_t tenant);

 private:
  std::vector<TenantConfig> tenants_;
  sim::SimTime horizon_ns_;
  std::vector<Random> arrival_rng_;  // open-loop slots + closed-loop timing
  std::vector<Random> mix_rng_;      // template choice
};

}  // namespace dflow::serve

#endif  // DFLOW_SERVE_WORKLOAD_H_
