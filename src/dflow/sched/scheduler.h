#ifndef DFLOW_SCHED_SCHEDULER_H_
#define DFLOW_SCHED_SCHEDULER_H_

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "dflow/engine/engine.h"

namespace dflow {

/// What the scheduler decided for a batch of concurrent queries: which data
/// path alternative each runs (§7.3: "a scheduler may decide which plan
/// variation to activate at runtime") and an optional network DMA rate cap
/// per query ("the scheduler should be able to rate limit the bandwidth").
struct ScheduleDecision {
  std::vector<Placement> placements;
  std::vector<double> network_rate_limits_gbps;  // 0 = uncapped
  std::vector<std::string> rationale;            // per query, for reports
};

/// Rolling resource ledger for arrival-driven scheduling: the device and
/// network demand committed by queries that are admitted and still
/// running. PlanOne costs candidates *on top of* this ledger; the serving
/// layer Charges a query's demand at admission and Releases it at
/// completion, so every admission decision sees what is already running.
struct CommittedDemand {
  std::array<double, kNumSites> site_busy_ns{};
  double network_ns = 0;     // time the shared network is claimed for
  double network_bytes = 0;  // bytes claimed across the uplink
  int network_users = 0;     // running queries with network traffic
};

/// What the scheduler decided for one incrementally-admitted query.
struct IncrementalDecision {
  Placement placement;
  /// The estimate that was (or is to be) charged to the ledger; hand it
  /// back to Release when the query completes.
  CostEstimate cost;
  /// Admission-time fair share of the network (0 = uncapped): when n
  /// running queries use the uplink, a newly admitted network user is
  /// capped at capacity / n.
  double network_rate_limit_gbps = 0;
  std::string rationale;
};

/// Interference-aware scheduler over the engine's fabric.
///
/// PlanNaive gives every query its individually optimal variant — which
/// piles all of them onto the same accelerators and links. Plan instead
/// commits queries one at a time, charging each candidate variant's device
/// and link demand on top of what earlier queries already claimed, and
/// picks the variant with the lowest *contended* completion estimate; when
/// the chosen variants oversubscribe the network, flows get fair-share rate
/// caps.
class Scheduler {
 public:
  explicit Scheduler(Engine* engine);

  Result<ScheduleDecision> Plan(const std::vector<QuerySpec>& specs) const;
  Result<ScheduleDecision> PlanNaive(
      const std::vector<QuerySpec>& specs) const;

  /// Executes a decision on the engine (all queries admitted at t = 0).
  /// Every query's program passes the engine's static gate, under the
  /// default verify mode, before any of them runs.
  Result<Engine::ConcurrentResult> Run(const std::vector<QuerySpec>& specs,
                                       const ScheduleDecision& decision);

  // ------------------------------------------------- incremental planning
  // Arrival-driven form of Plan: queries are admitted one at a time as
  // they arrive, each costed against the demand of queries still running.
  // The serving layer calls PlanOne at admission, Charge when the query
  // launches, and Release when it completes.

  /// Vetoes candidate placements (e.g. ones whose devices have an open
  /// circuit breaker). Applied to kAuto variant selection on top of the
  /// health registry; like the health filter, it is advisory — when it
  /// rejects every candidate the unfiltered list is kept, so PlanOne
  /// always returns a plan and the caller decides whether to launch it.
  using PlacementFilter = std::function<bool(const Placement&)>;

  /// Picks the variant with the lowest contended completion estimate given
  /// what is already committed. kCpuOnly / kFullOffload force the extreme
  /// plan (still costed, for the ledger; the filter is not applied to a
  /// forced choice). Does not mutate `committed`.
  Result<IncrementalDecision> PlanOne(
      const QuerySpec& spec, const CommittedDemand& committed,
      PlacementChoice choice = PlacementChoice::kAuto,
      const PlacementFilter& filter = nullptr) const;

  /// PlanOne's decision core, starting from an already-enumerated variant
  /// table (e.g. a program-cache entry) instead of re-planning the spec.
  /// `forced` is the pre-resolved extreme placement for kCpuOnly /
  /// kFullOffload and is ignored for kAuto. Decisions are byte-identical
  /// to PlanOne over the same variants — PlanOne delegates here.
  Result<IncrementalDecision> PlanFromVariants(
      const std::vector<RankedPlacement>& variants, const Placement& forced,
      const CommittedDemand& committed,
      PlacementChoice choice = PlacementChoice::kAuto,
      const PlacementFilter& filter = nullptr) const;

  /// Adds / removes a query's estimated demand to / from the ledger.
  void Charge(const CostEstimate& cost, CommittedDemand* committed) const;
  void Release(const CostEstimate& cost, CommittedDemand* committed) const;

 private:
  /// The shared-network bottleneck bandwidth (min of uplink and network).
  double NetworkGbps() const;
  /// Completion estimate for `cost` stacked on top of `committed` — the
  /// same formula Plan uses when committing a batch sequentially.
  double ContendedCompletionNs(const CostEstimate& cost,
                               const CommittedDemand& committed) const;

  Engine* engine_;
};

}  // namespace dflow

#endif  // DFLOW_SCHED_SCHEDULER_H_
