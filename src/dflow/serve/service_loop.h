#ifndef DFLOW_SERVE_SERVICE_LOOP_H_
#define DFLOW_SERVE_SERVICE_LOOP_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dflow/common/lock_rank.h"
#include "dflow/common/thread_annotations.h"
#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/lifecycle/breaker.h"
#include "dflow/lifecycle/brownout.h"
#include "dflow/lifecycle/lifecycle.h"
#include "dflow/sched/demand_ledger.h"
#include "dflow/sched/scheduler.h"
#include "dflow/serve/admission.h"
#include "dflow/serve/service_report.h"
#include "dflow/serve/workload.h"

namespace dflow::serve {

/// Query-lifecycle policy of one service run (DESIGN.md §7). The defaults
/// reproduce the pre-lifecycle serving behaviour exactly: a device crash
/// gets one immediate CPU-only retry and a permanent quarantine, there are
/// no deadlines, and breakers and the brownout ladder are off.
struct LifecyclePolicy {
  lifecycle::RetryPolicy retry;
  lifecycle::BreakerConfig breaker;
  lifecycle::BrownoutConfig brownout;
  /// Permanently quarantine a crashed device in the engine's health
  /// registry (the PR 1 policy). Turn off when breakers are enabled — a
  /// breaker re-probes a flapping device instead of writing it off.
  bool quarantine_on_crash = true;
};

/// An externally scheduled cancellation (tests / the chaos bench): cancel
/// `query_id` at virtual time `at_ns`, wherever the query is at that
/// moment — still queued, in retry backoff, or running on the fabric.
struct CancelRequest {
  sim::SimTime at_ns = 0;
  uint64_t query_id = 0;
};

struct ServiceConfig {
  /// Seeds every arrival / mix RNG stream (per tenant, derived).
  uint64_t seed = 42;
  /// Open-loop arrivals and closed-loop reissues stop at this virtual
  /// time; queries already admitted or queued still drain.
  sim::SimTime horizon_ns = 50'000'000;
  /// Plan-variant policy for every admitted query. kAuto lets the
  /// interference-aware scheduler pick per arrival; the extremes pin the
  /// whole service to one data path (the bench sweeps both).
  PlacementChoice placement = PlacementChoice::kAuto;
  AdmissionConfig admission;
  /// Deadlines, retries, breakers, brownout (defaults = legacy behaviour).
  LifecyclePolicy lifecycle;
  /// Explicit cancellations to inject at fixed virtual times.
  std::vector<CancelRequest> cancel_schedule;
  /// Copy each terminal attempt's sink chunks into its QueryOutcome (the
  /// chaos oracle fingerprints them against a fault-free reference). Off
  /// by default: serving benches only need the counts.
  bool collect_results = false;
  /// Event budget for the whole service run.
  uint64_t max_events = 200'000'000;
  /// Capacity of the compiled-program admission cache (entries = distinct
  /// (plan fingerprint, fabric epoch, verifier version) keys).
  size_t program_cache_capacity = 64;
};

struct ServiceResult {
  ServiceReport service;
  /// Fabric-level measurements of the whole run (variant "service"):
  /// bytes per data-path segment, device busy time, aggregated fault
  /// counters across all per-query graphs.
  ExecutionReport fabric;

  /// Terminal record of one admitted query — what the chaos lanes
  /// fingerprint over (retried queries must land on the same rows as a
  /// fault-free reference run of the same plan).
  struct QueryOutcome {
    uint64_t query_id = 0;
    size_t tenant = 0;
    std::string template_name;
    lifecycle::OutcomeCode outcome = lifecycle::OutcomeCode::kDone;
    /// Launch attempts consumed (1 = no retries; 0 = cancelled while
    /// queued).
    uint32_t attempts = 0;
    /// Rows the terminal attempt delivered to its sink.
    uint64_t result_rows = 0;
    /// The sink chunks themselves; only when collect_results is set.
    std::vector<DataChunk> chunks;
  };
  /// Every query that entered the lifecycle, ordered by query id.
  std::vector<QueryOutcome> outcomes;
};

/// The virtual-time query service: wires the workload driver, the
/// admission controller, the incremental scheduler, the lifecycle manager
/// (deadlines, cancellation, retries), per-device circuit breakers, the
/// brownout ladder, and per-query dataflow graphs onto one shared fabric
/// simulation.
///
/// Every admitted query runs as its own DataflowGraph on the engine's
/// simulator, so one query's failure (crashed accelerator, delivery
/// give-up) never poisons its neighbours. On each arrival or completion
/// the loop re-invokes Scheduler::PlanOne against the live demand ledger,
/// so later admissions divert around the load earlier ones committed —
/// §7.3's runtime plan choice, driven by arrivals instead of a batch.
class ServiceLoop {
 public:
  ServiceLoop(Engine* engine, std::vector<TenantConfig> tenants,
              ServiceConfig config);

  /// Runs the whole service to completion (resets the fabric first). A bad
  /// TenantConfig (see ValidateTenants) or a zero program_cache_capacity
  /// is InvalidArgument naming the field, before anything runs.
  Result<ServiceResult> Run();

 private:
  struct QueryState {
    Ticket ticket;
    size_t graph_index = 0;
    Engine::AdmittedPipeline pipeline;
    CostEstimate cost;  // charged to the ledger; released on completion
    std::string variant;
    std::string template_name;
    bool degraded = false;
    /// Devices the placement runs on — circuit-breaker feedback targets.
    std::vector<std::string> devices;
    /// Set when this launch took a half-open breaker's probe slot.
    std::string probe_device;
    /// The cache entry this launch was served from — the retry path reuses
    /// its variant table instead of re-enumerating placements.
    std::shared_ptr<compile::CompiledQuery> plan;
  };
  /// A retry waiting out its backoff (slot retained; cancellable).
  struct PendingRetry {
    Ticket ticket;
    PlacementChoice placement = PlacementChoice::kCpuOnly;
    std::shared_ptr<compile::CompiledQuery> plan;
  };

  void OnArrival(const Arrival& arrival, bool closed_loop);
  void DrainRunnable();
  /// Launches one attempt. `is_retry` relaunches after a transient
  /// failure, pinned to `retry_placement` from the fallback chain;
  /// `prior_plan` (retries only) carries the previous attempt's cache
  /// entry so a post-crash relaunch recompiles from its variant table
  /// instead of re-planning from scratch.
  Status StartQuery(const Ticket& ticket, bool is_retry,
                    PlacementChoice retry_placement,
                    const std::shared_ptr<compile::CompiledQuery>& prior_plan =
                        nullptr);
  void OnQueryDone(uint64_t query_id, const Status& status);
  /// Deadline event: cancels the query with DEADLINE_EXCEEDED wherever it
  /// is; a no-op once the query reached a terminal state.
  void OnDeadline(uint64_t query_id);
  /// Cancels a live query (queued, in backoff, or running). The reason's
  /// code (kDeadlineExceeded vs. kCancelled) picks the outcome counter.
  void CancelQuery(uint64_t query_id, Status reason);
  /// Relaunches a retry whose backoff elapsed (unless cancelled meanwhile).
  void LaunchRetry(uint64_t query_id);
  /// Terminal housekeeping for a query that held an in-flight slot.
  void FinishSlot(const Ticket& ticket);
  void RecordOutcome(const Ticket& ticket, lifecycle::OutcomeCode outcome,
                     uint32_t attempts);
  /// Re-evaluates the brownout ladder against live signals.
  void UpdateBrownout();
  void ScheduleReissue(size_t tenant);
  void EmitQueueDepth(size_t tenant);
  ExecutionReport CollectFabricReport() const;

  Engine* engine_;
  std::vector<TenantConfig> tenants_;
  /// [tenant][template] plan fingerprint, the program-cache key's first
  /// half: computed once here, since templates never change.
  std::vector<std::vector<uint64_t>> template_fingerprints_;
  ServiceConfig config_;
  WorkloadDriver driver_;
  AdmissionController admission_;
  Scheduler scheduler_;
  DemandLedger ledger_;
  lifecycle::LifecycleManager lifecycle_;
  lifecycle::BreakerRegistry breakers_;
  lifecycle::BrownoutController brownout_;
  /// Compiled-program admission cache: repeat queries skip planning,
  /// placement enumeration and re-verification (DESIGN.md §10).
  compile::ProgramCache program_cache_;

  std::vector<std::unique_ptr<DataflowGraph>> graphs_;
  std::map<uint64_t, QueryState> active_;
  std::map<uint64_t, PendingRetry> pending_retries_;
  /// Completion state: written on every terminal transition, read by the
  /// end-of-run drain and the brownout signal sampler. Guarded at
  /// LockRank::kServeCompletion so a monitoring thread can snapshot
  /// outcome counts while the event loop runs; the loop itself never
  /// nests this lock with another ranked lock.
  mutable RankedMutex completion_mutex_{LockRank::kServeCompletion};
  /// query_id -> (graph index, sink node) of the *terminal* attempt: for
  /// result-row accounting after the run (graphs outlive their queries).
  std::map<uint64_t, std::pair<size_t, size_t>> finished_
      DFLOW_GUARDED_BY(completion_mutex_);
  std::map<uint64_t, ServiceResult::QueryOutcome> outcomes_
      DFLOW_GUARDED_BY(completion_mutex_);
  uint64_t next_query_id_ = 0;
  Status failure_;  // first configuration-level error (fails the run)

  std::vector<TenantStats> stats_;
  std::vector<std::vector<sim::SimTime>> latencies_;  // per tenant
  uint64_t peak_in_flight_ = 0;
  std::string first_failed_device_;
  /// Cumulative run-wide counters feeding the brownout signals and the
  /// ledger-conservation invariant.
  uint64_t deadline_missed_total_ DFLOW_GUARDED_BY(completion_mutex_) = 0;
  uint64_t terminal_total_ DFLOW_GUARDED_BY(completion_mutex_) = 0;
  /// Virtual time of the last real service action; reported as the
  /// makespan (stale deadline events in the far future are no-ops and do
  /// not extend it).
  sim::SimTime last_activity_ns_ = 0;
  uint64_t ledger_charges_ = 0;
  uint64_t ledger_releases_ = 0;
};

}  // namespace dflow::serve

#endif  // DFLOW_SERVE_SERVICE_LOOP_H_
