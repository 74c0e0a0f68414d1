#include "dflow/serve/service_loop.h"

#include <algorithm>
#include <utility>

#include "dflow/common/logging.h"
#include "dflow/exec/invariants.h"
#include "dflow/plan/fingerprint.h"

namespace dflow::serve {

ServiceLoop::ServiceLoop(Engine* engine, std::vector<TenantConfig> tenants,
                         ServiceConfig config)
    : engine_(engine),
      tenants_(std::move(tenants)),
      config_(config),
      driver_(tenants_, config.seed, config.horizon_ns),
      admission_(config.admission, &tenants_),
      scheduler_(engine),
      lifecycle_(config.lifecycle.retry),
      breakers_(config.lifecycle.breaker),
      brownout_(config.lifecycle.brownout),
      program_cache_(config.program_cache_capacity) {
  DFLOW_CHECK(engine != nullptr);
  stats_.resize(tenants_.size());
  latencies_.resize(tenants_.size());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    stats_[t].name = tenants_[t].name;
    template_fingerprints_.emplace_back();
    for (const TemplateMix& tmpl : tenants_[t].templates) {
      template_fingerprints_[t].push_back(FingerprintQuerySpec(tmpl.spec));
    }
  }
}

Result<ServiceResult> ServiceLoop::Run() {
  DFLOW_RETURN_NOT_OK(ValidateTenants(tenants_));
  if (config_.program_cache_capacity == 0) {
    return Status::InvalidArgument(
        "ServiceConfig.program_cache_capacity must be > 0");
  }
  if (config_.admission.global_max_in_flight == 0) {
    return Status::InvalidArgument(
        "ServiceConfig.admission.global_max_in_flight must be > 0");
  }
  engine_->fabric().Reset();
  if (engine_->tracer() != nullptr) engine_->tracer()->Clear();
  sim::Simulator& sim = engine_->fabric().simulator();

  // Open-loop arrivals are generated up front (they depend only on the
  // seed); closed-loop clients schedule themselves as they complete.
  for (const Arrival& a : driver_.OpenLoopArrivals()) {
    sim.ScheduleAt(a.at, [this, a] { OnArrival(a, /*closed_loop=*/false); });
  }
  for (size_t t = 0; t < tenants_.size(); ++t) {
    for (size_t c = 0; c < tenants_[t].closed_loop_clients; ++c) {
      Arrival a;
      a.at = driver_.InitialIssueTime(t);
      a.tenant = t;
      a.template_index = driver_.PickTemplate(t);
      sim.ScheduleAt(a.at, [this, a] { OnArrival(a, /*closed_loop=*/true); });
    }
  }
  for (const CancelRequest& cancel : config_.cancel_schedule) {
    const uint64_t id = cancel.query_id;
    sim.ScheduleAt(cancel.at_ns, [this, id] {
      if (!failure_.ok()) return;
      CancelQuery(id, Status::Cancelled("query " + std::to_string(id) +
                                        " cancelled by schedule"));
    });
  }

  const bool drained = sim.RunWithLimit(config_.max_events);
  DFLOW_RETURN_NOT_OK(failure_);
  if (!drained) {
    return Status::InvalidArgument("service run exceeded event budget (" +
                                   std::to_string(config_.max_events) + ")");
  }
  if (!active_.empty()) {
    return Status::Internal("service drained with " +
                            std::to_string(active_.size()) +
                            " queries still marked active");
  }
  if (admission_.queued_total() != 0) {
    return Status::Internal("service drained with " +
                            std::to_string(admission_.queued_total()) +
                            " tickets still queued");
  }
  // Conservation at drain: every launch charged the ledger exactly once
  // and every terminal attempt released it exactly once — a crash retry
  // that double-charged (or a cancellation that leaked its release) shows
  // up here as residual demand.
  DFLOW_INVARIANT(pending_retries_.empty(),
                  "service drained with retries still pending backoff");
  DFLOW_INVARIANT(ledger_charges_ == ledger_releases_,
                  "scheduler ledger: " + std::to_string(ledger_charges_) +
                      " charges vs " + std::to_string(ledger_releases_) +
                      " releases");
  const CommittedDemand drained_demand = ledger_.Snapshot();
  DFLOW_INVARIANT(drained_demand.network_users == 0,
                  "scheduler ledger: " +
                      std::to_string(drained_demand.network_users) +
                      " network users still committed at drain");
  DFLOW_INVARIANTS_ONLY({
    double residual = drained_demand.network_ns + drained_demand.network_bytes;
    for (int s = 0; s < kNumSites; ++s) {
      residual += drained_demand.site_busy_ns[s];
    }
    DFLOW_INVARIANT(residual <= 1e-3,
                    "scheduler ledger: residual committed demand " +
                        std::to_string(residual) + " at drain");
  });

  ServiceResult result;
  ServiceReport& report = result.service;
  // Not sim.now(): a stale deadline event for a query that already
  // finished is a no-op far in the virtual future and must not pad the
  // reported makespan.
  report.makespan_ns = last_activity_ns_;
  report.peak_in_flight = peak_in_flight_;
  std::vector<sim::SimTime> all_latencies;
  for (size_t t = 0; t < tenants_.size(); ++t) {
    TenantStats& ts = stats_[t];
    ts.p50_ns = PercentileNs(latencies_[t], 0.50);
    ts.p95_ns = PercentileNs(latencies_[t], 0.95);
    ts.p99_ns = PercentileNs(latencies_[t], 0.99);
    report.arrivals_total += ts.arrivals;
    report.admitted_total += ts.admitted;
    report.shed_total +=
        ts.shed_queue_full + ts.shed_overload + ts.shed_brownout;
    report.completed_total += ts.completed;
    report.failed_total += ts.failed;
    report.degraded_total += ts.degraded;
    report.deadline_missed_total += ts.deadline_missed;
    report.cancelled_total += ts.cancelled;
    report.retries_total += ts.retries;
    report.retry_exhausted_total += ts.retry_exhausted;
    report.shed_brownout_total += ts.shed_brownout;
    all_latencies.insert(all_latencies.end(), latencies_[t].begin(),
                         latencies_[t].end());
    report.tenants.push_back(ts);
  }
  report.p99_ns = PercentileNs(std::move(all_latencies), 0.99);
  const compile::CacheStats& cache = program_cache_.stats();
  report.cache_hits = cache.hits;
  report.cache_misses = cache.misses;
  report.cache_evictions = cache.evictions;
  report.cache_recompiles = cache.recompiles;
  report.cache_invalidations = cache.invalidations;
  report.breaker_transitions = breakers_.transitions_total();
  report.breaker_probes = breakers_.probes_total();
  report.brownout_escalations = brownout_.escalations();
  report.brownout_peak_level =
      static_cast<uint64_t>(brownout_.peak_level());
  result.fabric = CollectFabricReport();
  result.fabric.fault.cpu_fallback = report.degraded_total > 0;
  result.fabric.fault.failed_device = first_failed_device_;
  result.fabric.result_rows = 0;
  {
    RankedMutexLock lock(&completion_mutex_);
    for (const auto& [id, st] : finished_) {
      uint64_t rows = 0;
      for (const DataChunk& c : graphs_[st.first]->sink_chunks(st.second)) {
        rows += c.num_rows();
      }
      result.fabric.result_rows += rows;
      auto out = outcomes_.find(id);
      if (out != outcomes_.end()) {
        out->second.result_rows = rows;
        if (config_.collect_results) {
          out->second.chunks = graphs_[st.first]->sink_chunks(st.second);
        }
      }
    }
    for (auto& [id, outcome] : outcomes_) {
      (void)id;
      result.outcomes.push_back(std::move(outcome));
    }
  }
  return result;
}

void ServiceLoop::OnArrival(const Arrival& arrival, bool closed_loop) {
  if (!failure_.ok()) return;
  const sim::SimTime now = engine_->fabric().simulator().now();
  last_activity_ns_ = now;
  Ticket ticket;
  ticket.query_id = next_query_id_++;
  ticket.tenant = arrival.tenant;
  ticket.template_index = arrival.template_index;
  ticket.arrival_ns = now;
  ticket.closed_loop = closed_loop;

  TenantStats& ts = stats_[arrival.tenant];
  ++ts.arrivals;
  const TenantConfig& tenant = tenants_[arrival.tenant];
  const std::string& template_name =
      tenant.templates[arrival.template_index].name;
  DFLOW_TRACE(engine_->tracer(),
              Instant("serve", "tenant:" + tenant.name, "arrival", now,
                      ticket.query_id, template_name));

  // Brownout shedding precedes queueing: at SHED_LOW_PRIORITY the ladder
  // drops low-priority arrivals, at PROBES_ONLY it drops everything (the
  // probes it still admits are launches of already-queued queries).
  const lifecycle::BrownoutLevel level = brownout_.level();
  if (config_.lifecycle.brownout.enabled &&
      (level == lifecycle::BrownoutLevel::kProbesOnly ||
       (level >= lifecycle::BrownoutLevel::kShedLowPriority &&
        tenant.priority >= config_.lifecycle.brownout.shed_priority_min))) {
    ++ts.shed_brownout;
    DFLOW_TRACE(engine_->tracer(),
                Instant("serve", "tenant:" + tenant.name,
                        std::string("shed:") +
                            RejectCodeName(RejectCode::kBrownout),
                        now, ticket.query_id, template_name));
    if (closed_loop) ScheduleReissue(arrival.tenant);
    UpdateBrownout();
    return;
  }

  if (std::optional<RejectCode> rejected = admission_.Offer(ticket)) {
    if (*rejected == RejectCode::kQueueFull) {
      ++ts.shed_queue_full;
    } else {
      ++ts.shed_overload;
    }
    DFLOW_TRACE(engine_->tracer(),
                Instant("serve", "tenant:" + tenant.name,
                        std::string("shed:") + RejectCodeName(*rejected), now,
                        ticket.query_id, template_name));
    // A shed closed-loop client backs off a think time and tries again.
    if (closed_loop) ScheduleReissue(arrival.tenant);
    UpdateBrownout();
    return;
  }
  // Accepted into the lifecycle: create the record (and cancel token) and
  // arm the absolute virtual-time deadline.
  const sim::SimTime deadline =
      tenant.deadline_ns == 0 ? 0 : now + tenant.deadline_ns;
  lifecycle_.Admit(ticket.query_id, deadline);
  if (deadline > 0) {
    const uint64_t id = ticket.query_id;
    engine_->fabric().simulator().ScheduleAt(deadline,
                                             [this, id] { OnDeadline(id); });
  }
  UpdateBrownout();
  EmitQueueDepth(arrival.tenant);
  DrainRunnable();
}

void ServiceLoop::DrainRunnable() {
  while (true) {
    // PROBES_ONLY serves at concurrency one: the single launch doubles as
    // the breaker probe, and completions keep re-entering this loop, so
    // the queue drains (slowly) instead of deadlocking.
    if (brownout_.level() == lifecycle::BrownoutLevel::kProbesOnly &&
        admission_.in_flight_total() >= 1) {
      break;
    }
    std::optional<Ticket> ticket = admission_.PopRunnable();
    if (!ticket.has_value()) break;
    const Status started = StartQuery(*ticket, /*is_retry=*/false,
                                      PlacementChoice::kCpuOnly);
    if (!started.ok()) {
      failure_ = started;
      return;
    }
    peak_in_flight_ =
        std::max<uint64_t>(peak_in_flight_, admission_.in_flight_total());
    EmitQueueDepth(ticket->tenant);
  }
  DFLOW_TRACE(engine_->tracer(),
              Counter("serve", "service", "in_flight",
                      engine_->fabric().simulator().now(),
                      admission_.in_flight_total()));
}

Status ServiceLoop::StartQuery(
    const Ticket& ticket, bool is_retry, PlacementChoice retry_placement,
    const std::shared_ptr<compile::CompiledQuery>& prior_plan) {
  const sim::SimTime now = engine_->fabric().simulator().now();
  const TenantConfig& tenant = tenants_[ticket.tenant];
  const TemplateMix& tmpl = tenant.templates[ticket.template_index];
  TenantStats& ts = stats_[ticket.tenant];
  const lifecycle::QueryRecord* record = lifecycle_.Get(ticket.query_id);
  DFLOW_CHECK(record != nullptr);

  // A query popped at (or past) its deadline is a miss, not a launch.
  if (record->deadline_ns > 0 && now >= record->deadline_ns) {
    ++ts.deadline_missed;
    {
      RankedMutexLock lock(&completion_mutex_);
      ++deadline_missed_total_;
    }
    RecordOutcome(ticket, lifecycle::OutcomeCode::kDeadlineExceeded,
                  record->attempts);
    DFLOW_TRACE(engine_->tracer(),
                Instant("lifecycle", "tenant:" + tenant.name,
                        "deadline_exceeded", now, ticket.query_id,
                        "missed before launch"));
    lifecycle_.Transition(ticket.query_id, lifecycle::QueryState::kCancelled);
    FinishSlot(ticket);
    return Status::OK();
  }

  // Placement choice: a retry is pinned to its fallback-chain entry; a
  // brownout at FORCE_CHEAP or above pins fresh launches to the cheapest
  // (CPU-only) data path.
  PlacementChoice choice = is_retry ? retry_placement : config_.placement;
  if (!is_retry &&
      brownout_.level() >= lifecycle::BrownoutLevel::kForceCheap &&
      choice != PlacementChoice::kCpuOnly) {
    choice = PlacementChoice::kCpuOnly;
  }

  // Program-cache admission (compile once, serve millions): look the plan
  // up under (fingerprint, fabric epoch, verifier version, node). The
  // epoch is node-scoped — the serving loop launches on compute node 0,
  // and a health change confined to another node must not invalidate this
  // node's programs.
  constexpr int kServeNode = 0;
  program_cache_.InvalidateStaleEpochs(engine_->fabric_epoch(kServeNode));
  const compile::CacheKey key{
      template_fingerprints_[ticket.tenant][ticket.template_index],
      engine_->fabric_epoch(kServeNode), verify::kVerifierVersion,
      kServeNode};
  std::shared_ptr<compile::CompiledQuery> plan = program_cache_.Lookup(key);
  bool fresh_plan = false;
  if (plan == nullptr) {
    if (prior_plan != nullptr &&
        prior_plan->plan_fingerprint == key.plan_fingerprint) {
      // Retry after a crash bumped the epoch: the variant table and the
      // forced extremes are placement-enumeration results, valid across
      // health changes (health filtering happens at decision time), so
      // clone them into the new epoch and only relower what gets chosen —
      // a recompile, not a from-scratch re-plan.
      plan = std::make_shared<compile::CompiledQuery>(*prior_plan);
      plan->fabric_epoch = key.fabric_epoch;
      plan->programs.clear();  // compiled under a stale health registry
    } else {
      DFLOW_ASSIGN_OR_RETURN(plan, engine_->CompilePlan(tmpl.spec));
      fresh_plan = true;
    }
    program_cache_.Insert(key, plan);
  }

  // Decide the variant against a snapshot of the live demand ledger on
  // every launch (the snapshot is coherent: Charge happens after the final
  // choice). Open-breaker devices are vetoed from kAuto selection.
  const CommittedDemand committed = ledger_.Snapshot();
  Scheduler::PlacementFilter filter;
  if (breakers_.enabled() && choice == PlacementChoice::kAuto) {
    filter = [this, now](const Placement& placement) {
      for (const std::string& dev :
           engine_->PlacementDevices(placement, /*node=*/0)) {
        if (!breakers_.Allows(dev, now)) return false;
      }
      return true;
    };
  }
  const Placement forced = choice == PlacementChoice::kFullOffload
                               ? plan->full_offload
                               : plan->cpu_only;
  DFLOW_ASSIGN_OR_RETURN(
      IncrementalDecision decision,
      scheduler_.PlanFromVariants(plan->variants, forced, committed, choice,
                                  filter));
  bool degraded_at_admission = false;
  if (!engine_->PlacementHealthy(decision.placement, /*node=*/0) &&
      choice != PlacementChoice::kCpuOnly) {
    // A forced-offload placement whose accelerator is quarantined falls
    // back to the CPU-only plan instead of launching onto a dead device.
    DFLOW_ASSIGN_OR_RETURN(
        decision,
        scheduler_.PlanFromVariants(plan->variants, plan->cpu_only, committed,
                                    PlacementChoice::kCpuOnly));
    degraded_at_admission = true;
  }
  if (breakers_.enabled() && choice != PlacementChoice::kCpuOnly) {
    // Breaker veto on the final placement (forced choices bypass the kAuto
    // filter): fall back to the CPU-only plan as the deterministic last
    // resort rather than feeding a tripping device.
    bool blocked = false;
    for (const std::string& dev :
         engine_->PlacementDevices(decision.placement, /*node=*/0)) {
      if (!breakers_.Allows(dev, now)) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      DFLOW_ASSIGN_OR_RETURN(
          decision,
          scheduler_.PlanFromVariants(plan->variants, plan->cpu_only,
                                      committed, PlacementChoice::kCpuOnly));
      degraded_at_admission = true;
    }
  }

  // Fetch (or lazily lower) the compiled program for the chosen variant.
  // Cold path: full planning + lowering + one compile-time verification.
  // Warm path: a cache lookup. A new variant of a cached plan — or the
  // CPU-only fallback after a crash — relowers only (a recompile).
  compile::ProgramPtr program = plan->ProgramFor(decision.placement.name);
  const char* cache_event = "cache_hit";
  if (program == nullptr) {
    DFLOW_ASSIGN_OR_RETURN(
        program, engine_->CompileVariant(plan.get(), decision.placement));
    if (fresh_plan) {
      program_cache_.CountMiss();
      cache_event = "cache_miss";
    } else {
      program_cache_.CountRecompile();
      cache_event = "recompile";
    }
  } else {
    program_cache_.CountHit();
  }
  DFLOW_TRACE(engine_->tracer(),
              Instant("compile", "cache", cache_event, now, ticket.query_id,
                      tmpl.name + " -> " + decision.placement.name));

  // Charge the ledger from the program's precomputed demand vector (the
  // same CostEstimate the decision was ranked by).
  decision.cost = program->demand();
  ledger_.Charge(scheduler_, decision.cost);
  ++ledger_charges_;

  graphs_.push_back(
      std::make_unique<DataflowGraph>(&engine_->fabric().simulator()));
  DataflowGraph* graph = graphs_.back().get();
  const size_t graph_index = graphs_.size() - 1;
  const std::string label =
      tenant.name + "#" + std::to_string(ticket.query_id);
  // The program was verified once at compile time against the current
  // fabric epoch (CompileVariant refuses to produce a program under strict
  // mode); an epoch bump strands the cache entry, so there is nothing to
  // re-verify per launch.
  DFLOW_ASSIGN_OR_RETURN(
      Engine::AdmittedPipeline pipeline,
      engine_->BuildProgramPipeline(graph, *program, label,
                                    decision.network_rate_limit_gbps));

  QueryState st;
  st.ticket = ticket;
  st.graph_index = graph_index;
  st.pipeline = pipeline;
  st.cost = decision.cost;
  st.variant = decision.placement.name;
  st.template_name = tmpl.name;
  st.degraded = is_retry || degraded_at_admission;
  st.plan = plan;
  st.devices = engine_->PlacementDevices(decision.placement, /*node=*/0);
  if (breakers_.enabled()) {
    for (const std::string& dev : st.devices) {
      if (breakers_.state(dev, now) == lifecycle::BreakerState::kHalfOpen &&
          breakers_.BeginProbe(dev, now)) {
        st.probe_device = dev;
        DFLOW_TRACE(engine_->tracer(),
                    Instant("lifecycle", "breaker:" + dev, "probe", now,
                            ticket.query_id, label));
        break;  // one probe per launch
      }
    }
  }
  active_.emplace(ticket.query_id, std::move(st));

  if (is_retry || degraded_at_admission) {
    ++ts.degraded;
  }
  if (!is_retry) {
    ++ts.admitted;
    if (now > ticket.arrival_ns) ++ts.queued;
  }
  lifecycle_.OnLaunch(ticket.query_id, is_retry || degraded_at_admission);
  DFLOW_TRACE(engine_->tracer(),
              Instant("serve", "tenant:" + tenant.name, "admit", now,
                      ticket.query_id,
                      decision.placement.name + " (" + decision.rationale +
                          ")"));

  graph->SetCancelToken(record->token);
  const uint64_t query_id = ticket.query_id;
  graph->SetCompletionCallback([this, query_id](const Status& status) {
    OnQueryDone(query_id, status);
  });
  return graph->Launch();
}

void ServiceLoop::OnQueryDone(uint64_t query_id, const Status& status) {
  if (!failure_.ok()) return;
  auto it = active_.find(query_id);
  DFLOW_CHECK(it != active_.end());
  QueryState st = std::move(it->second);
  active_.erase(it);

  const sim::SimTime now = engine_->fabric().simulator().now();
  last_activity_ns_ = now;
  const size_t tenant = st.ticket.tenant;
  const std::string& tenant_name = tenants_[tenant].name;
  TenantStats& ts = stats_[tenant];
  // Release this attempt's demand immediately — also on cancellation and
  // deadline, which is the whole point: a cancelled query frees its
  // scheduler ledger at cancel time, not at drain.
  ledger_.Release(scheduler_, st.cost);
  ++ledger_releases_;

  const lifecycle::QueryRecord* record = lifecycle_.Get(query_id);
  DFLOW_CHECK(record != nullptr);
  const uint32_t attempts = record->attempts;

  if (status.ok()) {
    // Success feedback to every device the placement ran on (closes a
    // half-open breaker's probe, clears failure streaks).
    for (const std::string& dev : st.devices) {
      breakers_.RecordSuccess(dev, now);
    }
    lifecycle_.Transition(query_id, lifecycle::QueryState::kDone);
    {
      RankedMutexLock lock(&completion_mutex_);
      finished_[query_id] = std::make_pair(st.graph_index, st.pipeline.sink);
    }
    RecordOutcome(st.ticket, lifecycle::OutcomeCode::kDone, attempts);
    ++ts.completed;
    latencies_[tenant].push_back(now - st.ticket.arrival_ns);
    DFLOW_TRACE(engine_->tracer(),
                Span("serve", "tenant:" + tenant_name, st.template_name,
                     st.ticket.arrival_ns, now, query_id, st.variant));
    FinishSlot(st.ticket);
    return;
  }

  // Failed attempt: classify structurally (no status-string matching).
  DataflowGraph* graph = graphs_[st.graph_index].get();
  lifecycle::QueryFailure failure;
  failure.kind = graph->failure_kind();
  failure.device = graph->failed_device();
  failure.status = status;

  if (failure.kind == lifecycle::FailureKind::kDeviceCrash &&
      !failure.device.empty()) {
    breakers_.RecordFailure(failure.device, now);
    if (config_.lifecycle.quarantine_on_crash) {
      engine_->MarkDeviceUnhealthy(failure.device);
    }
    if (first_failed_device_.empty()) first_failed_device_ = failure.device;
    DFLOW_TRACE(engine_->tracer(),
                Instant("serve", "tenant:" + tenant_name, "device_crash",
                        now, query_id, failure.device));
  }
  if (!st.probe_device.empty() && st.probe_device != failure.device) {
    // The probe query died of an unrelated cause; free the probe slot
    // conservatively (counts as a failed probe, re-opening the breaker).
    breakers_.RecordFailure(st.probe_device, now);
  }

  const lifecycle::RetryDecision decision = lifecycle_.Decide(query_id, failure);
  if (decision.retry) {
    lifecycle_.OnRetryScheduled(query_id);
    ++ts.retries;
    DFLOW_TRACE(
        engine_->tracer(),
        Instant("lifecycle", "tenant:" + tenant_name, "retry", now, query_id,
                std::string(lifecycle::FailureKindName(failure.kind)) +
                    " backoff=" + std::to_string(decision.backoff_ns) + "ns"));
    // The query keeps its admission slot across the retry; queued queries
    // are untouched — they re-plan around the unhealthy device when their
    // turn comes.
    if (decision.backoff_ns == 0) {
      // Immediate relaunch in the same event (the legacy crash path).
      const Status restarted =
          StartQuery(st.ticket, /*is_retry=*/true, decision.placement,
                     st.plan);
      if (!restarted.ok()) failure_ = restarted;
    } else {
      PendingRetry pending;
      pending.ticket = st.ticket;
      pending.placement = decision.placement;
      pending.plan = st.plan;
      pending_retries_.emplace(query_id, std::move(pending));
      engine_->fabric().simulator().ScheduleAt(
          now + decision.backoff_ns, [this, query_id] { LaunchRetry(query_id); });
    }
    return;
  }

  // Terminal failure: distinct stable outcome codes, not one bucket.
  {
    RankedMutexLock lock(&completion_mutex_);
    finished_[query_id] = std::make_pair(st.graph_index, st.pipeline.sink);
  }
  RecordOutcome(st.ticket, decision.outcome, attempts);
  lifecycle::QueryState terminal = lifecycle::QueryState::kFailed;
  switch (decision.outcome) {
    case lifecycle::OutcomeCode::kDeadlineExceeded:
      ++ts.deadline_missed;
      {
        RankedMutexLock lock(&completion_mutex_);
        ++deadline_missed_total_;
      }
      terminal = lifecycle::QueryState::kCancelled;
      DFLOW_TRACE(engine_->tracer(),
                  Instant("lifecycle", "tenant:" + tenant_name,
                          "deadline_exceeded", now, query_id,
                          status.ToString()));
      break;
    case lifecycle::OutcomeCode::kCancelled:
      ++ts.cancelled;
      terminal = lifecycle::QueryState::kCancelled;
      DFLOW_TRACE(engine_->tracer(),
                  Instant("lifecycle", "tenant:" + tenant_name, "cancelled",
                          now, query_id, status.ToString()));
      break;
    case lifecycle::OutcomeCode::kRetryExhausted:
      ++ts.retry_exhausted;
      DFLOW_TRACE(engine_->tracer(),
                  Instant("lifecycle", "tenant:" + tenant_name,
                          "retry_exhausted", now, query_id,
                          status.ToString()));
      break;
    case lifecycle::OutcomeCode::kDone:
    case lifecycle::OutcomeCode::kFailed:
      ++ts.failed;
      DFLOW_TRACE(engine_->tracer(),
                  Instant("serve", "tenant:" + tenant_name, "query_failed",
                          now, query_id, status.ToString()));
      break;
  }
  lifecycle_.Transition(query_id, terminal);
  FinishSlot(st.ticket);
}

void ServiceLoop::OnDeadline(uint64_t query_id) {
  if (!failure_.ok()) return;
  CancelQuery(query_id,
              Status::DeadlineExceeded("query " + std::to_string(query_id) +
                                       " passed its deadline"));
}

void ServiceLoop::CancelQuery(uint64_t query_id, Status reason) {
  const lifecycle::QueryRecord* record = lifecycle_.Get(query_id);
  if (record == nullptr) return;  // already terminal
  const bool deadline = reason.IsDeadlineExceeded();
  const sim::SimTime now = engine_->fabric().simulator().now();
  last_activity_ns_ = now;
  switch (record->state) {
    case lifecycle::QueryState::kAdmitted: {
      // Still queued: drop the ticket before it ever launches.
      std::optional<Ticket> ticket = admission_.CancelQueued(query_id);
      DFLOW_CHECK(ticket.has_value());
      TenantStats& ts = stats_[ticket->tenant];
      if (deadline) {
        ++ts.deadline_missed;
        RankedMutexLock lock(&completion_mutex_);
        ++deadline_missed_total_;
      } else {
        ++ts.cancelled;
      }
      RecordOutcome(*ticket,
                    deadline ? lifecycle::OutcomeCode::kDeadlineExceeded
                             : lifecycle::OutcomeCode::kCancelled,
                    /*attempts=*/0);
      DFLOW_TRACE(engine_->tracer(),
                  Instant("lifecycle",
                          "tenant:" + tenants_[ticket->tenant].name,
                          deadline ? "deadline_exceeded" : "cancelled", now,
                          query_id, "while queued"));
      lifecycle_.Transition(query_id, lifecycle::QueryState::kCancelled);
      {
        RankedMutexLock lock(&completion_mutex_);
        ++terminal_total_;
      }
      UpdateBrownout();
      EmitQueueDepth(ticket->tenant);
      if (ticket->closed_loop) ScheduleReissue(ticket->tenant);
      break;
    }
    case lifecycle::QueryState::kRetrying: {
      // Waiting out a retry backoff: the scheduled relaunch becomes a
      // no-op once the pending entry is gone.
      auto it = pending_retries_.find(query_id);
      DFLOW_CHECK(it != pending_retries_.end());
      const Ticket ticket = it->second.ticket;
      pending_retries_.erase(it);
      TenantStats& ts = stats_[ticket.tenant];
      if (deadline) {
        ++ts.deadline_missed;
        RankedMutexLock lock(&completion_mutex_);
        ++deadline_missed_total_;
      } else {
        ++ts.cancelled;
      }
      RecordOutcome(ticket,
                    deadline ? lifecycle::OutcomeCode::kDeadlineExceeded
                             : lifecycle::OutcomeCode::kCancelled,
                    record->attempts);
      DFLOW_TRACE(engine_->tracer(),
                  Instant("lifecycle", "tenant:" + tenants_[ticket.tenant].name,
                          deadline ? "deadline_exceeded" : "cancelled", now,
                          query_id, "during retry backoff"));
      lifecycle_.Transition(query_id, lifecycle::QueryState::kCancelled);
      FinishSlot(ticket);
      break;
    }
    case lifecycle::QueryState::kRunning:
    case lifecycle::QueryState::kDegraded: {
      // Running on the fabric: set the token (so in-flight graph events
      // observe it) and fail the graph now; its completion callback runs
      // synchronously and does all terminal accounting.
      auto it = active_.find(query_id);
      DFLOW_CHECK(it != active_.end());
      record->token->Cancel(reason);
      graphs_[it->second.graph_index]->Cancel(std::move(reason));
      break;
    }
    case lifecycle::QueryState::kDone:
    case lifecycle::QueryState::kCancelled:
    case lifecycle::QueryState::kFailed:
      break;  // unreachable: terminal records are erased
  }
}

void ServiceLoop::LaunchRetry(uint64_t query_id) {
  if (!failure_.ok()) return;
  auto it = pending_retries_.find(query_id);
  if (it == pending_retries_.end()) return;  // cancelled during backoff
  last_activity_ns_ = engine_->fabric().simulator().now();
  const PendingRetry pending = std::move(it->second);
  pending_retries_.erase(it);
  const Status restarted = StartQuery(pending.ticket, /*is_retry=*/true,
                                      pending.placement, pending.plan);
  if (!restarted.ok()) failure_ = restarted;
}

void ServiceLoop::FinishSlot(const Ticket& ticket) {
  {
    RankedMutexLock lock(&completion_mutex_);
    ++terminal_total_;
  }
  admission_.OnCompletion(ticket.tenant);
  UpdateBrownout();
  if (ticket.closed_loop) ScheduleReissue(ticket.tenant);
  DrainRunnable();
}

void ServiceLoop::RecordOutcome(const Ticket& ticket,
                                lifecycle::OutcomeCode outcome,
                                uint32_t attempts) {
  ServiceResult::QueryOutcome rec;
  rec.query_id = ticket.query_id;
  rec.tenant = ticket.tenant;
  rec.template_name =
      tenants_[ticket.tenant].templates[ticket.template_index].name;
  rec.outcome = outcome;
  rec.attempts = attempts;
  RankedMutexLock lock(&completion_mutex_);
  outcomes_.emplace(ticket.query_id, std::move(rec));
}

void ServiceLoop::UpdateBrownout() {
  if (!config_.lifecycle.brownout.enabled) return;
  const sim::SimTime now = engine_->fabric().simulator().now();
  lifecycle::BrownoutSignals signals;
  signals.queue_fraction =
      config_.admission.global_queue_capacity == 0
          ? 0.0
          : static_cast<double>(admission_.queued_total()) /
                static_cast<double>(config_.admission.global_queue_capacity);
  {
    RankedMutexLock lock(&completion_mutex_);
    signals.deadline_misses = deadline_missed_total_;
    signals.terminals = terminal_total_;
  }
  signals.open_breakers = breakers_.open_count(now);
  const lifecycle::BrownoutLevel before = brownout_.level();
  const lifecycle::BrownoutLevel after = brownout_.Update(signals, now);
  if (after != before) {
    DFLOW_TRACE(engine_->tracer(),
                Instant("lifecycle", "brownout", lifecycle::BrownoutLevelName(after),
                        now, static_cast<uint64_t>(after),
                        std::string("from ") +
                            lifecycle::BrownoutLevelName(before)));
  }
}

void ServiceLoop::ScheduleReissue(size_t tenant) {
  sim::Simulator& sim = engine_->fabric().simulator();
  const sim::SimTime at = sim.now() + driver_.NextThinkTime(tenant);
  if (at >= config_.horizon_ns) return;  // the client's session is over
  Arrival a;
  a.at = at;
  a.tenant = tenant;
  a.template_index = driver_.PickTemplate(tenant);
  sim.ScheduleAt(at, [this, a] { OnArrival(a, /*closed_loop=*/true); });
}

void ServiceLoop::EmitQueueDepth(size_t tenant) {
  const uint64_t depth = admission_.queued(tenant);
  TenantStats& ts = stats_[tenant];
  ts.queue_depth_peak = std::max(ts.queue_depth_peak, depth);
  DFLOW_TRACE(engine_->tracer(),
              Counter("serve", "queue:" + tenants_[tenant].name, "depth",
                      engine_->fabric().simulator().now(), depth));
}

ExecutionReport ServiceLoop::CollectFabricReport() const {
  sim::Fabric& fabric = engine_->fabric();
  ExecutionReport report;
  report.variant = "service";
  // Time of the last real service action (stale no-op deadline events in
  // the far future do not count).
  report.sim_ns = last_activity_ns_;
  report.media_bytes = fabric.store_media()->bytes_processed();
  report.network_bytes = fabric.storage_uplink()->bytes_transferred();
  report.interconnect_bytes = fabric.node(0).interconnect->bytes_transferred();
  report.membus_bytes = fabric.node(0).memory_bus->bytes_transferred();
  for (const auto& graph : graphs_) {
    // Sum of per-graph peaks: an upper bound on simultaneous in-flight
    // bytes, comparable across runs of the same workload.
    report.peak_queue_bytes += graph->TotalPeakQueueBytes();
  }
  for (sim::Link* l : fabric.AllLinks()) {
    if (l->num_messages() > 0) {
      report.link_bytes[l->name()] = l->bytes_transferred();
    }
    report.fault.chunks_dropped += l->messages_dropped();
    report.fault.chunks_corrupted += l->messages_corrupted();
  }
  for (sim::Device* d : fabric.AllDevices()) {
    if (d->items_processed() > 0) {
      report.device_busy_ns[d->name()] = d->busy_ns();
    }
    report.fault.device_stalls += d->stalls();
    report.fault.device_stall_ns += d->stall_ns();
  }
  for (const auto& graph : graphs_) {
    const DataflowGraph::RecoveryStats& rs = graph->recovery_stats();
    report.fault.retransmits += rs.retransmits;
    report.fault.delivery_timeouts += rs.delivery_timeouts;
    report.fault.checksum_failures += rs.checksum_failures;
    report.fault.storage_io_errors += rs.storage_io_errors;
    report.fault.storage_retries += rs.storage_retries;
  }
  return report;
}

}  // namespace dflow::serve
