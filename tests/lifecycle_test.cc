#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dflow/lifecycle/breaker.h"
#include "dflow/lifecycle/brownout.h"
#include "dflow/lifecycle/lifecycle.h"
#include "dflow/serve/service_loop.h"
#include "dflow/trace/json.h"
#include "dflow/trace/report_json.h"
#include "dflow/workload/tpch_like.h"

namespace dflow::lifecycle {
namespace {

// ---------------------------------------------------- state machine table

TEST(LifecycleStateTest, TransitionTableIsExact) {
  using S = QueryState;
  struct Case {
    S from, to;
    bool legal;
  };
  const Case kTable[] = {
      // From ADMITTED: launch (possibly degraded at admission) or cancel.
      {S::kAdmitted, S::kRunning, true},
      {S::kAdmitted, S::kDegraded, true},
      {S::kAdmitted, S::kCancelled, true},
      {S::kAdmitted, S::kDone, false},
      {S::kAdmitted, S::kRetrying, false},
      {S::kAdmitted, S::kFailed, false},
      // From RUNNING: every terminal except via-queue, plus retry.
      {S::kRunning, S::kDone, true},
      {S::kRunning, S::kRetrying, true},
      {S::kRunning, S::kCancelled, true},
      {S::kRunning, S::kFailed, true},
      {S::kRunning, S::kAdmitted, false},
      {S::kRunning, S::kDegraded, false},
      // DEGRADED behaves like RUNNING.
      {S::kDegraded, S::kDone, true},
      {S::kDegraded, S::kRetrying, true},
      {S::kDegraded, S::kCancelled, true},
      {S::kDegraded, S::kFailed, true},
      {S::kDegraded, S::kRunning, false},
      // From RETRYING: relaunch, cancel mid-backoff, or give up.
      {S::kRetrying, S::kRunning, true},
      {S::kRetrying, S::kDegraded, true},
      {S::kRetrying, S::kCancelled, true},
      {S::kRetrying, S::kFailed, true},
      {S::kRetrying, S::kDone, false},
      {S::kRetrying, S::kAdmitted, false},
      // Terminal states admit nothing.
      {S::kDone, S::kRunning, false},
      {S::kDone, S::kDone, false},
      {S::kCancelled, S::kRunning, false},
      {S::kFailed, S::kRetrying, false},
  };
  for (const Case& c : kTable) {
    EXPECT_EQ(LegalTransition(c.from, c.to), c.legal)
        << QueryStateName(c.from) << " -> " << QueryStateName(c.to);
  }
}

TEST(LifecycleStateTest, StableNames) {
  EXPECT_STREQ(QueryStateName(QueryState::kAdmitted), "ADMITTED");
  EXPECT_STREQ(QueryStateName(QueryState::kRetrying), "RETRYING");
  EXPECT_STREQ(OutcomeCodeName(OutcomeCode::kDone), "DONE");
  EXPECT_STREQ(OutcomeCodeName(OutcomeCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(OutcomeCodeName(OutcomeCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(OutcomeCodeName(OutcomeCode::kRetryExhausted),
               "RETRY_EXHAUSTED");
  EXPECT_STREQ(OutcomeCodeName(OutcomeCode::kFailed), "FAILED");
}

TEST(LifecycleStateTest, TerminalTransitionsEraseTheRecord) {
  LifecycleManager manager{RetryPolicy{}};
  manager.Admit(7, /*deadline_ns=*/0);
  EXPECT_EQ(manager.live(), 1u);
  manager.OnLaunch(7, /*degraded=*/false);
  manager.Transition(7, QueryState::kDone);
  EXPECT_EQ(manager.live(), 0u);
  EXPECT_EQ(manager.Get(7), nullptr);
}

// ------------------------------------------------------- circuit breaker

TEST(BreakerTest, ClosedOpenHalfOpenClosedRoundTrip) {
  BreakerConfig config;
  config.enabled = true;
  config.failure_threshold = 2;
  config.cooldown_ns = 1'000'000;
  config.max_cooldown_ns = 4'000'000;
  BreakerRegistry registry(config);

  // Below the threshold the breaker stays closed.
  registry.RecordFailure("dev", 100);
  EXPECT_EQ(registry.state("dev", 100), BreakerState::kClosed);
  EXPECT_TRUE(registry.Allows("dev", 100));

  // The threshold-th consecutive failure trips it open.
  registry.RecordFailure("dev", 200);
  EXPECT_EQ(registry.state("dev", 200), BreakerState::kOpen);
  EXPECT_FALSE(registry.Allows("dev", 200));
  EXPECT_EQ(registry.open_count(200), 1u);

  // Cool-down elapsed: half-open, exactly one probe slot.
  const sim::SimTime cooled = 200 + 1'000'000;
  EXPECT_EQ(registry.state("dev", cooled), BreakerState::kHalfOpen);
  EXPECT_TRUE(registry.Allows("dev", cooled));
  EXPECT_TRUE(registry.BeginProbe("dev", cooled));
  EXPECT_FALSE(registry.Allows("dev", cooled));   // probe in flight
  EXPECT_FALSE(registry.BeginProbe("dev", cooled));
  EXPECT_EQ(registry.probes_total(), 1u);

  // Probe success closes the breaker.
  registry.RecordSuccess("dev", cooled + 10);
  EXPECT_EQ(registry.state("dev", cooled + 10), BreakerState::kClosed);
  EXPECT_TRUE(registry.Allows("dev", cooled + 10));
  EXPECT_GE(registry.transitions_total(), 3u);  // closed->open->half->closed
}

TEST(BreakerTest, ProbeFailureReopensWithDoubledCappedCooldown) {
  BreakerConfig config;
  config.enabled = true;
  config.failure_threshold = 1;
  config.cooldown_ns = 1'000'000;
  config.max_cooldown_ns = 4'000'000;
  BreakerRegistry registry(config);

  registry.RecordFailure("dev", 0);  // -> open until 1ms
  EXPECT_FALSE(registry.Allows("dev", 999'999));
  ASSERT_TRUE(registry.BeginProbe("dev", 1'000'000));
  registry.RecordFailure("dev", 1'000'000);  // -> open, cooldown 2ms
  EXPECT_FALSE(registry.Allows("dev", 2'999'999));
  ASSERT_TRUE(registry.BeginProbe("dev", 3'000'000));
  registry.RecordFailure("dev", 3'000'000);  // -> open, cooldown 4ms (cap)
  EXPECT_FALSE(registry.Allows("dev", 6'999'999));
  ASSERT_TRUE(registry.BeginProbe("dev", 7'000'000));
  registry.RecordFailure("dev", 7'000'000);  // cap holds: still 4ms
  EXPECT_FALSE(registry.Allows("dev", 10'999'999));
  EXPECT_TRUE(registry.Allows("dev", 11'000'000));
  // A successful probe finally closes it.
  ASSERT_TRUE(registry.BeginProbe("dev", 11'000'000));
  registry.RecordSuccess("dev", 11'000'001);
  EXPECT_EQ(registry.state("dev", 11'000'001), BreakerState::kClosed);
}

TEST(BreakerTest, DisabledRegistryAlwaysAllows) {
  BreakerRegistry registry(BreakerConfig{});  // enabled = false
  registry.RecordFailure("dev", 0);
  registry.RecordFailure("dev", 1);
  registry.RecordFailure("dev", 2);
  EXPECT_TRUE(registry.Allows("dev", 3));
  EXPECT_EQ(registry.open_count(3), 0u);
}

TEST(BreakerTest, SuccessDoesNotCreateBreakersAndUntrackedIsClosed) {
  BreakerConfig config;
  config.enabled = true;
  BreakerRegistry registry(config);
  registry.RecordSuccess("never-failed", 10);
  EXPECT_EQ(registry.state("never-failed", 10), BreakerState::kClosed);
  EXPECT_TRUE(registry.Allows("other", 10));
  EXPECT_EQ(registry.transitions_total(), 0u);
}

// ------------------------------------------------------- backoff policy

TEST(RetryBackoffTest, DeterministicPerSeedAndExponentialWithCap) {
  RetryPolicy policy;
  policy.backoff_base_ns = 100'000;
  policy.backoff_max_ns = 1'000'000;
  policy.jitter_seed = 42;

  // Same (policy, attempt, query) -> identical backoff, every time.
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(RetryBackoffNs(policy, attempt, 9),
              RetryBackoffNs(policy, attempt, 9));
  }
  // Exponential envelope with bounded jitter: attempt i lands inside
  // [base * 2^(i-1), base * 2^(i-1) + base/4], then caps.
  for (uint32_t attempt = 1; attempt <= 3; ++attempt) {
    const sim::SimTime lo = policy.backoff_base_ns << (attempt - 1);
    const sim::SimTime backoff = RetryBackoffNs(policy, attempt, 9);
    EXPECT_GE(backoff, lo);
    EXPECT_LE(backoff, lo + policy.backoff_base_ns / 4);
  }
  EXPECT_EQ(RetryBackoffNs(policy, 12, 9), policy.backoff_max_ns);

  // Different queries de-synchronize; a different seed reshuffles.
  std::set<sim::SimTime> spread;
  for (uint64_t q = 0; q < 16; ++q) {
    spread.insert(RetryBackoffNs(policy, 1, q));
  }
  EXPECT_GT(spread.size(), 1u);
  RetryPolicy other = policy;
  other.jitter_seed = 7;
  bool any_differs = false;
  for (uint64_t q = 0; q < 16 && !any_differs; ++q) {
    any_differs = RetryBackoffNs(policy, 1, q) != RetryBackoffNs(other, 1, q);
  }
  EXPECT_TRUE(any_differs);

  // Zero base = the legacy synchronous relaunch.
  RetryPolicy legacy;
  EXPECT_EQ(RetryBackoffNs(legacy, 1, 9), 0u);
}

// ------------------------------------------------- retry decision logic

TEST(RetryDecisionTest, FallbackChainWalksInOrderThenExhausts) {
  RetryPolicy policy;
  policy.retry_device_crash = true;
  policy.max_attempts = 2;
  policy.fallback_chain = {PlacementChoice::kFullOffload,
                           PlacementChoice::kCpuOnly};
  LifecycleManager manager(policy);
  manager.Admit(1, 0);
  QueryFailure crash;
  crash.kind = FailureKind::kDeviceCrash;
  crash.device = "storage_proc";

  manager.OnLaunch(1, false);  // attempt 1
  RetryDecision first = manager.Decide(1, crash);
  EXPECT_TRUE(first.retry);
  EXPECT_EQ(first.placement, PlacementChoice::kFullOffload);
  manager.OnRetryScheduled(1);

  manager.OnLaunch(1, true);  // attempt 2
  RetryDecision second = manager.Decide(1, crash);
  EXPECT_TRUE(second.retry);
  EXPECT_EQ(second.placement, PlacementChoice::kCpuOnly);
  manager.OnRetryScheduled(1);

  manager.OnLaunch(1, true);  // attempt 3: budget spent
  RetryDecision third = manager.Decide(1, crash);
  EXPECT_FALSE(third.retry);
  EXPECT_EQ(third.outcome, OutcomeCode::kRetryExhausted);
  EXPECT_EQ(manager.retries_scheduled(), 2u);
}

TEST(RetryDecisionTest, KindsMapToDistinctOutcomes) {
  RetryPolicy policy;  // defaults: only device crashes retry
  LifecycleManager manager(policy);
  manager.Admit(1, 0);
  manager.OnLaunch(1, false);

  QueryFailure failure;
  failure.kind = FailureKind::kDeadlineExceeded;
  EXPECT_EQ(manager.Decide(1, failure).outcome,
            OutcomeCode::kDeadlineExceeded);
  failure.kind = FailureKind::kCancelled;
  EXPECT_EQ(manager.Decide(1, failure).outcome, OutcomeCode::kCancelled);
  failure.kind = FailureKind::kOther;
  EXPECT_EQ(manager.Decide(1, failure).outcome, OutcomeCode::kFailed);
  // Delivery exhaustion is non-retryable by default, retryable when opted
  // in — the kind classification, not string matching, drives it.
  failure.kind = FailureKind::kDeliveryExhausted;
  EXPECT_EQ(manager.Decide(1, failure).outcome, OutcomeCode::kFailed);
}

TEST(RetryDecisionTest, EmptyChainNeverRetries) {
  RetryPolicy policy;
  policy.fallback_chain.clear();
  LifecycleManager manager(policy);
  manager.Admit(1, 0);
  manager.OnLaunch(1, false);
  QueryFailure crash;
  crash.kind = FailureKind::kDeviceCrash;
  RetryDecision d = manager.Decide(1, crash);
  EXPECT_FALSE(d.retry);
  EXPECT_EQ(d.outcome, OutcomeCode::kFailed);  // first attempt, no retries
}

// ------------------------------------------------------- brownout ladder

TEST(BrownoutTest, EscalatesOneRungAtATimeWithDwell) {
  BrownoutConfig config;
  config.enabled = true;
  config.dwell_ns = 1'000'000;
  BrownoutController ladder(config);

  BrownoutSignals hot;
  hot.queue_fraction = 1.0;
  // Inside the dwell window nothing moves.
  EXPECT_EQ(ladder.Update(hot, 0), BrownoutLevel::kFull);
  EXPECT_EQ(ladder.Update(hot, 999'999), BrownoutLevel::kFull);
  // One rung per dwell period, never two.
  EXPECT_EQ(ladder.Update(hot, 1'000'000), BrownoutLevel::kForceCheap);
  EXPECT_EQ(ladder.Update(hot, 1'500'000), BrownoutLevel::kForceCheap);
  EXPECT_EQ(ladder.Update(hot, 2'000'000), BrownoutLevel::kShedLowPriority);
  EXPECT_EQ(ladder.Update(hot, 3'000'000), BrownoutLevel::kProbesOnly);
  // Saturates at the top.
  EXPECT_EQ(ladder.Update(hot, 5'000'000), BrownoutLevel::kProbesOnly);
  EXPECT_EQ(ladder.escalations(), 3u);
  EXPECT_EQ(ladder.peak_level(), BrownoutLevel::kProbesOnly);

  // De-escalation requires ALL signals low, and also moves one rung.
  BrownoutSignals cool;
  cool.queue_fraction = 0.0;
  EXPECT_EQ(ladder.Update(cool, 6'000'000), BrownoutLevel::kShedLowPriority);
  EXPECT_EQ(ladder.Update(cool, 7'000'000), BrownoutLevel::kForceCheap);
  EXPECT_EQ(ladder.Update(cool, 8'000'000), BrownoutLevel::kFull);
  EXPECT_EQ(ladder.deescalations(), 3u);
  EXPECT_EQ(ladder.peak_level(), BrownoutLevel::kProbesOnly);  // sticky
}

TEST(BrownoutTest, AnyUpSignalEscalatesAllDownSignalsRequired) {
  BrownoutConfig config;
  config.enabled = true;
  config.dwell_ns = 0;
  BrownoutController ladder(config);

  // An open breaker alone escalates even with an empty queue.
  BrownoutSignals breaker_open;
  breaker_open.open_breakers = 1;
  EXPECT_EQ(ladder.Update(breaker_open, 1), BrownoutLevel::kForceCheap);

  // Queue now cool but the breaker still open: no de-escalation (ALL
  // signals must be below their down thresholds).
  EXPECT_EQ(ladder.Update(breaker_open, 2), BrownoutLevel::kShedLowPriority);
  BrownoutSignals still_open = breaker_open;
  still_open.queue_fraction = 0.0;
  EXPECT_EQ(ladder.Update(still_open, 3), BrownoutLevel::kProbesOnly);

  BrownoutSignals all_clear;
  EXPECT_EQ(ladder.Update(all_clear, 4), BrownoutLevel::kShedLowPriority);
}

TEST(BrownoutTest, DisabledStaysPinnedAtFull) {
  BrownoutController ladder(BrownoutConfig{});
  BrownoutSignals hot;
  hot.queue_fraction = 1.0;
  hot.open_breakers = 5;
  EXPECT_EQ(ladder.Update(hot, 10'000'000), BrownoutLevel::kFull);
  EXPECT_EQ(ladder.escalations(), 0u);
}

TEST(BrownoutTest, MissRateIsWindowedFromCumulativeCounters) {
  BrownoutConfig config;
  config.enabled = true;
  config.dwell_ns = 0;
  config.miss_up = 0.25;
  BrownoutController ladder(config);

  // 3 misses out of 10 terminals: 30% > 25% -> escalate.
  BrownoutSignals s;
  s.deadline_misses = 3;
  s.terminals = 10;
  EXPECT_EQ(ladder.Update(s, 1), BrownoutLevel::kForceCheap);

  // The same cumulative counters after the level change contribute no NEW
  // misses: the windowed rate is 0, so the ladder cools back down.
  EXPECT_EQ(ladder.Update(s, 2), BrownoutLevel::kFull);
}

}  // namespace
}  // namespace dflow::lifecycle

// ------------------------------------------------ serve-level lifecycle

namespace dflow::serve {
namespace {

class LifecycleServeTest : public ::testing::Test {
 protected:
  LifecycleServeTest() : engine_(Config()) {
    LineitemSpec spec;
    spec.rows = 20'000;
    spec.row_group_size = 8'192;
    DFLOW_CHECK(
        engine_.catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
  }

  static sim::FabricConfig Config() { return sim::FabricConfig{}; }

  static QuerySpec SmallQ6() {
    QuerySpec spec;
    spec.table = "lineitem";
    spec.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                            Expr::Lit(Value::Date32(kShipdateLo + 400)));
    spec.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                    Expr::Col("l_discount"))};
    spec.projection_names = {"revenue"};
    spec.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
    return spec;
  }

  std::vector<TenantConfig> OneTenant(sim::SimTime deadline_ns = 0) {
    TenantConfig t;
    t.name = "open";
    t.priority = 0;
    t.queue_capacity = 8;
    t.arrival_probability = 0.5;
    t.deadline_ns = deadline_ns;
    t.templates = {{SmallQ6(), "q6", 1}};
    return {t};
  }

  ServiceConfig BaseConfig() {
    ServiceConfig config;
    config.seed = 42;
    config.horizon_ns = 15'000'000;
    config.admission.global_max_in_flight = 2;
    config.admission.global_queue_capacity = 6;
    return config;
  }

  Engine engine_;
};

TEST_F(LifecycleServeTest, ImpossibleDeadlinesMissNotFailNotShed) {
  // 1 ns deadlines: every admitted query dies of DEADLINE_EXCEEDED — and
  // is counted as a deadline miss, NOT folded into failed or shed.
  ServiceLoop loop(&engine_, OneTenant(/*deadline_ns=*/1), BaseConfig());
  auto result = loop.Run().ValueOrDie();
  const ServiceReport& r = result.service;
  EXPECT_GT(r.deadline_missed_total, 0u);
  EXPECT_EQ(r.failed_total, 0u);
  EXPECT_EQ(r.completed_total, 0u);
  EXPECT_EQ(r.cancelled_total, 0u);  // misses are not explicit cancels
  ASSERT_FALSE(r.tenants.empty());
  EXPECT_EQ(r.tenants[0].deadline_missed, r.deadline_missed_total);
  for (const auto& q : result.outcomes) {
    EXPECT_EQ(q.outcome, lifecycle::OutcomeCode::kDeadlineExceeded);
  }
}

TEST_F(LifecycleServeTest, GenerousDeadlinesChangeNothing) {
  ServiceLoop plain(&engine_, OneTenant(), BaseConfig());
  const std::string without =
      trace::ServiceReportToJson(plain.Run().ValueOrDie().service);
  ServiceLoop relaxed(&engine_, OneTenant(/*deadline_ns=*/1'000'000'000),
                      BaseConfig());
  const std::string with =
      trace::ServiceReportToJson(relaxed.Run().ValueOrDie().service);
  EXPECT_EQ(without, with);
}

TEST_F(LifecycleServeTest, ScheduledCancellationCountsAndReleases) {
  ServiceConfig config = BaseConfig();
  // Cancel the first two queries shortly after the service starts: one is
  // likely running, one may still be queued — both must count as
  // CANCELLED, free their slots, and leave the ledger balanced (the
  // DFLOW_INVARIANTs inside Run fire otherwise).
  config.cancel_schedule = {{1'200'000, 0}, {1'200'000, 1}};
  ServiceLoop loop(&engine_, OneTenant(), config);
  auto result = loop.Run().ValueOrDie();
  const ServiceReport& r = result.service;
  EXPECT_GE(r.cancelled_total, 1u);
  EXPECT_EQ(r.failed_total, 0u);
  uint64_t cancelled_outcomes = 0;
  for (const auto& q : result.outcomes) {
    if (q.outcome == lifecycle::OutcomeCode::kCancelled) ++cancelled_outcomes;
  }
  EXPECT_EQ(cancelled_outcomes, r.cancelled_total);
  // The service keeps running after the cancellations.
  EXPECT_GT(r.completed_total, 0u);
}

TEST_F(LifecycleServeTest, CancellingUnknownIdsIsANoOp) {
  ServiceConfig config = BaseConfig();
  config.cancel_schedule = {{500'000, 9'999}};
  ServiceLoop loop(&engine_, OneTenant(), config);
  auto result = loop.Run().ValueOrDie();
  EXPECT_EQ(result.service.cancelled_total, 0u);
  EXPECT_GT(result.service.completed_total, 0u);
}

TEST_F(LifecycleServeTest, BrownoutShedsAreCountedSeparately) {
  auto tenants = OneTenant();
  tenants[0].arrival_probability = 0.9;
  tenants[0].priority = 2;  // at or above shed_priority_min: sheddable
  ServiceConfig config = BaseConfig();
  config.admission.global_max_in_flight = 1;
  config.lifecycle.brownout.enabled = true;
  config.lifecycle.brownout.queue_up = 0.3;
  config.lifecycle.brownout.dwell_ns = 500'000;
  ServiceLoop loop(&engine_, tenants, config);
  auto result = loop.Run().ValueOrDie();
  const ServiceReport& r = result.service;
  EXPECT_GT(r.brownout_escalations, 0u);
  EXPECT_GT(r.brownout_peak_level, 0u);
  EXPECT_GT(r.shed_brownout_total, 0u);
  // Brownout sheds are part of shed_total but distinct from the other
  // shed codes in the per-tenant stats.
  ASSERT_FALSE(r.tenants.empty());
  EXPECT_EQ(r.tenants[0].shed_brownout, r.shed_brownout_total);
  EXPECT_EQ(r.arrivals_total, r.admitted_total + r.shed_total);
  // Degraded service still serves.
  EXPECT_GT(r.completed_total, 0u);
}

TEST_F(LifecycleServeTest, LifecycleCountersReachTheJson) {
  ServiceConfig config = BaseConfig();
  config.cancel_schedule = {{1'200'000, 0}};
  config.lifecycle.brownout.enabled = true;
  config.lifecycle.brownout.queue_up = 0.3;
  auto tenants = OneTenant(/*deadline_ns=*/2'000'000);
  tenants[0].arrival_probability = 0.9;
  tenants[0].priority = 2;
  ServiceLoop loop(&engine_, tenants, config);
  auto result = loop.Run().ValueOrDie();

  const ServiceReport& report = result.service;
  auto parsed = trace::ParseJson(trace::ServiceReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const trace::JsonValue& root = parsed.ValueOrDie();
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"lifecycle.deadline_missed_total", report.deadline_missed_total},
      {"lifecycle.cancelled_total", report.cancelled_total},
      {"lifecycle.retries_total", report.retries_total},
      {"lifecycle.retry_exhausted_total", report.retry_exhausted_total},
      {"lifecycle.shed_brownout_total", report.shed_brownout_total},
      {"lifecycle.brownout_peak_level", report.brownout_peak_level},
  };
  for (const auto& [path, want] : counters) {
    const trace::JsonValue* v = root.FindPath(path);
    ASSERT_NE(v, nullptr) << path;
    EXPECT_EQ(v->AsUInt64(), want) << path;
  }
  const std::vector<trace::JsonValue>& rows =
      root.FindPath("tenants")->AsArray();
  ASSERT_EQ(rows.size(), report.tenants.size());
  const TenantStats& t0 = report.tenants[0];
  EXPECT_EQ(rows[0].Find("deadline_missed")->AsUInt64(), t0.deadline_missed);
  EXPECT_EQ(rows[0].Find("cancelled")->AsUInt64(), t0.cancelled);
  EXPECT_EQ(rows[0].Find("shed_brownout")->AsUInt64(), t0.shed_brownout);
}

TEST_F(LifecycleServeTest, LifecycleRunsAreByteIdenticalPerSeed) {
  auto run = [&] {
    ServiceConfig config = BaseConfig();
    config.cancel_schedule = {{1'200'000, 0}};
    config.lifecycle.brownout.enabled = true;
    config.lifecycle.breaker.enabled = true;
    config.lifecycle.retry.backoff_base_ns = 200'000;
    config.lifecycle.retry.jitter_seed = config.seed;
    ServiceLoop loop(&engine_, OneTenant(/*deadline_ns=*/8'000'000), config);
    return trace::ServiceReportToJson(loop.Run().ValueOrDie().service);
  };
  EXPECT_EQ(run(), run());
}

TEST_F(LifecycleServeTest, FlappingDeviceBreakerProbesAndRecovers) {
  // The accelerator dies at 2 ms and comes back at 8 ms. With breakers on
  // and no permanent quarantine, the service must: trip the breaker on
  // the crash, retry the victim onto a fallback placement, probe after
  // the cool-down, and resume using the device — no terminal failures.
  sim::FaultConfig fc;
  engine_.EnableFaultInjection(fc);
  engine_.fault_injector()->CrashDeviceAt("storage_proc", 2'000'000);
  engine_.fault_injector()->RestoreDeviceAt("storage_proc", 8'000'000);

  auto tenants = OneTenant();
  tenants[0].arrival_probability = 0.8;
  tenants[0].slot_ns = 500'000;
  ServiceConfig config = BaseConfig();
  config.horizon_ns = 20'000'000;
  config.placement = PlacementChoice::kFullOffload;
  config.lifecycle.quarantine_on_crash = false;
  config.lifecycle.breaker.enabled = true;
  config.lifecycle.breaker.failure_threshold = 1;
  config.lifecycle.breaker.cooldown_ns = 3'000'000;
  config.lifecycle.retry.retry_device_crash = true;
  config.lifecycle.retry.fallback_chain = {PlacementChoice::kCpuOnly};

  ServiceLoop loop(&engine_, tenants, config);
  auto result = loop.Run().ValueOrDie();
  const ServiceReport& r = result.service;
  EXPECT_GE(r.retries_total, 1u);       // the victim was retried
  EXPECT_GE(r.breaker_transitions, 2u); // tripped open, then moved on
  EXPECT_EQ(r.failed_total, 0u);
  EXPECT_EQ(r.retry_exhausted_total, 0u);
  EXPECT_EQ(r.completed_total + r.cancelled_total + r.deadline_missed_total,
            r.admitted_total);
  // The device is NOT permanently quarantined.
  EXPECT_TRUE(engine_.IsDeviceHealthy("storage_proc"));
}

}  // namespace
}  // namespace dflow::serve
