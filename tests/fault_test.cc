#include <gtest/gtest.h>

#include "dflow/engine/engine.h"
#include "dflow/exec/local_executor.h"
#include "dflow/sched/scheduler.h"
#include "dflow/serve/service_loop.h"
#include "dflow/sim/fault.h"
#include "dflow/storage/object_store.h"
#include "dflow/trace/report_json.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

// Same dataset as the engine tests: faults must not change answers.
class FaultTest : public ::testing::Test {
 protected:
  static sim::FabricConfig Config() {
    sim::FabricConfig config;
    config.num_compute_nodes = 2;
    return config;
  }

  static void RegisterTables(Engine* engine) {
    LineitemSpec li;
    li.rows = 30'000;
    li.num_orders = 5'000;
    li.row_group_size = 8'192;
    DFLOW_CHECK(
        engine->catalog().Register(MakeLineitemTable(li).ValueOrDie()).ok());
  }

  FaultTest() : engine_(Config()) { RegisterTables(&engine_); }

  static QuerySpec Q6Like() {
    QuerySpec spec;
    spec.table = "lineitem";
    spec.filter = Expr::And(
        {Between("l_shipdate", Value::Date32(kShipdateLo),
                 Value::Date32(kShipdateLo + 500)),
         Expr::Cmp(CompareOp::kLe, Expr::Col("l_discount"),
                   Expr::Lit(Value::Double(0.05)))});
    spec.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                    Expr::Col("l_discount"))};
    spec.projection_names = {"revenue"};
    spec.aggregates = {{AggFunc::kSum, "revenue", "total_revenue"},
                       {AggFunc::kCount, "", "n"}};
    return spec;
  }

  Engine engine_;
};

// -------------------------------------------------------------- injector

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  sim::FaultConfig config;
  config.seed = 42;
  config.drop_prob = 0.1;
  config.corrupt_prob = 0.1;
  config.stall_prob = 0.2;
  config.storage_error_prob = 0.3;

  sim::FaultInjector a(config);
  sim::FaultInjector b(config);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.ClassifyTransfer("net"), b.ClassifyTransfer("net"));
    EXPECT_EQ(a.StallNs("cpu0"), b.StallNs("cpu0"));
    EXPECT_EQ(a.NextStorageRequestFails("s"), b.NextStorageRequestFails("s"));
  }
  EXPECT_EQ(a.TraceString(), b.TraceString());
  EXPECT_EQ(a.counters().drops, b.counters().drops);
  EXPECT_EQ(a.counters().corruptions, b.counters().corruptions);
  EXPECT_EQ(a.counters().stalls, b.counters().stalls);
  EXPECT_EQ(a.counters().storage_errors, b.counters().storage_errors);
  EXPECT_GT(a.counters().drops + a.counters().corruptions, 0u);
  EXPECT_GT(a.counters().stalls, 0u);
  EXPECT_GT(a.counters().storage_errors, 0u);
}

TEST(FaultInjectorTest, DifferentSeedDifferentSchedule) {
  sim::FaultConfig config;
  config.drop_prob = 0.2;
  config.seed = 1;
  sim::FaultInjector a(config);
  config.seed = 2;
  sim::FaultInjector b(config);
  bool diverged = false;
  for (int i = 0; i < 500 && !diverged; ++i) {
    diverged = a.ClassifyTransfer("net") != b.ClassifyTransfer("net");
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, CrashIsPermanentAndTimed) {
  sim::Simulator sim;
  sim::FaultConfig config;
  sim::FaultInjector injector(config, &sim);
  injector.CrashDeviceAt("nma0", 1'000);
  EXPECT_FALSE(injector.IsCrashed("nma0"));
  sim.Schedule(2'000, [] {});
  sim.Run();
  EXPECT_TRUE(injector.IsCrashed("nma0"));
  EXPECT_TRUE(injector.IsCrashed("nma0"));  // does not heal
  EXPECT_FALSE(injector.IsCrashed("cpu0"));
  EXPECT_EQ(injector.counters().crashes_observed, 1u);  // first sighting only
}

// ---------------------------------------------------------- object store

TEST(ObjectStoreFaultTest, ScheduledFailureAndRetry) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {1, 2, 3, 4}).ok());

  sim::FaultConfig config;
  sim::FaultInjector injector(config);
  injector.FailStorageRequest(0);  // first data-bearing GET fails
  store.SetFaultInjector(&injector);

  auto direct = store.Get("k");
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kIOError);

  // The retry wrapper recovers from the next scheduled failure.
  injector.FailStorageRequest(1);
  auto retried = store.GetWithRetry("k", /*max_retries=*/3);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.ValueOrDie().size(), 4u);
  EXPECT_EQ(store.stats().io_errors, 2u);
  EXPECT_EQ(store.stats().retries, 1u);

  // NotFound is not retried.
  auto missing = store.GetWithRetry("absent");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ObjectStoreFaultTest, RetryGivesUpAfterBudget) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {9}).ok());
  sim::FaultConfig config;
  config.storage_error_prob = 1.0;  // every request fails
  sim::FaultInjector injector(config);
  store.SetFaultInjector(&injector);
  auto r = store.GetRangeWithRetry("k", 0, 1, /*max_retries=*/2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(store.stats().retries, 2u);
  EXPECT_EQ(store.stats().io_errors, 3u);
}

// ------------------------------------------------- transient-fault runs

TEST_F(FaultTest, TransientFaultsDoNotChangeResults) {
  const QuerySpec spec = Q6Like();
  // CPU-only streams every scan chunk across all four links — the placement
  // with the most exposure to an unreliable fabric.
  ExecOptions options;
  options.placement = PlacementChoice::kCpuOnly;

  // Fault-free reference.
  auto clean = engine_.Execute(spec, options).ValueOrDie();
  ASSERT_EQ(TotalRows(clean.chunks), 1u);
  EXPECT_FALSE(clean.report.fault.Any());

  // Drops + corruption + one injected storage IOError, fixed seed.
  sim::FaultConfig config;
  config.seed = 7;
  config.drop_prob = 0.05;
  config.corrupt_prob = 0.05;
  config.stall_prob = 0.02;
  engine_.EnableFaultInjection(config);
  engine_.fault_injector()->FailStorageRequest(1);
  auto faulty = engine_.Execute(spec, options).ValueOrDie();
  engine_.DisableFaultInjection();

  ASSERT_EQ(TotalRows(faulty.chunks), 1u);
  EXPECT_EQ(clean.chunks[0].GetValue(0, 0).double_value(),
            faulty.chunks[0].GetValue(0, 0).double_value());
  EXPECT_EQ(clean.chunks[0].GetValue(0, 1).int64_value(),
            faulty.chunks[0].GetValue(0, 1).int64_value());

  const FaultReport& f = faulty.report.fault;
  EXPECT_GT(f.chunks_dropped + f.chunks_corrupted, 0u);
  EXPECT_GT(f.retransmits, 0u);
  EXPECT_EQ(f.delivery_timeouts, f.retransmits);  // none gave up
  EXPECT_GT(f.storage_io_errors, 0u);
  EXPECT_GT(f.storage_retries, 0u);
  EXPECT_FALSE(f.cpu_fallback);
  // Recovery costs time: the faulty run cannot be faster.
  EXPECT_GE(faulty.report.sim_ns, clean.report.sim_ns);
}

TEST_F(FaultTest, SameSeedReproducesRunExactly) {
  const QuerySpec spec = Q6Like();
  ExecOptions options;
  options.placement = PlacementChoice::kCpuOnly;
  sim::FaultConfig config;
  config.seed = 1234;
  config.drop_prob = 0.05;
  config.corrupt_prob = 0.02;
  config.stall_prob = 0.05;

  auto run = [&](Engine* engine) {
    engine->EnableFaultInjection(config);
    auto result = engine->Execute(spec, options).ValueOrDie();
    std::string trace = engine->fault_injector()->TraceString();
    return std::make_pair(result, trace);
  };
  Engine other(Config());
  RegisterTables(&other);
  auto [ra, ta] = run(&engine_);
  auto [rb, tb] = run(&other);

  EXPECT_FALSE(ta.empty());
  EXPECT_EQ(ta, tb);  // byte-identical fault schedule
  EXPECT_EQ(ra.report.sim_ns, rb.report.sim_ns);
  EXPECT_EQ(ra.report.fault.retransmits, rb.report.fault.retransmits);
  EXPECT_EQ(ra.report.fault.checksum_failures,
            rb.report.fault.checksum_failures);
  EXPECT_EQ(ra.chunks[0].GetValue(0, 0).double_value(),
            rb.chunks[0].GetValue(0, 0).double_value());
}

TEST_F(FaultTest, TotalLossExhaustsDeliveryAttempts) {
  sim::FaultConfig config;
  config.drop_prob = 1.0;  // nothing ever gets through
  RecoveryPolicy policy;
  policy.max_delivery_attempts = 3;
  engine_.EnableFaultInjection(config, policy);
  auto result = engine_.Execute(Q6Like());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("delivery attempts"),
            std::string::npos);
}

// ------------------------------------------------- crash and degradation

TEST_F(FaultTest, AcceleratorCrashFallsBackToCpu) {
  const QuerySpec spec = Q6Like();
  ExecOptions options;
  options.placement = PlacementChoice::kFullOffload;
  auto clean = engine_.Execute(spec, options).ValueOrDie();

  sim::FaultConfig config;
  engine_.EnableFaultInjection(config);
  // Kill the smart-storage processor a moment into the query.
  engine_.fault_injector()->CrashDeviceAt("storage_proc", 1'000'000);
  auto degraded = engine_.Execute(spec, options).ValueOrDie();

  EXPECT_TRUE(degraded.report.fault.cpu_fallback);
  EXPECT_EQ(degraded.report.fault.failed_device, "storage_proc");
  EXPECT_NE(degraded.report.variant.find("fallback"), std::string::npos);
  EXPECT_FALSE(engine_.IsDeviceHealthy("storage_proc"));
  // Still the right answer, off the CPU-only data path.
  ASSERT_EQ(TotalRows(degraded.chunks), 1u);
  EXPECT_EQ(clean.chunks[0].GetValue(0, 0).double_value(),
            degraded.chunks[0].GetValue(0, 0).double_value());
  EXPECT_EQ(clean.chunks[0].GetValue(0, 1).int64_value(),
            degraded.chunks[0].GetValue(0, 1).int64_value());
}

TEST_F(FaultTest, AutoPlacementAvoidsDeadDevice) {
  const QuerySpec spec = Q6Like();
  sim::FaultConfig config;
  engine_.EnableFaultInjection(config);
  engine_.fault_injector()->CrashDeviceAt("storage_proc", 1'000'000);

  // First auto run hits the crash and degrades.
  auto first = engine_.Execute(spec).ValueOrDie();
  EXPECT_TRUE(first.report.fault.cpu_fallback);

  // The next auto run plans around the quarantined device up front: it
  // completes without ever touching the dead accelerator.
  auto second = engine_.Execute(spec).ValueOrDie();
  EXPECT_FALSE(second.report.fault.cpu_fallback);
  EXPECT_TRUE(second.report.fault.failed_device.empty());
  EXPECT_EQ(first.chunks[0].GetValue(0, 0).double_value(),
            second.chunks[0].GetValue(0, 0).double_value());
}

TEST_F(FaultTest, FirstObservedCrashWinsWithConcurrentFailures) {
  sim::FaultConfig config;
  engine_.EnableFaultInjection(config);
  // Both storage-side accelerators die before any work reaches them. The
  // decode stage (storage_proc) sits upstream of the NIC scatter, so its
  // crash is observed first and names the failure — later observations
  // must not overwrite it.
  engine_.fault_injector()->CrashDeviceAt("storage_proc", 0);
  engine_.fault_injector()->CrashDeviceAt("storage_nic", 0);
  ExecOptions options;
  options.placement = PlacementChoice::kFullOffload;
  auto result = engine_.Execute(Q6Like(), options).ValueOrDie();
  EXPECT_TRUE(result.report.fault.cpu_fallback);
  EXPECT_EQ(result.report.fault.failed_device, "storage_proc");
}

TEST_F(FaultTest, SchedulerExcludesUnhealthyDevices) {
  engine_.MarkDeviceUnhealthy("storage_proc");
  engine_.MarkDeviceUnhealthy("storage_nic");
  Scheduler scheduler(&engine_);
  const std::vector<QuerySpec> specs = {Q6Like(), Q6Like()};
  auto naive = scheduler.PlanNaive(specs).ValueOrDie();
  auto planned = scheduler.Plan(specs).ValueOrDie();
  for (const Placement& p : naive.placements) {
    EXPECT_TRUE(engine_.PlacementHealthy(p, 0)) << p.name;
  }
  for (const Placement& p : planned.placements) {
    EXPECT_TRUE(engine_.PlacementHealthy(p, 0)) << p.name;
  }
  engine_.ClearDeviceHealth();
  EXPECT_TRUE(engine_.IsDeviceHealthy("storage_proc"));
}

TEST_F(FaultTest, ServiceDegradesAdmittedQueriesOnMidRunCrash) {
  // A crash in the middle of a service run must not drop queries: the one
  // caught on the dead accelerator is re-admitted CPU-only (keeping its
  // admission slot), and everything still queued plans around the
  // quarantined device.
  sim::FaultConfig config;
  engine_.EnableFaultInjection(config);
  engine_.fault_injector()->CrashDeviceAt("storage_proc", 3'000'000);

  serve::TenantConfig tenant;
  tenant.name = "steady";
  tenant.queue_capacity = 16;
  tenant.arrival_probability = 0.8;
  tenant.slot_ns = 500'000;
  tenant.templates = {{Q6Like(), "q6", 1}};

  serve::ServiceConfig service;
  service.seed = 42;
  service.horizon_ns = 10'000'000;
  // Pin the whole service to the offloaded path so the crash is hit.
  service.placement = PlacementChoice::kFullOffload;
  service.admission.global_max_in_flight = 1;
  service.admission.global_queue_capacity = 16;

  serve::ServiceLoop loop(&engine_, {tenant}, service);
  auto result = loop.Run().ValueOrDie();
  const serve::ServiceReport& r = result.service;

  EXPECT_GT(r.admitted_total, 1u);
  EXPECT_GE(r.degraded_total, 1u);
  // No admitted or queued query was lost to the crash.
  EXPECT_EQ(r.failed_total, 0u);
  EXPECT_EQ(r.completed_total, r.admitted_total);
  EXPECT_EQ(r.arrivals_total, r.admitted_total + r.shed_total);

  EXPECT_TRUE(result.fabric.fault.cpu_fallback);
  EXPECT_EQ(result.fabric.fault.failed_device, "storage_proc");
  EXPECT_FALSE(engine_.IsDeviceHealthy("storage_proc"));
}

TEST_F(FaultTest, ServiceFailsQueriesWhenDegradationDisabled) {
  sim::FaultConfig config;
  engine_.EnableFaultInjection(config);
  engine_.fault_injector()->CrashDeviceAt("storage_proc", 3'000'000);

  serve::TenantConfig tenant;
  tenant.name = "steady";
  tenant.queue_capacity = 16;
  tenant.arrival_probability = 0.8;
  tenant.slot_ns = 500'000;
  tenant.templates = {{Q6Like(), "q6", 1}};

  serve::ServiceConfig service;
  service.seed = 42;
  service.horizon_ns = 10'000'000;
  service.placement = PlacementChoice::kFullOffload;
  service.lifecycle.retry.retry_device_crash = false;
  service.admission.global_max_in_flight = 1;
  service.admission.global_queue_capacity = 16;

  serve::ServiceLoop loop(&engine_, {tenant}, service);
  auto result = loop.Run().ValueOrDie();
  const serve::ServiceReport& r = result.service;

  // The query caught on the dead device fails; later admissions still
  // re-plan around the quarantined device at admission time (counted as
  // degraded), so the service keeps answering.
  EXPECT_GE(r.failed_total, 1u);
  EXPECT_EQ(r.completed_total + r.failed_total, r.admitted_total);
  EXPECT_GT(r.completed_total, 0u);
  EXPECT_EQ(result.fabric.fault.failed_device, "storage_proc");
}

// ------------------------------------------- cancellation under faults

// The pair below pins cancel-mid-retransmit: a lossy fabric keeps edges
// busy retransmitting, and a scheduled cancellation lands while a query's
// chunks are still in flight. The cancelled graph must stop emitting,
// report CANCELLED (not FAILED), and release its admission slot and
// scheduler-ledger demand immediately — ServiceLoop::Run DFLOW_INVARIANTs
// charge/release equality and zero residual demand at drain, so a leaked
// credit fails the run itself.

serve::ServiceConfig LossyServiceConfig() {
  serve::ServiceConfig service;
  service.seed = 42;
  service.horizon_ns = 10'000'000;
  service.placement = PlacementChoice::kFullOffload;
  service.admission.global_max_in_flight = 2;
  service.admission.global_queue_capacity = 8;
  return service;
}

serve::TenantConfig LossyTenant(const QuerySpec& spec) {
  serve::TenantConfig tenant;
  tenant.name = "steady";
  tenant.queue_capacity = 8;
  tenant.arrival_probability = 0.8;
  tenant.slot_ns = 500'000;
  tenant.templates = {{spec, "q6", 1}};
  return tenant;
}

TEST_F(FaultTest, CancelMidRetransmitLeaksNoCredits) {
  sim::FaultConfig config;
  config.drop_prob = 0.25;  // heavy loss: retransmissions are constant
  engine_.EnableFaultInjection(config);

  serve::ServiceConfig service = LossyServiceConfig();
  // Query 0 starts on an idle fabric at its arrival; by 2 ms it is deep
  // in its (retransmission-stretched) data movement.
  service.cancel_schedule = {{2'000'000, 0}};

  serve::ServiceLoop loop(&engine_, {LossyTenant(Q6Like())}, service);
  auto result = loop.Run().ValueOrDie();  // invariants checked inside Run
  const serve::ServiceReport& r = result.service;
  EXPECT_EQ(r.cancelled_total, 1u);
  EXPECT_EQ(r.failed_total, 0u);  // cancellation is not failure
  EXPECT_GT(r.completed_total, 0u);  // the service kept serving
  EXPECT_GT(result.fabric.fault.retransmits, 0u);
  EXPECT_EQ(r.arrivals_total, r.admitted_total + r.shed_total);

  bool saw_cancelled = false;
  for (const auto& q : result.outcomes) {
    if (q.query_id == 0) {
      EXPECT_EQ(q.outcome, lifecycle::OutcomeCode::kCancelled);
      saw_cancelled = true;
    }
  }
  EXPECT_TRUE(saw_cancelled);
}

TEST_F(FaultTest, SameLossyScheduleWithoutCancelCompletesEverything) {
  // The control half of the pair: identical fabric, faults, and arrivals,
  // no cancellation — every admitted query completes, so the difference
  // in the previous test is attributable to the cancel alone. Run twice:
  // cancellation aside, the lossy service is still byte-deterministic.
  auto run = [&] {
    Engine engine(Config());
    RegisterTables(&engine);
    sim::FaultConfig config;
    config.drop_prob = 0.25;
    engine.EnableFaultInjection(config);
    serve::ServiceLoop loop(&engine, {LossyTenant(Q6Like())},
                            LossyServiceConfig());
    auto result = loop.Run().ValueOrDie();
    EXPECT_EQ(result.service.cancelled_total, 0u);
    EXPECT_EQ(result.service.failed_total, 0u);
    EXPECT_EQ(result.service.completed_total, result.service.admitted_total);
    EXPECT_GT(result.fabric.fault.retransmits, 0u);
    return trace::ServiceReportToJson(result.service);
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------------- metric hygiene

TEST_F(FaultTest, ChainedRunsDoNotDoubleCountFabricMetrics) {
  const QuerySpec spec = Q6Like();
  ExecOptions options;
  options.placement = PlacementChoice::kCpuOnly;
  auto first = engine_.Execute(spec, options).ValueOrDie();
  // Chained run on the same fabric timeline: per-run counters must match a
  // fresh run, not accumulate.
  options.reset_fabric = false;
  auto second = engine_.Execute(spec, options).ValueOrDie();
  EXPECT_EQ(first.report.network_bytes, second.report.network_bytes);
  EXPECT_EQ(first.report.media_bytes, second.report.media_bytes);
  EXPECT_EQ(first.report.membus_bytes, second.report.membus_bytes);
  // The virtual clock kept running across the chained pair.
  EXPECT_GT(second.report.sim_ns, first.report.sim_ns);
}

TEST(LinkMetricsTest, ResetMetricsKeepsTimingState) {
  sim::Link link("l", 10.0, 100);
  auto t1 = link.Reserve(0, 1'000);
  EXPECT_GT(link.bytes_transferred(), 0u);
  link.ResetMetrics();
  EXPECT_EQ(link.bytes_transferred(), 0u);
  EXPECT_EQ(link.num_messages(), 0u);
  // Timing state survives: the next reservation still queues behind the
  // first transfer instead of restarting the link at t = 0.
  auto t2 = link.Reserve(0, 1'000);
  EXPECT_GE(t2.depart, t1.depart);
  EXPECT_GT(t2.arrive, t1.arrive);
  link.ResetStats();
  auto t3 = link.Reserve(0, 1'000);
  EXPECT_EQ(t3.arrive, t1.arrive);  // full reset restarts the timeline
}

}  // namespace
}  // namespace dflow
