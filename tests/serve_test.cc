#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dflow/serve/admission.h"
#include "dflow/serve/service_loop.h"
#include "dflow/serve/service_report.h"
#include "dflow/serve/workload.h"
#include "dflow/trace/json.h"
#include "dflow/trace/report_json.h"
#include "dflow/workload/tpch_like.h"

namespace dflow::serve {
namespace {

// ------------------------------------------------------------- admission

std::vector<TenantConfig> TwoTenants(int prio_a, int prio_b,
                                     size_t queue_capacity = 8) {
  TenantConfig a;
  a.name = "a";
  a.priority = prio_a;
  a.queue_capacity = queue_capacity;
  TenantConfig b;
  b.name = "b";
  b.priority = prio_b;
  b.queue_capacity = queue_capacity;
  return {a, b};
}

Ticket MakeTicket(uint64_t id, size_t tenant) {
  Ticket t;
  t.query_id = id;
  t.tenant = tenant;
  return t;
}

TEST(AdmissionTest, LowerPriorityNumberPopsFirst) {
  auto tenants = TwoTenants(/*prio_a=*/2, /*prio_b=*/0);
  AdmissionController admission(AdmissionConfig{}, &tenants);
  EXPECT_FALSE(admission.Offer(MakeTicket(1, 0)).has_value());
  EXPECT_FALSE(admission.Offer(MakeTicket(2, 1)).has_value());
  auto first = admission.PopRunnable();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, 1u);  // priority 0 beats priority 2
  auto second = admission.PopRunnable();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, 0u);
  EXPECT_FALSE(admission.PopRunnable().has_value());
}

TEST(AdmissionTest, TenantQueueFullShedsWithStableCode) {
  auto tenants = TwoTenants(1, 1, /*queue_capacity=*/2);
  AdmissionController admission(AdmissionConfig{}, &tenants);
  EXPECT_FALSE(admission.Offer(MakeTicket(1, 0)).has_value());
  EXPECT_FALSE(admission.Offer(MakeTicket(2, 0)).has_value());
  auto rejected = admission.Offer(MakeTicket(3, 0));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(*rejected, RejectCode::kQueueFull);
  EXPECT_STREQ(RejectCodeName(*rejected), "QUEUE_FULL");
  // The other tenant's queue is untouched.
  EXPECT_FALSE(admission.Offer(MakeTicket(4, 1)).has_value());
}

TEST(AdmissionTest, GlobalBudgetShedsWithOverload) {
  auto tenants = TwoTenants(1, 1, /*queue_capacity=*/8);
  AdmissionConfig config;
  config.global_queue_capacity = 2;
  AdmissionController admission(config, &tenants);
  EXPECT_FALSE(admission.Offer(MakeTicket(1, 0)).has_value());
  EXPECT_FALSE(admission.Offer(MakeTicket(2, 1)).has_value());
  // Both tenant queues have headroom, but the global budget is spent.
  auto rejected = admission.Offer(MakeTicket(3, 0));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(*rejected, RejectCode::kOverload);
  EXPECT_STREQ(RejectCodeName(*rejected), "OVERLOAD");
}

TEST(AdmissionTest, EqualPriorityAlternatesAcrossTenants) {
  auto tenants = TwoTenants(1, 1);
  AdmissionController admission(AdmissionConfig{}, &tenants);
  for (uint64_t id = 0; id < 4; ++id) {
    EXPECT_FALSE(admission.Offer(MakeTicket(id, id % 2)).has_value());
  }
  std::vector<size_t> order;
  while (auto t = admission.PopRunnable()) order.push_back(t->tenant);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_NE(order[0], order[1]);  // round-robin, not starvation
  EXPECT_EQ(order[2], order[0]);
  EXPECT_EQ(order[3], order[1]);
}

TEST(AdmissionTest, InFlightCapsGateRunnability) {
  auto tenants = TwoTenants(1, 1);
  tenants[0].max_in_flight = 1;
  AdmissionConfig config;
  config.global_max_in_flight = 2;
  AdmissionController admission(config, &tenants);
  for (uint64_t id = 0; id < 3; ++id) {
    EXPECT_FALSE(admission.Offer(MakeTicket(id, 0)).has_value());
  }
  EXPECT_FALSE(admission.Offer(MakeTicket(9, 1)).has_value());

  // One query per tenant starts (tenant 0 is capped at one in flight,
  // and the second slot goes to tenant 1); then the global cap (2)
  // blocks everyone even though tenant 0 still has tickets queued.
  auto first = admission.PopRunnable();
  auto second = admission.PopRunnable();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->tenant, second->tenant);
  EXPECT_FALSE(admission.PopRunnable().has_value());
  EXPECT_EQ(admission.in_flight_total(), 2u);

  // Completing tenant 0's query frees both its per-tenant slot and a
  // global slot: its next queued ticket becomes runnable.
  admission.OnCompletion(0);
  auto third = admission.PopRunnable();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->tenant, 0u);
  EXPECT_FALSE(admission.PopRunnable().has_value());

  // Freeing tenant 1's slot opens global headroom, but tenant 0's own
  // max_in_flight=1 keeps its remaining ticket queued.
  admission.OnCompletion(1);
  EXPECT_FALSE(admission.PopRunnable().has_value());
  EXPECT_EQ(admission.queued(0), 1u);
}

// -------------------------------------------------------------- workload

std::vector<TenantConfig> OpenLoopTenants() {
  auto tenants = TwoTenants(0, 1);
  for (auto& t : tenants) {
    t.arrival_probability = 0.5;
    t.templates = {{QuerySpec{}, "t0", 3}, {QuerySpec{}, "t1", 1}};
  }
  return tenants;
}

TEST(WorkloadDriverTest, SameSeedSameArrivals) {
  const sim::SimTime horizon = 20'000'000;
  WorkloadDriver a(OpenLoopTenants(), 42, horizon);
  WorkloadDriver b(OpenLoopTenants(), 42, horizon);
  auto arrivals_a = a.OpenLoopArrivals();
  auto arrivals_b = b.OpenLoopArrivals();
  ASSERT_EQ(arrivals_a.size(), arrivals_b.size());
  ASSERT_GT(arrivals_a.size(), 0u);
  for (size_t i = 0; i < arrivals_a.size(); ++i) {
    EXPECT_EQ(arrivals_a[i].at, arrivals_b[i].at);
    EXPECT_EQ(arrivals_a[i].tenant, arrivals_b[i].tenant);
    EXPECT_EQ(arrivals_a[i].template_index, arrivals_b[i].template_index);
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.PickTemplate(0), b.PickTemplate(0));
    EXPECT_EQ(a.NextThinkTime(1), b.NextThinkTime(1));
  }
}

TEST(WorkloadDriverTest, DifferentSeedDifferentArrivals) {
  const sim::SimTime horizon = 20'000'000;
  WorkloadDriver a(OpenLoopTenants(), 42, horizon);
  WorkloadDriver b(OpenLoopTenants(), 7, horizon);
  auto arrivals_a = a.OpenLoopArrivals();
  auto arrivals_b = b.OpenLoopArrivals();
  bool differs = arrivals_a.size() != arrivals_b.size();
  for (size_t i = 0; !differs && i < arrivals_a.size(); ++i) {
    differs = arrivals_a[i].at != arrivals_b[i].at ||
              arrivals_a[i].tenant != arrivals_b[i].tenant;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadDriverTest, ArrivalsSortedAndInsideHorizon) {
  const sim::SimTime horizon = 20'000'000;
  WorkloadDriver driver(OpenLoopTenants(), 42, horizon);
  auto arrivals = driver.OpenLoopArrivals();
  ASSERT_GT(arrivals.size(), 0u);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_LT(arrivals[i].at, horizon);
    EXPECT_LT(arrivals[i].tenant, 2u);
    EXPECT_LT(arrivals[i].template_index, 2u);
    if (i > 0) {
      const bool ordered =
          arrivals[i - 1].at < arrivals[i].at ||
          (arrivals[i - 1].at == arrivals[i].at &&
           arrivals[i - 1].tenant <= arrivals[i].tenant);
      EXPECT_TRUE(ordered) << "arrival " << i << " out of order";
    }
  }
}

TEST(WorkloadDriverTest, TemplateWeightsRespected) {
  WorkloadDriver driver(OpenLoopTenants(), 42, 1'000'000);
  size_t heavy = 0;
  constexpr size_t kDraws = 400;
  for (size_t i = 0; i < kDraws; ++i) {
    size_t pick = driver.PickTemplate(0);
    ASSERT_LT(pick, 2u);
    if (pick == 0) ++heavy;
  }
  // Weight 3:1 — the heavy template must dominate (deterministic stream,
  // so this is a fixed outcome, not a flaky statistical bound).
  EXPECT_GT(heavy, kDraws / 2);
  EXPECT_LT(heavy, kDraws);
}

// ----------------------------------------------------------- percentiles

TEST(PercentileTest, NearestRank) {
  std::vector<sim::SimTime> samples = {40, 10, 30, 20};
  EXPECT_EQ(PercentileNs(samples, 0.50), 20u);
  EXPECT_EQ(PercentileNs(samples, 0.95), 40u);
  EXPECT_EQ(PercentileNs(samples, 0.99), 40u);
  EXPECT_EQ(PercentileNs(samples, 1.0), 40u);
  EXPECT_EQ(PercentileNs({7}, 0.5), 7u);
  EXPECT_EQ(PercentileNs({}, 0.99), 0u);
}

TEST(PercentileTest, TinySampleSetsAreWellDefined) {
  // n = 1: every percentile is the lone sample.
  EXPECT_EQ(PercentileNs({5}, 0.50), 5u);
  EXPECT_EQ(PercentileNs({5}, 0.95), 5u);
  EXPECT_EQ(PercentileNs({5}, 0.99), 5u);
  // n = 2: p50 is the first sample (rank ceil(0.5*2)=1), p95/p99 the second.
  EXPECT_EQ(PercentileNs({10, 20}, 0.50), 10u);
  EXPECT_EQ(PercentileNs({10, 20}, 0.95), 20u);
  EXPECT_EQ(PercentileNs({10, 20}, 0.99), 20u);
}

TEST(PercentileTest, ExactIntegerRanksAreNotInflatedByRounding) {
  // 0.95 * 20 = 19 exactly in arithmetic, but 19.000000000000004 in binary
  // floating point — the rank must stay 19, not spill to 20.
  std::vector<sim::SimTime> twenty;
  for (sim::SimTime i = 1; i <= 20; ++i) twenty.push_back(i * 100);
  EXPECT_EQ(PercentileNs(twenty, 0.95), 1900u);
  EXPECT_EQ(PercentileNs(twenty, 0.50), 1000u);
  // Same rank computed two ways must agree: p50 of 40 == rank-20 sample.
  std::vector<sim::SimTime> forty;
  for (sim::SimTime i = 1; i <= 40; ++i) forty.push_back(i);
  EXPECT_EQ(PercentileNs(forty, 0.50), 20u);
  EXPECT_EQ(PercentileNs(forty, 0.95), 38u);
}

// ---------------------------------------------------------- service loop

class ServeLoopTest : public ::testing::Test {
 protected:
  ServeLoopTest() : engine_(sim::FabricConfig{}) {
    LineitemSpec spec;
    spec.rows = 20'000;
    spec.row_group_size = 8'192;
    DFLOW_CHECK(
        engine_.catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
  }

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

  std::vector<TenantConfig> ServiceTenants() {
    TenantConfig open;
    open.name = "open";
    open.priority = 0;
    open.queue_capacity = 4;
    open.arrival_probability = 0.6;
    open.templates = {{SmallQ6(), "q6", 1}};

    TenantConfig closed;
    closed.name = "closed";
    closed.priority = 1;
    closed.queue_capacity = 2;
    closed.closed_loop_clients = 1;
    closed.think_time_ns = 2'000'000;
    closed.templates = {{SmallQ6(), "q6", 1}};
    return {open, closed};
  }

  ServiceConfig SmallConfig() {
    ServiceConfig config;
    config.seed = 42;
    config.horizon_ns = 15'000'000;
    config.admission.global_max_in_flight = 2;
    config.admission.global_queue_capacity = 4;
    return config;
  }

  Engine engine_;
};

TEST_F(ServeLoopTest, CountersAreConsistent) {
  ServiceLoop loop(&engine_, ServiceTenants(), SmallConfig());
  auto result = loop.Run().ValueOrDie();
  const ServiceReport& r = result.service;

  EXPECT_GT(r.arrivals_total, 0u);
  EXPECT_EQ(r.arrivals_total, r.admitted_total + r.shed_total);
  EXPECT_EQ(r.admitted_total, r.completed_total + r.failed_total);
  EXPECT_EQ(r.failed_total, 0u);
  EXPECT_EQ(r.degraded_total, 0u);
  EXPECT_GT(r.makespan_ns, 0u);
  EXPECT_GT(r.p99_ns, 0u);
  EXPECT_GE(r.peak_in_flight, 1u);
  EXPECT_LE(r.peak_in_flight, 2u);  // global_max_in_flight

  ASSERT_EQ(r.tenants.size(), 2u);
  uint64_t arrivals = 0, admitted = 0, shed = 0, completed = 0;
  for (const TenantStats& t : r.tenants) {
    arrivals += t.arrivals;
    admitted += t.admitted;
    shed += t.shed_queue_full + t.shed_overload;
    completed += t.completed;
    EXPECT_LE(t.p50_ns, t.p95_ns);
    EXPECT_LE(t.p95_ns, t.p99_ns);
  }
  EXPECT_EQ(arrivals, r.arrivals_total);
  EXPECT_EQ(admitted, r.admitted_total);
  EXPECT_EQ(shed, r.shed_total);
  EXPECT_EQ(completed, r.completed_total);

  // The fabric-level report covers the whole service run.
  EXPECT_GT(result.fabric.sim_ns, 0u);
  EXPECT_GT(result.fabric.media_bytes, 0u);
  EXPECT_EQ(result.fabric.variant, "service");
}

TEST_F(ServeLoopTest, SameSeedByteIdenticalReport) {
  ServiceLoop first(&engine_, ServiceTenants(), SmallConfig());
  const std::string a =
      trace::ServiceReportToJson(first.Run().ValueOrDie().service);
  ServiceLoop second(&engine_, ServiceTenants(), SmallConfig());
  const std::string b =
      trace::ServiceReportToJson(second.Run().ValueOrDie().service);
  EXPECT_EQ(a, b);

  ServiceConfig other = SmallConfig();
  other.seed = 7;
  ServiceLoop third(&engine_, ServiceTenants(), other);
  const std::string c =
      trace::ServiceReportToJson(third.Run().ValueOrDie().service);
  EXPECT_NE(a, c);
}

TEST_F(ServeLoopTest, ServiceReportJsonCarriesTotalsAndTenants) {
  ServiceLoop loop(&engine_, ServiceTenants(), SmallConfig());
  auto result = loop.Run().ValueOrDie();
  const ServiceReport& report = result.service;
  auto parsed = trace::ParseJson(trace::ServiceReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const trace::JsonValue& root = parsed.ValueOrDie();
  EXPECT_EQ(root.FindPath("schema")->AsString(), "dflow.service_report.v1");
  EXPECT_EQ(root.FindPath("admitted_total")->AsUInt64(),
            report.admitted_total);
  EXPECT_EQ(root.FindPath("completed_total")->AsUInt64(),
            report.completed_total);
  EXPECT_EQ(root.FindPath("p99_ns")->AsUInt64(), report.p99_ns);
  EXPECT_EQ(root.FindPath("cache.misses")->AsUInt64(), report.cache_misses);
  const std::vector<trace::JsonValue>& tenants =
      root.FindPath("tenants")->AsArray();
  ASSERT_EQ(tenants.size(), report.tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    EXPECT_EQ(tenants[i].Find("name")->AsString(), report.tenants[i].name);
    EXPECT_EQ(tenants[i].Find("p99_ns")->AsUInt64(),
              report.tenants[i].p99_ns);
  }
}

TEST_F(ServeLoopTest, TightQueuesShedWithCountedCodes) {
  auto tenants = ServiceTenants();
  tenants[0].queue_capacity = 1;
  tenants[0].arrival_probability = 0.9;
  ServiceConfig config = SmallConfig();
  config.admission.global_max_in_flight = 1;
  config.admission.global_queue_capacity = 2;
  ServiceLoop loop(&engine_, tenants, config);
  auto result = loop.Run().ValueOrDie();
  const ServiceReport& r = result.service;
  EXPECT_GT(r.shed_total, 0u);
  EXPECT_EQ(r.arrivals_total, r.admitted_total + r.shed_total);
  // Every admitted query still completes: shedding is the only loss path.
  EXPECT_EQ(r.completed_total, r.admitted_total);
}

// Bad configuration is an InvalidArgument from Run naming the field, never
// an abort while the loop is being built.
TEST_F(ServeLoopTest, ZeroProgramCacheCapacityIsInvalidArgument) {
  ServiceConfig config = SmallConfig();
  config.program_cache_capacity = 0;
  ServiceLoop loop(&engine_, ServiceTenants(), config);
  auto result = loop.Run();
  ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("program_cache_capacity"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ServeLoopTest, TenantWithoutTemplatesIsInvalidArgument) {
  auto tenants = ServiceTenants();
  tenants[1].templates.clear();
  ServiceLoop loop(&engine_, tenants, SmallConfig());
  auto result = loop.Run();
  ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("templates"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("closed"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace dflow::serve
