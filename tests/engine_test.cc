#include <gtest/gtest.h>

#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/local_executor.h"
#include "dflow/sched/scheduler.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

// Shared small dataset for engine tests.
class EngineTest : public ::testing::Test {
 protected:
  static sim::FabricConfig Config() {
    sim::FabricConfig config;
    config.num_compute_nodes = 2;
    return config;
  }

  EngineTest() : engine_(Config()) {
    LineitemSpec li;
    li.rows = 30'000;
    li.num_orders = 5'000;  // matches the orders table => every row joins
    li.row_group_size = 8'192;
    DFLOW_CHECK(engine_.catalog().Register(
        MakeLineitemTable(li).ValueOrDie()).ok());
    OrdersSpec orders;
    orders.rows = 5'000;
    orders.row_group_size = 8'192;
    DFLOW_CHECK(engine_.catalog().Register(
        MakeOrdersTable(orders).ValueOrDie()).ok());
  }

  static QuerySpec Q6Like() {
    // SELECT sum(extendedprice * discount) FROM lineitem
    // WHERE shipdate in [lo, lo+500) AND discount <= 0.05
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

  static QuerySpec CountQuery() {
    QuerySpec spec;
    spec.table = "lineitem";
    spec.count_only = true;
    return spec;
  }

  Engine engine_;
};

TEST_F(EngineTest, CountQueryExactAnswer) {
  auto result = engine_.Execute(CountQuery()).ValueOrDie();
  ASSERT_EQ(TotalRows(result.chunks), 1u);
  EXPECT_EQ(result.chunks[0].GetValue(0, 0).int64_value(), 30'000);
  EXPECT_GT(result.report.sim_ns, 0u);
}

TEST_F(EngineTest, ResultsIdenticalAcrossPlacements) {
  // The same query must produce identical answers on every data-path
  // variant — placement is a performance decision, never a semantic one.
  const QuerySpec spec = Q6Like();
  ExecOptions cpu_only;
  cpu_only.placement = PlacementChoice::kCpuOnly;
  ExecOptions offload;
  offload.placement = PlacementChoice::kFullOffload;
  auto a = engine_.Execute(spec, cpu_only).ValueOrDie();
  auto b = engine_.Execute(spec, offload).ValueOrDie();
  auto c = engine_.Execute(spec).ValueOrDie();  // kAuto
  ASSERT_EQ(TotalRows(a.chunks), 1u);
  ASSERT_EQ(TotalRows(b.chunks), 1u);
  ASSERT_EQ(TotalRows(c.chunks), 1u);
  const double va = a.chunks[0].GetValue(0, 0).double_value();
  const double vb = b.chunks[0].GetValue(0, 0).double_value();
  const double vc = c.chunks[0].GetValue(0, 0).double_value();
  EXPECT_NEAR(va, vb, std::abs(va) * 1e-9);
  EXPECT_NEAR(va, vc, std::abs(va) * 1e-9);
  EXPECT_EQ(a.chunks[0].GetValue(0, 1).int64_value(),
            b.chunks[0].GetValue(0, 1).int64_value());
}

TEST_F(EngineTest, OffloadMovesFewerBytesAndFinishesFaster) {
  const QuerySpec spec = Q6Like();
  ExecOptions cpu_only;
  cpu_only.placement = PlacementChoice::kCpuOnly;
  ExecOptions offload;
  offload.placement = PlacementChoice::kFullOffload;
  auto cpu = engine_.Execute(spec, cpu_only).ValueOrDie();
  auto off = engine_.Execute(spec, offload).ValueOrDie();
  EXPECT_LT(off.report.network_bytes, cpu.report.network_bytes / 2);
  EXPECT_LT(off.report.sim_ns, cpu.report.sim_ns);
}

TEST_F(EngineTest, AutoIsNeverWorseThanBothFixedChoices) {
  const QuerySpec spec = Q6Like();
  ExecOptions cpu_only;
  cpu_only.placement = PlacementChoice::kCpuOnly;
  ExecOptions offload;
  offload.placement = PlacementChoice::kFullOffload;
  const auto t_auto = engine_.Execute(spec).ValueOrDie().report.sim_ns;
  const auto t_cpu = engine_.Execute(spec, cpu_only).ValueOrDie().report.sim_ns;
  const auto t_off =
      engine_.Execute(spec, offload).ValueOrDie().report.sim_ns;
  // The cost model is an estimate, so allow 10% slack.
  EXPECT_LE(t_auto, static_cast<sim::SimTime>(
                        1.1 * static_cast<double>(std::min(t_cpu, t_off))));
}

TEST_F(EngineTest, PlanVariantsRankedAndDistinct) {
  auto variants = engine_.PlanVariants(Q6Like()).ValueOrDie();
  EXPECT_GT(variants.size(), 4u);
  for (size_t i = 1; i < variants.size(); ++i) {
    EXPECT_LE(variants[i - 1].cost.makespan_ns, variants[i].cost.makespan_ns);
  }
}

TEST_F(EngineTest, ZoneMapPruningSkipsRowGroups) {
  // Shipdate conjunct out of range for most row groups? Shipdates are
  // uniform so pruning won't trigger; use orderkey which is also uniform —
  // instead query an impossible range and expect full pruning.
  QuerySpec spec;
  spec.table = "lineitem";
  spec.filter = Expr::Cmp(CompareOp::kGt, Expr::Col("l_shipdate"),
                          Expr::Lit(Value::Date32(kShipdateHi + 100)));
  spec.count_only = true;
  auto result = engine_.Execute(spec).ValueOrDie();
  EXPECT_EQ(result.chunks[0].GetValue(0, 0).int64_value(), 0);
  EXPECT_EQ(result.report.scan.row_groups_pruned,
            result.report.scan.row_groups_total);
  EXPECT_EQ(result.report.media_bytes, 0u);
}

TEST_F(EngineTest, GroupByQueryCorrectAcrossPlacements) {
  // Q1-like: group by returnflag, sum quantity + count.
  QuerySpec spec;
  spec.table = "lineitem";
  spec.group_by = {"l_returnflag"};
  spec.aggregates = {{AggFunc::kSum, "l_quantity", "sum_qty"},
                     {AggFunc::kCount, "", "n"}};
  ExecOptions cpu_only;
  cpu_only.placement = PlacementChoice::kCpuOnly;
  ExecOptions offload;
  offload.placement = PlacementChoice::kFullOffload;
  auto a = engine_.Execute(spec, cpu_only).ValueOrDie();
  auto b = engine_.Execute(spec, offload).ValueOrDie();
  DataChunk ca = ConcatChunks(a.chunks);
  DataChunk cb = ConcatChunks(b.chunks);
  ASSERT_EQ(ca.num_rows(), 3u);
  ASSERT_EQ(cb.num_rows(), 3u);
  int64_t total_a = 0, total_b = 0;
  for (size_t r = 0; r < 3; ++r) {
    total_a += ca.GetValue(r, 2).int64_value();
    total_b += cb.GetValue(r, 2).int64_value();
  }
  EXPECT_EQ(total_a, 30'000);
  EXPECT_EQ(total_b, 30'000);
}

TEST_F(EngineTest, CompressUplinkReducesNetworkBytes) {
  // A row-returning query where real (compressible) data crosses the
  // network: low-cardinality flags and narrow keys.
  QuerySpec plain;
  plain.table = "lineitem";
  plain.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                           Expr::Lit(Value::Date32(kShipdateLo + 1200)));
  plain.projections = {Expr::Col("l_orderkey"), Expr::Col("l_returnflag")};
  plain.projection_names = {"l_orderkey", "l_returnflag"};
  QuerySpec compressed = plain;
  compressed.compress_uplink = true;
  ExecOptions offload;
  offload.placement = PlacementChoice::kFullOffload;
  auto a = engine_.Execute(plain, offload).ValueOrDie();
  auto b = engine_.Execute(compressed, offload).ValueOrDie();
  EXPECT_GT(a.report.network_bytes, 0u);
  EXPECT_LT(b.report.network_bytes, a.report.network_bytes);
  // Same rows either way.
  EXPECT_EQ(a.report.result_rows, b.report.result_rows);
}

TEST_F(EngineTest, SortAndLimitPipeline) {
  QuerySpec spec;
  spec.table = "orders";
  spec.order_by = SortSpec{"o_totalprice", /*descending=*/true, 10};
  auto result = engine_.Execute(spec).ValueOrDie();
  DataChunk rows = ConcatChunks(result.chunks);
  ASSERT_EQ(rows.num_rows(), 10u);
  auto price_col = rows.column(3);
  for (size_t r = 1; r < rows.num_rows(); ++r) {
    EXPECT_GE(price_col.f64()[r - 1], price_col.f64()[r]);
  }
}

TEST_F(EngineTest, UnknownTableFails) {
  QuerySpec spec;
  spec.table = "nope";
  spec.count_only = true;
  EXPECT_TRUE(engine_.Execute(spec).status().IsNotFound());
}

// Every entry point that takes a compute node refuses one outside the
// fabric with InvalidArgument instead of indexing past its node table.
void ExpectNodeRefused(Engine& engine, const QuerySpec& spec, int node) {
  SCOPED_TRACE("node " + std::to_string(node));
  auto expect_invalid = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  };
  ExecOptions options;
  options.node = node;
  expect_invalid(engine.Execute(spec, options).status());
  expect_invalid(engine.Verify(spec, options).status());
  const Placement cpu_only =
      engine.ChoosePlacement(spec, PlacementChoice::kCpuOnly).ValueOrDie();
  expect_invalid(engine.ExecuteWithPlacement(spec, cpu_only, options).status());
  expect_invalid(engine.Verify(spec, cpu_only, options).status());
  for (PlacementChoice choice :
       {PlacementChoice::kAuto, PlacementChoice::kCpuOnly,
        PlacementChoice::kFullOffload}) {
    expect_invalid(engine.ChoosePlacement(spec, choice, node).status());
    expect_invalid(
        engine.Compile(spec, choice, verify::VerifyMode::kStrict, node)
            .status());
  }
  auto plan = engine.CompilePlan(spec).ValueOrDie();
  expect_invalid(engine
                     .CompileVariant(plan.get(), plan->cpu_only,
                                     verify::VerifyMode::kStrict, node)
                     .status());
}

TEST_F(EngineTest, NodePastTheFabricIsInvalidArgument) {
  ASSERT_EQ(engine_.fabric().num_nodes(), 2);
  ExpectNodeRefused(engine_, Q6Like(), 7);
  ExpectNodeRefused(engine_, Q6Like(), 2);
}

TEST_F(EngineTest, NegativeNodeIsInvalidArgument) {
  ExpectNodeRefused(engine_, Q6Like(), -1);
}

// An enabled trace with a zero-event ring is refused with InvalidArgument
// by every simulated entry point, before a tracer is built.
TEST_F(EngineTest, ZeroTraceRingIsInvalidArgument) {
  ExecOptions options;
  options.trace.enabled = true;
  options.trace.ring_capacity = 0;
  auto expect_invalid = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
    EXPECT_NE(status.message().find("ring_capacity"), std::string::npos)
        << status.ToString();
  };
  expect_invalid(engine_.Execute(Q6Like(), options).status());
  auto program = engine_.Compile(Q6Like(), PlacementChoice::kCpuOnly);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  expect_invalid(
      engine_.ExecuteProgram(*program.ValueOrDie(), options).status());
  JoinSpec join;
  join.build_table = "orders";
  join.probe_table = "lineitem";
  join.build_key = "o_orderkey";
  join.probe_key = "l_orderkey";
  join.num_nodes = 2;
  expect_invalid(engine_.ExecutePartitionedJoin(join, options).status());
  EXPECT_EQ(engine_.tracer(), nullptr);
}

// The public EnableTracing refuses a zero-event ring the same way, and
// leaves tracing off; a one-event ring is accepted.
TEST_F(EngineTest, EnableTracingRefusesAZeroRing) {
  trace::TraceOptions options;
  options.ring_capacity = 0;
  const Status status = engine_.EnableTracing(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("ring_capacity"), std::string::npos);
  EXPECT_EQ(engine_.tracer(), nullptr);
  options.ring_capacity = 1;
  ASSERT_TRUE(engine_.EnableTracing(options).ok());
  EXPECT_NE(engine_.tracer(), nullptr);
  EXPECT_TRUE(engine_.Execute(Q6Like()).ok());
}

TEST_F(EngineTest, VolcanoAgreesWithDataflow) {
  const QuerySpec spec = Q6Like();
  auto flow = engine_.Execute(spec).ValueOrDie();
  auto legacy = engine_.ExecuteOnVolcano(spec, 256).ValueOrDie();
  ASSERT_EQ(legacy.rows.size(), 1u);
  EXPECT_NEAR(flow.chunks[0].GetValue(0, 0).double_value(),
              legacy.rows[0][0].double_value(), 1e-6);
  EXPECT_EQ(flow.chunks[0].GetValue(0, 1).int64_value(),
            legacy.rows[0][1].int64_value());
}

TEST_F(EngineTest, VolcanoNeedsBufferPoolMemoryDataflowDoesNot) {
  const QuerySpec spec = Q6Like();
  auto flow = engine_.Execute(spec).ValueOrDie();
  auto legacy = engine_.ExecuteOnVolcano(spec, 4096).ValueOrDie();
  // The streaming engine's in-flight footprint is orders of magnitude below
  // the baseline's pool + operator state.
  EXPECT_LT(flow.report.peak_queue_bytes * 5, legacy.peak_resident_bytes);
}

// Join keys that can never compare equal are refused by the lowering, in
// every mode; INT64 against DATE32 is accepted.
TEST_F(EngineTest, JoinKeyTypesThatCanNeverMatchAreInvalidArgument) {
  JoinSpec join;
  join.build_table = "orders";
  join.probe_table = "lineitem";
  join.build_key = "o_orderkey";  // INT64
  join.num_nodes = 2;
  ExecOptions parallel;
  parallel.mode = ExecMode::kParallel;
  for (const ExecOptions& options : {ExecOptions{}, parallel}) {
    for (const char* probe_key : {"l_comment", "l_discount"}) {
      join.probe_key = probe_key;
      EXPECT_EQ(engine_.LowerJoin(join, options).status().code(),
                StatusCode::kInvalidArgument)
          << probe_key;
      EXPECT_EQ(engine_.ExecutePartitionedJoin(join, options).status().code(),
                StatusCode::kInvalidArgument)
          << probe_key;
    }
    join.probe_key = "l_shipdate";  // DATE32
    EXPECT_TRUE(engine_.LowerJoin(join, options).ok());
  }
}

TEST_F(EngineTest, PartitionedJoinCountsMatchExchangeModes) {
  JoinSpec join;
  join.build_table = "orders";
  join.probe_table = "lineitem";
  join.build_key = "o_orderkey";
  join.probe_key = "l_orderkey";
  join.num_nodes = 2;
  join.exchange = JoinSpec::Exchange::kNicScatter;
  auto nic = engine_.ExecutePartitionedJoin(join).ValueOrDie();
  join.exchange = JoinSpec::Exchange::kCpuExchange;
  auto cpu = engine_.ExecutePartitionedJoin(join).ValueOrDie();
  EXPECT_EQ(nic.total_rows, cpu.total_rows);
  // Every lineitem row has an order (num_orders = 5000 <= orders rows).
  EXPECT_EQ(nic.total_rows, 30'000);
  EXPECT_EQ(nic.node_counts.size(), 2u);
  // NIC scattering avoids the node-0 CPU staging hop.
  EXPECT_LT(nic.report.sim_ns, cpu.report.sim_ns);
}

TEST_F(EngineTest, ConcurrentQueriesBothComplete) {
  std::vector<QuerySpec> specs = {Q6Like(), CountQuery()};
  auto variants0 = engine_.PlanVariants(specs[0]).ValueOrDie();
  auto variants1 = engine_.PlanVariants(specs[1]).ValueOrDie();
  auto result = engine_
                    .ExecuteConcurrent(
                        specs, {variants0[0].placement, variants1[0].placement})
                    .ValueOrDie();
  ASSERT_EQ(result.completion_ns.size(), 2u);
  EXPECT_GT(result.completion_ns[0], 0u);
  EXPECT_GT(result.completion_ns[1], 0u);
  EXPECT_EQ(result.result_rows[0], 1u);
  EXPECT_EQ(result.result_rows[1], 1u);
  EXPECT_EQ(result.makespan_ns,
            std::max(result.completion_ns[0], result.completion_ns[1]));
}

TEST_F(EngineTest, SchedulerBeatsNaiveUnderContention) {
  // Several identical heavy queries: naive puts all on the same offload
  // path; the scheduler spreads them / rate limits.
  std::vector<QuerySpec> specs(3, Q6Like());
  Scheduler scheduler(&engine_);
  auto naive = scheduler.PlanNaive(specs).ValueOrDie();
  auto smart = scheduler.Plan(specs).ValueOrDie();
  auto naive_run = scheduler.Run(specs, naive).ValueOrDie();
  auto smart_run = scheduler.Run(specs, smart).ValueOrDie();
  EXPECT_LE(smart_run.makespan_ns,
            static_cast<sim::SimTime>(
                1.05 * static_cast<double>(naive_run.makespan_ns)));
}

TEST_F(EngineTest, RateLimitTamesBackgroundQuery) {
  QuerySpec heavy;  // full-table pull to the CPU: network hog
  heavy.table = "lineitem";
  ExecOptions opts;
  opts.placement = PlacementChoice::kCpuOnly;
  auto unlimited = engine_.Execute(heavy, opts).ValueOrDie();
  opts.network_rate_limit_gbps = 1.0;
  auto limited = engine_.Execute(heavy, opts).ValueOrDie();
  EXPECT_GT(limited.report.sim_ns, unlimited.report.sim_ns);
}

}  // namespace
}  // namespace dflow
