// Tier-1 coverage for the real-parallel executor
// (src/dflow/exec/parallel/): the work-stealing scheduler (steal
// correctness, drain-on-shutdown, exception propagation), row-group morsel
// dispatch, the sequence-ordered hand-off of morsel outputs to the merge,
// and end-to-end plan equivalence: ExecMode::kParallel must fingerprint
// byte-identically to the Volcano reference at 1, 2, and 8 workers, give
// bit-stable DOUBLE aggregates, report the simulated scan and match the
// simulated join's partition counts. This suite is the TSan CI leg's main
// course.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dflow/engine/engine.h"
#include "dflow/engine/volcano_runner.h"
#include "dflow/exec/parallel/morsel.h"
#include "dflow/exec/parallel/parallel_executor.h"
#include "dflow/exec/parallel/task_scheduler.h"
#include "dflow/plan/parser.h"
#include "dflow/testing/canonical.h"
#include "dflow/testing/diff_runner.h"
#include "dflow/testing/plan_gen.h"
#include "dflow/workload/tpch_like.h"

namespace dflow::parallel {
namespace {

// ------------------------------------------------------------- scheduler

TEST(WorkStealingSchedulerTest, RunsEverySubmittedTask) {
  WorkStealingScheduler scheduler(4);
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    scheduler.SubmitTo(i % 4, [&ran](uint32_t) { ran.fetch_add(1); });
  }
  ASSERT_TRUE(scheduler.Wait().ok());
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(scheduler.stats().tasks_run, static_cast<uint64_t>(kTasks));
}

TEST(WorkStealingSchedulerTest, IdleWorkersStealFromALoadedDeque) {
  // Deterministic steal forcing — no timing assumptions, only
  // dependencies. Park all three workers in hold tasks, then load deque 0
  // with kTasks count tasks followed by a blocker. A worker's own pop
  // takes the BACK of its deque, so whoever first consumes deque 0 gets
  // the blocker and parks until all count tasks are done; steals take the
  // FRONT, so every count task reaches another worker by stealing. Either
  // way, all kTasks count tasks are executed by thieves.
  WorkStealingScheduler scheduler(3);
  constexpr int kTasks = 16;
  std::mutex m;
  std::condition_variable cv;
  bool released = false;
  int holds_entered = 0;
  int done = 0;
  for (uint32_t w = 0; w < 3; ++w) {
    scheduler.SubmitTo(w, [&](uint32_t) {
      std::unique_lock<std::mutex> lock(m);
      ++holds_entered;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    });
  }
  {
    // Three holds entered concurrently == three distinct workers parked,
    // so nobody is consuming deque 0 while we load it.
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return holds_entered == 3; });
  }
  for (int i = 0; i < kTasks; ++i) {
    scheduler.SubmitTo(0, [&](uint32_t) {
      std::lock_guard<std::mutex> lock(m);
      ++done;
      cv.notify_all();
    });
  }
  scheduler.SubmitTo(0, [&](uint32_t) {  // the blocker, at the back
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done == kTasks; });
  });
  {
    std::lock_guard<std::mutex> lock(m);
    released = true;
    cv.notify_all();
  }
  ASSERT_TRUE(scheduler.Wait().ok());
  EXPECT_EQ(done, kTasks);
  EXPECT_GE(scheduler.stats().steals, static_cast<uint64_t>(kTasks));
}

TEST(WorkStealingSchedulerTest, ShutdownDrainsQueuedTasksAndJoins) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  {
    WorkStealingScheduler scheduler(2);
    for (int i = 0; i < kTasks; ++i) {
      scheduler.SubmitTo(i % 2, [&ran](uint32_t) { ran.fetch_add(1); });
    }
    scheduler.Shutdown();  // no Wait(): shutdown itself must drain
    EXPECT_EQ(ran.load(), kTasks);
    scheduler.Shutdown();  // idempotent
  }  // destructor after explicit Shutdown must also be safe
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(WorkStealingSchedulerTest, StealDuringShutdownDrainsEverything) {
  // Deterministic barrier variant of the drain guarantee: worker 0 is
  // parked inside a task on a condition variable while all remaining work
  // sits in *its* deque, so the only way the destructor's Shutdown can
  // drain is for worker 1 to steal the backlog while worker 0 is pinned.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  {
    WorkStealingScheduler scheduler(2);
    scheduler.SubmitTo(0, [&](uint32_t) {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return release; });
    });
    for (int i = 0; i < kTasks; ++i) {
      scheduler.SubmitTo(0, [&ran](uint32_t) { ran.fetch_add(1); });
    }
    // Worker 1 has nothing of its own; stealing is the only path to the
    // backlog. Release the pin and let the destructor drain.
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      release = true;
    }
    gate_cv.notify_one();
  }  // ~WorkStealingScheduler -> Shutdown(): must not strand any task
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(WorkStealingSchedulerTest, FirstTaskExceptionSurfacesFromWait) {
  WorkStealingScheduler scheduler(2);
  std::atomic<int> ran{0};
  scheduler.SubmitTo(0, [](uint32_t) {
    throw std::runtime_error("morsel exploded");
  });
  for (int i = 0; i < 8; ++i) {
    scheduler.SubmitTo((i + 1) % 2, [&ran](uint32_t) { ran.fetch_add(1); });
  }
  const Status status = scheduler.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("morsel exploded"), std::string::npos);
  EXPECT_EQ(ran.load(), 8);           // later tasks still ran
  EXPECT_TRUE(scheduler.Wait().ok());  // error is consumed, pool reusable
  scheduler.SubmitTo(1, [&ran](uint32_t) { ran.fetch_add(1); });
  ASSERT_TRUE(scheduler.Wait().ok());
  EXPECT_EQ(ran.load(), 9);
}

// --------------------------------------------------------------- morsels

// Table "ids": id = 0..rows-1 in order (so zone maps prune id ranges) and
// v = id / 10, a DOUBLE that is not exactly representable.
std::shared_ptr<Table> MakeIdTable(size_t rows, size_t row_group_size) {
  TableBuilder builder(
      "ids", Schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}}),
      row_group_size);
  std::vector<int64_t> ids(rows);
  std::vector<double> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    ids[i] = static_cast<int64_t>(i);
    values[i] = static_cast<double>(i) / 10.0;
  }
  DFLOW_CHECK(builder
                  .Append(DataChunk({ColumnVector::FromInt64(std::move(ids)),
                                     ColumnVector::FromDouble(
                                         std::move(values))}))
                  .ok());
  return std::make_shared<Table>(builder.Finish().ValueOrDie());
}

TEST(MorselTest, SplitCoversEveryRowExactlyOnceInScanOrder) {
  // Row groups of 5000, 5000 and 2000 rows: chunks of 2048, 2048, 904 per
  // full group. The prune predicate rules out the first group.
  const std::shared_ptr<Table> table = MakeIdTable(12000, 5000);
  const TableScanSource scan =
      TableScanSource::Make(table, {"id"},
                            Expr::Cmp(CompareOp::kGe, Expr::Col("id"),
                                      Expr::Lit(Value::Int64(5000))))
          .ValueOrDie();
  ASSERT_EQ(scan.SurvivingRowGroups(), (std::vector<size_t>{1, 2}));
  for (uint32_t workers : {1u, 3u}) {
    WorkStealingScheduler scheduler(workers);
    std::mutex mu;
    std::vector<Morsel> seen;
    DispatchStats stats;
    ASSERT_TRUE(DispatchMorsels(
                    scan,
                    [&](uint32_t, Morsel morsel) {
                      std::lock_guard<std::mutex> lock(mu);
                      seen.push_back(std::move(morsel));
                      return Status::OK();
                    },
                    &scheduler, &stats)
                    .ok());
    std::sort(seen.begin(), seen.end(), [](const Morsel& a, const Morsel& b) {
      return a.sequence < b.sequence;
    });
    EXPECT_EQ(stats.morsels, seen.size());
    EXPECT_EQ(stats.rows, 7000u);
    EXPECT_EQ(scheduler.stats().tasks_run, seen.size());
    // Sequence = (row group, chunk index); concatenated in sequence order
    // the morsels are the surviving rows, each exactly once, in scan order.
    std::vector<uint64_t> expected_sequences = {
        1ull << 32, 1ull << 32 | 1, 1ull << 32 | 2, 2ull << 32};
    std::vector<uint64_t> sequences;
    int64_t next_id = 5000;
    for (const Morsel& m : seen) {
      sequences.push_back(m.sequence);
      ASSERT_EQ(m.chunk.num_columns(), 1u);  // only the scan's columns
      EXPECT_GT(m.chunk.num_rows(), 0u);
      EXPECT_LE(m.chunk.num_rows(), kVectorSize);
      for (size_t r = 0; r < m.chunk.num_rows(); ++r) {
        EXPECT_EQ(m.chunk.GetValue(r, 0).int64_value(), next_id++);
      }
    }
    EXPECT_EQ(sequences, expected_sequences) << workers << " workers";
    EXPECT_EQ(next_id, 12000);
  }
}

// ------------------------------------------ sequence-ordered collection

/// Shared by the worker chains of one run: the first morsel (id 0) waits in
/// its Finish until a later morsel's chain has finished.
struct FinishGate {
  std::mutex mu;
  std::condition_variable cv;
  bool later_finished = false;
  std::vector<int64_t> finish_order;  // first id of each finished morsel
};

/// Pass-through worker stage that makes the morsels finish out of scan
/// order through `gate` (null: no waiting).
class GateOperator : public Operator {
 public:
  GateOperator(Schema schema, FinishGate* gate)
      : schema_(std::move(schema)), gate_(gate) {}
  std::string name() const override { return "gate"; }
  const Schema& output_schema() const override { return schema_; }
  OperatorTraits traits() const override { return {}; }
  Status Push(DataChunk input, std::vector<DataChunk>* out) override {
    first_id_ = input.GetValue(0, 0).int64_value();
    out->push_back(std::move(input));
    return Status::OK();
  }
  Status Finish(std::vector<DataChunk>*) override {
    if (gate_ == nullptr) return Status::OK();
    std::unique_lock<std::mutex> lock(gate_->mu);
    if (first_id_ == 0) {
      gate_->cv.wait(lock, [this] { return gate_->later_finished; });
    } else {
      gate_->later_finished = true;
      gate_->cv.notify_all();
    }
    gate_->finish_order.push_back(first_id_);
    return Status::OK();
  }

 private:
  Schema schema_;
  FinishGate* gate_;
  int64_t first_id_ = -1;
};

/// Pass-through merge stage that records the first id of every chunk.
class RecordingOperator : public Operator {
 public:
  RecordingOperator(Schema schema, std::vector<int64_t>* seen)
      : schema_(std::move(schema)), seen_(seen) {}
  std::string name() const override { return "record"; }
  const Schema& output_schema() const override { return schema_; }
  OperatorTraits traits() const override { return {}; }
  Status Push(DataChunk input, std::vector<DataChunk>* out) override {
    seen_->push_back(input.GetValue(0, 0).int64_value());
    out->push_back(std::move(input));
    return Status::OK();
  }

 private:
  Schema schema_;
  std::vector<int64_t>* seen_;
};

TEST(ParallelExecutorTest, MergeSeesScanOrderWhenMorselsFinishOutOfOrder) {
  // Eight single-chunk row groups of 1500 rows: morsel i starts at id
  // 1500 * i.
  const std::shared_ptr<Table> table = MakeIdTable(8 * 1500, 1500);
  const TableScanSource scan =
      TableScanSource::Make(table, {"id", "v"}).ValueOrDie();
  const Schema schema = scan.output_schema();
  auto run = [&](uint32_t workers, FinishGate* gate,
                 std::vector<int64_t>* merged) {
    ParallelPipelineSpec spec;
    spec.make_worker_chain = [schema, gate]() {
      std::vector<OperatorPtr> ops;
      ops.push_back(std::make_unique<GateOperator>(schema, gate));
      return Result<std::vector<OperatorPtr>>(std::move(ops));
    };
    spec.merge_chain.push_back(
        std::make_unique<RecordingOperator>(schema, merged));
    ParallelExecStats stats;
    auto r = RunMorselPipeline(scan, std::move(spec), workers, &stats);
    EXPECT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(stats.queue_items, 8u);
    std::string rendered;
    if (!r.ok()) return rendered;
    for (const DataChunk& chunk : r.ValueOrDie()) {
      rendered += chunk.ToString(chunk.num_rows() + 1);
      rendered += "\n--\n";
    }
    return rendered;
  };

  FinishGate gate;
  std::vector<int64_t> gated_merge;
  std::vector<int64_t> serial_merge;
  const std::string gated = run(2, &gate, &gated_merge);
  const std::string serial = run(1, nullptr, &serial_merge);
  // The first morsel finished only after a later one had.
  ASSERT_EQ(gate.finish_order.size(), 8u);
  EXPECT_NE(gate.finish_order.front(), 0);
  std::vector<int64_t> scan_order;
  for (int64_t i = 0; i < 8; ++i) scan_order.push_back(1500 * i);
  EXPECT_EQ(gated_merge, scan_order);
  EXPECT_EQ(serial_merge, scan_order);
  EXPECT_EQ(gated, serial);
}

// ------------------------------------------- end-to-end plan equivalence

// Every PlanGen case must produce the Volcano reference's canonical
// fingerprint on the parallel executor at 1, 2, and 8 workers — the same
// bar the DiffRunner real-parallel lane enforces in fuzz-smoke, asserted
// here directly so `ctest` (and the TSan leg) cover it without the fuzz
// driver.
TEST(ParallelEquivalenceTest, MatchesVolcanoAcrossSeedsAndWorkerCounts) {
  testing::PlanGen gen;
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const testing::GeneratedCase c = gen.Generate(seed);
    Engine engine(config);
    for (const auto& table : c.tables) {
      ASSERT_TRUE(engine.catalog().Register(table).ok());
    }

    std::string reference;
    if (c.is_join) {
      VolcanoRunner volcano(config);
      auto ref = volcano.RunJoinCount(engine.catalog(), c.join, 256);
      ASSERT_TRUE(ref.ok()) << ref.status().message();
      reference =
          testing::CanonicalizeVolcanoRows(ref.ValueOrDie().rows).fingerprint;
    } else {
      auto ref = engine.ExecuteOnVolcano(c.query, 256);
      ASSERT_TRUE(ref.ok()) << ref.status().message();
      reference =
          testing::CanonicalizeVolcanoRows(ref.ValueOrDie().rows).fingerprint;
    }

    for (uint32_t workers : {1u, 2u, 8u}) {
      ExecOptions options;
      options.mode = ExecMode::kParallel;
      options.parallel_workers = workers;
      options.verify = verify::VerifyMode::kOff;
      std::string fingerprint;
      if (c.is_join) {
        auto r = engine.ExecutePartitionedJoin(c.join, options);
        ASSERT_TRUE(r.ok())
            << "seed " << seed << " w=" << workers << ": "
            << r.status().message();
        fingerprint =
            testing::CanonicalizeCount(r.ValueOrDie().total_rows).fingerprint;
      } else {
        auto r = engine.Execute(c.query, options);
        ASSERT_TRUE(r.ok())
            << "seed " << seed << " w=" << workers << ": "
            << r.status().message();
        fingerprint =
            testing::CanonicalizeChunks(r.ValueOrDie().chunks).fingerprint;
      }
      EXPECT_EQ(fingerprint, reference)
          << "seed " << seed << " diverged at " << workers << " workers";
    }
  }
}

// The parallel executor's own output must be identical run-to-run and
// across worker counts (not merely canonically equal): chunk-for-chunk,
// row-for-row — the deterministic-canonicalization guarantee.
TEST(ParallelEquivalenceTest, OutputStreamIsIdenticalAcrossWorkerCounts) {
  testing::PlanGen gen;
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const testing::GeneratedCase c = gen.Generate(seed);
    if (c.is_join) continue;
    Engine engine(config);
    for (const auto& table : c.tables) {
      ASSERT_TRUE(engine.catalog().Register(table).ok());
    }
    std::vector<std::string> renderings;
    for (uint32_t workers : {1u, 2u, 8u, 2u}) {  // repeat w=2: run-to-run
      ExecOptions options;
      options.mode = ExecMode::kParallel;
      options.parallel_workers = workers;
      options.verify = verify::VerifyMode::kOff;
      auto r = engine.Execute(c.query, options);
      ASSERT_TRUE(r.ok()) << r.status().message();
      std::string rendered;
      for (const DataChunk& chunk : r.ValueOrDie().chunks) {
        rendered += chunk.ToString(chunk.num_rows() + 1);
        rendered += "\n--\n";
      }
      renderings.push_back(std::move(rendered));
    }
    for (size_t i = 1; i < renderings.size(); ++i) {
      EXPECT_EQ(renderings[i], renderings[0])
          << "seed " << seed << ": output order depended on interleaving";
    }
  }
}

TEST(ParallelExecutorTest, ReportsStats) {
  sim::FabricConfig config;
  Engine engine(config);
  // 1000-row row groups: 20 single-chunk morsels, so many tasks.
  ASSERT_TRUE(engine.catalog().Register(MakeIdTable(20000, 1000)).ok());
  QuerySpec spec;
  spec.table = "ids";
  spec.filter = Expr::Cmp(CompareOp::kGe, Expr::Col("v"),
                          Expr::Lit(Value::Double(0.0)));
  ExecOptions options;
  options.mode = ExecMode::kParallel;
  options.parallel_workers = 4;
  options.verify = verify::VerifyMode::kOff;
  auto r = engine.Execute(spec, options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const QueryResult& result = r.ValueOrDie();
  EXPECT_EQ(result.parallel.morsels, 20u);
  EXPECT_EQ(result.parallel.tasks_run, result.parallel.morsels);
  EXPECT_EQ(result.parallel.rows_in, 20000u);
  // Every morsel's output reached the merge.
  EXPECT_EQ(result.parallel.queue_items, 20u);
  EXPECT_GT(result.parallel.wall_ns, 0u);
  EXPECT_EQ(result.report.variant, "real-parallel:w4");
  EXPECT_EQ(result.report.sim_ns, 0u);
  EXPECT_EQ(result.report.result_rows, 20000u);
}

// Zero credits are refused by the lowering, before anything is built or any
// thread starts, in every mode and for queries and joins alike.
TEST(ParallelExecutorTest, ZeroCreditsIsAnExplicitError) {
  testing::PlanGen gen;
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  uint64_t seed = 0;
  testing::GeneratedCase c = gen.Generate(seed);
  while (c.is_join) c = gen.Generate(++seed);
  Engine engine(config);
  for (const auto& table : c.tables) {
    ASSERT_TRUE(engine.catalog().Register(table).ok());
  }
  ASSERT_TRUE(engine.catalog().Register(MakeIdTable(1'000, 500)).ok());
  JoinSpec join;
  join.build_table = "ids";
  join.probe_table = "ids";
  join.build_key = "id";
  join.probe_key = "id";
  join.num_nodes = 2;
  for (ExecMode mode : {ExecMode::kSimulated, ExecMode::kParallel}) {
    ExecOptions options;
    options.mode = mode;
    options.credits = 0;
    options.verify = verify::VerifyMode::kOff;
    const char* what = mode == ExecMode::kParallel ? "parallel" : "simulated";
    auto q = engine.Execute(c.query, options);
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(q.status().message().find("credits"), std::string::npos)
        << what << ": " << q.status().message();
    auto j = engine.ExecutePartitionedJoin(join, options);
    EXPECT_EQ(j.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(j.status().message().find("credits"), std::string::npos)
        << what << ": " << j.status().message();
  }
}

// ------------------------------------------------ scan, join, aggregates

std::string Fingerprint(const QueryResult& result) {
  return testing::CanonicalizeChunks(result.chunks).fingerprint;
}

ExecOptions ParallelOptions(uint32_t workers) {
  ExecOptions options;
  options.mode = ExecMode::kParallel;
  options.parallel_workers = workers;
  options.verify = verify::VerifyMode::kOff;
  return options;
}

// Worker-local partials used to accumulate over whichever morsels a worker
// stole, so DOUBLE sums depended on the schedule. They are now flushed per
// morsel and merged in sequence order: the same bits at every worker count.
TEST(ParallelAggregateTest, DoubleSumsAreBitStableAcrossRunsAndWorkerCounts) {
  sim::FabricConfig config;
  Engine engine(config);
  LineitemSpec lineitem;
  lineitem.rows = 20'000;
  lineitem.row_group_size = 4096;
  ASSERT_TRUE(
      engine.catalog().Register(MakeLineitemTable(lineitem).ValueOrDie()).ok());
  ASSERT_TRUE(engine.catalog().Register(MakeIdTable(20'000, 3000)).ok());
  QuerySpec q6;
  q6.table = "lineitem";
  q6.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                        Expr::Lit(Value::Date32(9400)));
  q6.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                Expr::Col("l_discount"))};
  q6.projection_names = {"revenue"};
  q6.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
  const std::vector<QuerySpec> specs = {
      q6,
      ParseQuery("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q, "
                 "SUM(l_extendedprice) AS p, SUM(l_tax) AS t, COUNT(*) AS n "
                 "FROM lineitem GROUP BY l_returnflag, l_linestatus")
          .ValueOrDie(),
      ParseQuery("SELECT SUM(v) AS s FROM ids").ValueOrDie()};
  for (size_t i = 0; i < specs.size(); ++i) {
    auto first = engine.Execute(specs[i], ParallelOptions(2));
    ASSERT_TRUE(first.ok()) << first.status().message();
    const std::string reference = Fingerprint(first.ValueOrDie());
    for (uint32_t workers : {2u, 2u, 2u, 2u, 1u, 4u}) {
      auto r = engine.Execute(specs[i], ParallelOptions(workers));
      ASSERT_TRUE(r.ok()) << r.status().message();
      EXPECT_EQ(Fingerprint(r.ValueOrDie()), reference)
          << "plan " << i << " changed bits at " << workers << " workers";
    }
  }
}

TEST(ParallelJoinTest, PartitionCountsMatchTheSimulatedJoin) {
  sim::FabricConfig config;
  config.num_compute_nodes = 4;
  Engine engine(config);
  OrdersSpec orders;
  orders.rows = 5'000;
  orders.row_group_size = 2048;
  LineitemSpec lineitem;
  lineitem.rows = 20'000;
  lineitem.num_orders = orders.rows;
  lineitem.row_group_size = 4096;
  ASSERT_TRUE(
      engine.catalog().Register(MakeOrdersTable(orders).ValueOrDie()).ok());
  ASSERT_TRUE(
      engine.catalog().Register(MakeLineitemTable(lineitem).ValueOrDie()).ok());
  JoinSpec join;
  join.build_table = "orders";
  join.probe_table = "lineitem";
  join.build_key = "o_orderkey";
  join.probe_key = "l_orderkey";
  join.num_nodes = 4;
  for (bool filtered : {false, true}) {
    // The filter reads two non-key columns, which the probe scan must add.
    join.probe_filter =
        filtered ? Expr::And({Expr::Cmp(CompareOp::kGt,
                                        Expr::Col("l_discount"),
                                        Expr::Lit(Value::Double(0.05))),
                              Expr::Cmp(CompareOp::kLt,
                                        Expr::Col("l_shipdate"),
                                        Expr::Lit(Value::Date32(9000)))})
                 : nullptr;
    auto simulated = engine.ExecutePartitionedJoin(join);
    ASSERT_TRUE(simulated.ok()) << simulated.status().message();
    const JoinRunResult& sim = simulated.ValueOrDie();
    ASSERT_GT(sim.total_rows, 0);
    for (uint32_t workers : {1u, 2u, 4u}) {
      auto r = engine.ExecutePartitionedJoin(join, ParallelOptions(workers));
      ASSERT_TRUE(r.ok()) << r.status().message();
      const JoinRunResult& par = r.ValueOrDie();
      EXPECT_EQ(par.node_counts, sim.node_counts)
          << (filtered ? "filtered" : "unfiltered") << " w=" << workers;
      EXPECT_EQ(par.total_rows, sim.total_rows);
      // Same rows and row groups as the simulated probe scan, but only the
      // key and filter columns decoded.
      EXPECT_EQ(par.report.scan.rows_produced, sim.report.scan.rows_produced);
      EXPECT_EQ(par.report.scan.row_groups_read(),
                sim.report.scan.row_groups_read());
      EXPECT_LT(par.report.scan.decoded_bytes, sim.report.scan.decoded_bytes);
    }
  }
}

TEST(ParallelJoinTest, CountsMatchTheSimulatedJoinOnDuplicateBuildKeys) {
  sim::FabricConfig config;
  config.num_compute_nodes = 4;
  Engine engine(config);
  OrdersSpec orders;
  orders.rows = 2'000;
  LineitemSpec lineitem;
  lineitem.rows = 8'000;
  lineitem.num_orders = 3'000;  // a third of the lineitems match no order
  lineitem.row_group_size = 2048;
  ASSERT_TRUE(
      engine.catalog().Register(MakeOrdersTable(orders).ValueOrDie()).ok());
  ASSERT_TRUE(
      engine.catalog().Register(MakeLineitemTable(lineitem).ValueOrDie()).ok());
  // Build on lineitem: each order key repeats about three times.
  JoinSpec join;
  join.build_table = "lineitem";
  join.probe_table = "orders";
  join.build_key = "l_orderkey";
  join.probe_key = "o_orderkey";
  join.num_nodes = 4;
  auto simulated = engine.ExecutePartitionedJoin(join);
  ASSERT_TRUE(simulated.ok()) << simulated.status().message();
  const JoinRunResult& sim = simulated.ValueOrDie();
  ASSERT_GT(sim.total_rows, static_cast<int64_t>(orders.rows));
  ASSERT_LT(sim.total_rows, static_cast<int64_t>(lineitem.rows));
  for (uint32_t workers : {1u, 3u}) {
    auto r = engine.ExecutePartitionedJoin(join, ParallelOptions(workers));
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.ValueOrDie().node_counts, sim.node_counts) << "w=" << workers;
  }
}

// The cap is checked before any thread starts, so these calls start none.
TEST(ParallelExecutorTest, WorkerCountsAboveTheCapAreRefused) {
  sim::FabricConfig config;
  Engine engine(config);
  ASSERT_TRUE(engine.catalog().Register(MakeIdTable(1'000, 500)).ok());
  QuerySpec count;
  count.table = "ids";
  count.count_only = true;
  JoinSpec join;
  join.build_table = "ids";
  join.probe_table = "ids";
  join.build_key = "id";
  join.probe_key = "id";
  join.num_nodes = 1;
  for (uint32_t workers : {kMaxParallelWorkers + 1, UINT32_MAX}) {
    const ExecOptions options = ParallelOptions(workers);
    auto q = engine.Execute(count, options);
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << workers;
    auto j = engine.ExecutePartitionedJoin(join, options);
    EXPECT_EQ(j.status().code(), StatusCode::kInvalidArgument) << workers;
    EXPECT_NE(j.status().message().find("parallel_workers"),
              std::string::npos);
  }
}

TEST(ParallelScanTest, ReportScanEqualsTheSimulatedScan) {
  sim::FabricConfig config;
  Engine engine(config);
  ASSERT_TRUE(engine.catalog().Register(MakeIdTable(20'000, 3000)).ok());
  // Prunes the first two of seven row groups.
  const QuerySpec spec =
      ParseQuery("SELECT SUM(v) AS s, COUNT(*) AS n FROM ids WHERE id >= 6000")
          .ValueOrDie();
  ExecOptions simulated;
  simulated.placement = PlacementChoice::kCpuOnly;
  auto sim = engine.Execute(spec, simulated);
  ASSERT_TRUE(sim.ok()) << sim.status().message();
  auto par = engine.Execute(spec, ParallelOptions(4));
  ASSERT_TRUE(par.ok()) << par.status().message();
  const TableScanSource::ScanStats& want = sim.ValueOrDie().report.scan;
  const TableScanSource::ScanStats& got = par.ValueOrDie().report.scan;
  EXPECT_EQ(want.row_groups_total, 7u);
  EXPECT_EQ(want.row_groups_pruned, 2u);
  EXPECT_EQ(got.row_groups_total, want.row_groups_total);
  EXPECT_EQ(got.row_groups_pruned, want.row_groups_pruned);
  EXPECT_EQ(got.rows_produced, want.rows_produced);
  EXPECT_EQ(got.encoded_bytes_read, want.encoded_bytes_read);
  EXPECT_EQ(got.decoded_bytes, want.decoded_bytes);
  EXPECT_EQ(par.ValueOrDie().parallel.rows_in, want.rows_produced);
}

TEST(ParallelScanTest, FullyPrunedScanDispatchesAndDecodesNothing) {
  sim::FabricConfig config;
  Engine engine(config);
  ASSERT_TRUE(engine.catalog().Register(MakeIdTable(20'000, 3000)).ok());
  for (const char* sql :
       {"SELECT COUNT(*) AS n FROM ids WHERE id > 1000000",
        "SELECT SUM(v) AS s FROM ids WHERE id > 1000000",
        "SELECT id, v FROM ids WHERE id > 1000000"}) {
    const QuerySpec spec = ParseQuery(sql).ValueOrDie();
    auto sim = engine.Execute(spec);
    ASSERT_TRUE(sim.ok()) << sim.status().message();
    for (uint32_t workers : {1u, 4u}) {
      auto r = engine.Execute(spec, ParallelOptions(workers));
      ASSERT_TRUE(r.ok()) << r.status().message();
      const QueryResult& par = r.ValueOrDie();
      EXPECT_EQ(par.parallel.morsels, 0u) << sql;
      EXPECT_EQ(par.parallel.rows_in, 0u) << sql;
      EXPECT_EQ(par.report.scan.row_groups_read(), 0u) << sql;
      EXPECT_EQ(par.report.scan.decoded_bytes, 0u) << sql;
      // COUNT(*) of nothing is still a 0 row; SUM of nothing is NULL.
      EXPECT_EQ(Fingerprint(par), Fingerprint(sim.ValueOrDie())) << sql;
    }
  }
}

// The DiffRunner lane itself: options flow through and the lanes appear.
TEST(DiffRunnerParallelLaneTest, RealParallelLanesRunAndAgree) {
  testing::DiffOptions options;
  options.placement_samples = 0;
  options.sample_faults = false;
  options.real_parallel = true;
  testing::DiffRunner runner(options);
  testing::PlanGen gen;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const testing::GeneratedCase c = gen.Generate(seed);
    auto result = runner.Run(c);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_FALSE(result.ValueOrDie().diverged)
        << result.ValueOrDie().divergence;
    size_t parallel_lanes = 0;
    for (const testing::LaneResult& lane : result.ValueOrDie().lanes) {
      if (lane.lane.rfind("real-parallel:", 0) == 0) ++parallel_lanes;
    }
    EXPECT_EQ(parallel_lanes, 3u);  // w=1, 2, 8
  }
}

}  // namespace
}  // namespace dflow::parallel
