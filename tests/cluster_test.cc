// Cluster-grade differential battery for the multi-fabric scale-out layer
// (DESIGN.md §11): the VY_XCHG_* exchange-plan verifier family (exact
// stable codes), hash-shuffle partitioner properties, distributed-vs-
// single-node equivalence, fault paths (node loss mid-shuffle, cancel
// mid-broadcast, retry exhaustion) with the credit ledger balanced after
// every outcome, deterministic straggler detection, the per-node
// fabric-epoch / cache-key scoping that keeps one node's crash from
// stranding another node's compiled programs, and the node workers the
// per-node phases run on concurrently: same answers, same simulated
// counters and same task lists on every run, whatever the thread timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dflow/cluster/cluster.h"
#include "dflow/cluster/cluster_serve.h"
#include "dflow/cluster/exchange.h"
#include "dflow/cluster/node_workers.h"
#include "dflow/cluster/router.h"
#include "dflow/compile/program_cache.h"
#include "dflow/plan/expr.h"
#include "dflow/plan/parser.h"
#include "dflow/testing/canonical.h"
#include "dflow/verify/xchg.h"
#include "dflow/vector/kernels.h"
#include "dflow/workload/tpch_like.h"

namespace dflow::cluster {
namespace {

using testing::CanonicalizeChunks;

// ------------------------------------------------------------------ data

LineitemSpec SmallLineitem() {
  LineitemSpec spec;
  spec.rows = 12'000;
  spec.num_orders = 2'000;
  spec.num_parts = 1'500;
  spec.row_group_size = 4'096;
  return spec;
}

/// A quarter of SmallLineitem in three row groups, for tests that build
/// many clusters.
LineitemSpec TinyLineitem() {
  LineitemSpec spec = SmallLineitem();
  spec.rows = 3'000;
  spec.num_orders = 500;
  spec.row_group_size = 1'024;
  return spec;
}

KvSpec SmallKv() {
  KvSpec spec;
  spec.rows = 1'500;
  spec.key_space = 1'500;
  return spec;
}

std::unique_ptr<Cluster> MakeTestCluster(
    int nodes, ClusterFaultConfig fault = {},
    const LineitemSpec& lineitem = SmallLineitem()) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.seed = 42;
  config.fault = fault;
  auto cl = std::make_unique<Cluster>(config);
  DFLOW_CHECK(
      cl->RegisterSharded(MakeLineitemTable(lineitem).ValueOrDie()).ok());
  DFLOW_CHECK(cl->RegisterSharded(MakeKvTable(SmallKv()).ValueOrDie()).ok());
  return cl;
}

/// The join every cluster test runs: build kv on k, probe lineitem on
/// l_partkey. Sharding is by first column (l_orderkey / k), so the probe
/// side is deliberately NOT co-partitioned with the join key and real
/// frames cross the links.
JoinSpec PartKeyJoin() {
  JoinSpec join;
  join.build_table = "kv";
  join.probe_table = "lineitem";
  join.build_key = "k";
  join.probe_key = "l_partkey";
  return join;
}

QuerySpec GroupedAggSpec() {
  QuerySpec spec;
  spec.table = "lineitem";
  spec.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_discount"),
                          Expr::Lit(Value::Double(0.05)));
  spec.group_by = {"l_returnflag"};
  // Integer aggregates: exact under any accumulation order, so the
  // distributed merge must match the single-node answer bit for bit.
  spec.aggregates = {{AggFunc::kSum, "l_partkey", "sum_part"},
                     {AggFunc::kMax, "l_suppkey", "max_supp"},
                     {AggFunc::kCount, "", "cnt"}};
  return spec;
}

/// A global aggregate over a computed projection, so the router's partial
/// aggregate runs over PROJECT output rather than raw columns.
QuerySpec ProjectedAggSpec() {
  QuerySpec spec;
  spec.table = "lineitem";
  spec.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_discount"),
                          Expr::Lit(Value::Double(0.05)));
  spec.projections = {Expr::Arith(ArithOp::kAdd, Expr::Col("l_partkey"),
                                  Expr::Col("l_suppkey")),
                      Expr::Col("l_suppkey")};
  spec.projection_names = {"part_supp", "supp"};
  spec.aggregates = {{AggFunc::kSum, "part_supp", "sum_part_supp"},
                     {AggFunc::kMin, "supp", "min_supp"},
                     {AggFunc::kCount, "", "cnt"}};
  return spec;
}

// ------------------------------------------ VY_XCHG_* exact-code rejects

/// A minimally-valid one-exchange plan; each test breaks one field.
verify::ExchangePlanSpec ValidPlan() {
  verify::ExchangePlanSpec plan;
  plan.num_nodes = 2;
  plan.fragments = {"scan@0", "scan@1", "coord"};
  verify::ExchangeSpec x;
  x.name = "shuffle.t";
  x.kind = verify::ExchangeKind::kShuffle;
  x.from_nodes = {0, 1};
  x.to_nodes = {0, 1};
  x.partition_count = 2;
  x.credits = 8;
  x.key_col = 0;
  x.input_arity = 3;
  x.consumer = "coord";
  plan.exchanges.push_back(std::move(x));
  return plan;
}

TEST(XchgVerify, ValidPlanIsClean) {
  const verify::VerifyReport report = VerifyExchangePlan(ValidPlan());
  EXPECT_EQ(report.num_errors(), 0u);
  EXPECT_EQ(report.num_warnings(), 0u);
}

TEST(XchgVerify, NoSourceRejected) {
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.exchanges[0].from_nodes.clear();
  const verify::VerifyReport report = VerifyExchangePlan(plan);
  EXPECT_TRUE(report.HasCode("VY_XCHG_NO_SOURCE"));
  EXPECT_GE(report.num_errors(), 1u);
}

TEST(XchgVerify, OrphanRejected) {
  // Both failure shapes: no consumer at all, and a consumer that is not a
  // fragment of this plan.
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.exchanges[0].consumer.clear();
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_ORPHAN"));
  plan.exchanges[0].consumer = "join@7";
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_ORPHAN"));
}

TEST(XchgVerify, NodeRangeRejected) {
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.exchanges[0].to_nodes = {0, 2};  // num_nodes == 2
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_NODE_RANGE"));
  plan = ValidPlan();
  plan.exchanges[0].from_nodes = {-1, 1};
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_NODE_RANGE"));
}

TEST(XchgVerify, NodeDownRejected) {
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.lost_nodes = {1};
  const verify::VerifyReport report = VerifyExchangePlan(plan);
  EXPECT_TRUE(report.HasCode("VY_XCHG_NODE_DOWN"));
  // Node 1 appears on both sides of the edge: one finding per endpoint.
  EXPECT_EQ(report.num_errors(), 2u);
}

TEST(XchgVerify, PartitionMismatchRejected) {
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.exchanges[0].partition_count = 3;  // two destinations
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_PARTITION_MISMATCH"));
  // Broadcast ignores fanout: same plan as a broadcast is clean.
  plan.exchanges[0].kind = verify::ExchangeKind::kBroadcast;
  EXPECT_EQ(VerifyExchangePlan(plan).num_errors(), 0u);
}

TEST(XchgVerify, KeyRangeRejected) {
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.exchanges[0].key_col = 3;  // arity 3 => valid keys are 0..2
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_KEY_RANGE"));
  plan.exchanges[0].key_col = -1;
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_KEY_RANGE"));
}

TEST(XchgVerify, CreditZeroRejected) {
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.exchanges[0].credits = 0;
  EXPECT_TRUE(VerifyExchangePlan(plan).HasCode("VY_XCHG_CREDIT_ZERO"));
}

TEST(XchgVerify, CreditUnboundedWarnsOnlyOverLossyLinks) {
  verify::ExchangePlanSpec plan = ValidPlan();
  plan.exchanges[0].credits = verify::kUnboundedXchgCredits;
  // Reliable links: unbounded window is fine.
  EXPECT_EQ(VerifyExchangePlan(plan).num_warnings(), 0u);
  // Lossy links: the retransmit buffer is unbounded — warning, not error.
  plan.lossy_links = true;
  const verify::VerifyReport report = VerifyExchangePlan(plan);
  EXPECT_TRUE(report.HasCode("VY_XCHG_CREDIT_UNBOUNDED"));
  EXPECT_EQ(report.num_errors(), 0u);
  EXPECT_EQ(report.num_warnings(), 1u);
}

TEST(XchgVerify, StrictRouterRefusesPlanWithLostCoordinatorEndpoint) {
  // End-to-end strict rejection: lose a node but skip the re-shard by
  // pinning the fault *after* PrepareCluster would have run — easiest is a
  // direct check that ExecuteJoin against an all-lost cluster errors.
  auto cl = MakeTestCluster(2);
  cl->MarkNodeLost(0);
  cl->MarkNodeLost(1);
  QueryRouter router(cl.get(), {});
  EXPECT_FALSE(router.ExecuteJoin(PartKeyJoin()).ok());
}

// ----------------------------------------- hash-partitioner properties

// A join whose key types can never compare equal is refused before any
// frame moves.
TEST(ClusterJoin, RouterRefusesJoinKeyTypesThatCanNeverMatch) {
  auto cl = MakeTestCluster(2);
  QueryRouter router(cl.get(), {});
  for (const char* probe_key : {"l_comment", "l_discount"}) {
    JoinSpec join = PartKeyJoin();
    join.probe_key = probe_key;
    EXPECT_EQ(router.ExecuteJoin(join).status().code(),
              StatusCode::kInvalidArgument)
        << probe_key;
  }
  EXPECT_TRUE(router.ExecuteJoin(PartKeyJoin()).ok());
}

std::vector<uint64_t> KvKeyHashes() {
  auto table = MakeKvTable(SmallKv()).ValueOrDie();
  std::vector<DataChunk> chunks = table->ToChunks().ValueOrDie();
  std::vector<uint64_t> hashes;
  for (const DataChunk& chunk : chunks) {
    std::vector<uint64_t> h;
    DFLOW_CHECK(HashColumn(chunk.column(0), &h).ok());
    hashes.insert(hashes.end(), h.begin(), h.end());
  }
  return hashes;
}

TEST(Partitioner, EveryRowLandsOnExactlyOneNode) {
  // RegisterSharded routes row r to hash(col0[r]) % n: across the shards,
  // every input row appears exactly once (no loss, no duplication).
  auto cl = MakeTestCluster(3);
  auto original = MakeKvTable(SmallKv()).ValueOrDie();
  uint64_t shard_rows = 0;
  std::vector<DataChunk> all_shards;
  for (int i = 0; i < 3; ++i) {
    auto shard = cl->node(i).catalog().Lookup("kv").ValueOrDie();
    shard_rows += shard->num_rows();
    std::vector<DataChunk> chunks = shard->ToChunks().ValueOrDie();
    for (DataChunk& c : chunks) all_shards.push_back(std::move(c));
  }
  EXPECT_EQ(shard_rows, original->num_rows());
  // Union of the partitions round-trips the input multiset exactly.
  EXPECT_EQ(CanonicalizeChunks(all_shards).fingerprint,
            CanonicalizeChunks(original->ToChunks().ValueOrDie()).fingerprint);
  // And the split is a real split: no shard holds everything.
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(cl->node(i).catalog().Lookup("kv").ValueOrDie()->num_rows(),
              original->num_rows());
  }
}

TEST(Partitioner, ShardAssignmentIsStableAcrossRuns) {
  // Two independently built clusters shard identically: per-node shard
  // fingerprints match pairwise.
  auto a = MakeTestCluster(4);
  auto b = MakeTestCluster(4);
  for (int i = 0; i < 4; ++i) {
    const auto fa = CanonicalizeChunks(
        a->node(i).catalog().Lookup("kv").ValueOrDie()->ToChunks().ValueOrDie());
    const auto fb = CanonicalizeChunks(
        b->node(i).catalog().Lookup("kv").ValueOrDie()->ToChunks().ValueOrDie());
    EXPECT_EQ(fa.fingerprint, fb.fingerprint) << "node " << i;
  }
}

TEST(Partitioner, DivideEvenlyNodeCountsNest) {
  // For node counts where one divides the other, assignments nest:
  // (h % 4) % 2 == h % 2 for every key, so a row's 2-node home is fully
  // determined by its 4-node home. This is what makes partition agreement
  // between RegisterSharded and the exchange shuffle compositional.
  for (uint64_t h : KvKeyHashes()) {
    EXPECT_EQ((h % 4) % 2, h % 2);
    EXPECT_EQ((h % 6) % 3, h % 3);
  }
}

TEST(Partitioner, ShuffleAgreesWithShardingBasis) {
  // An exchange shuffle keyed on the sharding column moves nothing: every
  // row is already home (all deliveries are src == dst), so the links see
  // zero frames. This pins that RegisterSharded and RunExchange use the
  // same HashColumn % alive basis.
  auto cl = MakeTestCluster(3);
  const int n = cl->num_nodes();
  std::vector<std::vector<DataChunk>> inputs(n);
  std::vector<sim::SimTime> ready(n, 0);
  for (int i = 0; i < n; ++i) {
    auto shard = cl->node(i).catalog().Lookup("kv").ValueOrDie();
    inputs[i] = shard->ToChunks().ValueOrDie();
  }
  verify::ExchangeSpec shuffle;
  shuffle.kind = verify::ExchangeKind::kShuffle;
  shuffle.from_nodes = cl->AliveNodes();
  shuffle.to_nodes = cl->AliveNodes();
  shuffle.key_col = 0;
  ExchangeResult xr =
      RunExchange(cl.get(), shuffle, /*cancel_at_ns=*/0, inputs, ready)
          .ValueOrDie();
  EXPECT_EQ(xr.outcome, ExchangeOutcome::kDone);
  EXPECT_EQ(xr.stats.frames, 0u);
  EXPECT_EQ(xr.stats.bytes, 0u);
}

TEST(Partitioner, RunExchangeRefusesEndpointsOutsideTheCluster) {
  // A spec is plain data, so its endpoints are checked before any link is
  // touched: no destination, or a node id outside the cluster, is an
  // InvalidArgument, never an out-of-range link lookup.
  auto cl = MakeTestCluster(2);
  const std::vector<std::vector<DataChunk>> inputs(2);
  const std::vector<sim::SimTime> ready(2, 0);
  verify::ExchangeSpec gather;
  gather.kind = verify::ExchangeKind::kGather;
  gather.from_nodes = {0, 1};
  EXPECT_FALSE(RunExchange(cl.get(), gather, 0, inputs, ready).ok());
  gather.to_nodes = {2};
  EXPECT_FALSE(RunExchange(cl.get(), gather, 0, inputs, ready).ok());
  gather.to_nodes = {0};
  gather.from_nodes = {-1, 1};
  EXPECT_FALSE(RunExchange(cl.get(), gather, 0, inputs, ready).ok());
  gather.from_nodes = {0, 1};
  EXPECT_TRUE(RunExchange(cl.get(), gather, 0, inputs, ready).ok());
}

// ----------------------------------- distributed vs single-node semantics

/// Single-fabric reference for the cluster join: the intra-node
/// partitioned join over the unsharded tables (needs a 2-compute-node
/// fabric, JoinSpec::num_nodes' default).
int64_t SingleNodeJoinCount(const JoinSpec& join = PartKeyJoin()) {
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  Engine reference(config);
  DFLOW_CHECK(reference.catalog()
                  .Register(MakeLineitemTable(SmallLineitem()).ValueOrDie())
                  .ok());
  DFLOW_CHECK(
      reference.catalog().Register(MakeKvTable(SmallKv()).ValueOrDie()).ok());
  Result<JoinRunResult> run = reference.ExecutePartitionedJoin(join);
  DFLOW_CHECK(run.ok());
  return run.ValueOrDie().total_rows;
}

/// PartKeyJoin with a probe filter on a column other than the join key,
/// which the key-only fragment must read and then drop.
JoinSpec FilteredPartKeyJoin() {
  JoinSpec join = PartKeyJoin();
  join.probe_filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_discount"),
                                Expr::Lit(Value::Double(0.05)));
  return join;
}

/// One query shape the router lowers: a single-table query, matched
/// against the single-node engine's fingerprint, or (no query) the
/// kv x lineitem `join`, matched against the single-node join count.
struct RouterShape {
  std::string name;
  std::optional<QuerySpec> query;
  uint64_t broadcast_build_max_rows = 0;
  /// Whether rows cross the links at more than one node (the zero-rows
  /// fallback answers on the coordinator alone).
  bool moves_rows = true;
  JoinSpec join = PartKeyJoin();
};

QuerySpec Sql(const char* sql) { return ParseQuery(sql).ValueOrDie(); }

TEST(DistributedEquivalence, EveryRouterShapeMatchesSingleNode) {
  Engine reference{sim::FabricConfig()};
  DFLOW_CHECK(reference.catalog()
                  .Register(MakeLineitemTable(SmallLineitem()).ValueOrDie())
                  .ok());
  const std::vector<RouterShape> shapes = {
      {"count", Sql("SELECT COUNT(*) FROM lineitem")},
      {"global aggregate",
       Sql("SELECT SUM(l_partkey) AS s, MIN(l_suppkey) AS lo, "
           "MAX(l_suppkey) AS hi FROM lineitem")},
      {"grouped aggregate", GroupedAggSpec()},
      // SUM(l_partkey) per group is all but unique, so the top 3 has no
      // ties; the sort and its limit run after the shuffle and merge.
      {"grouped aggregate order by limit",
       Sql("SELECT l_returnflag, l_linestatus, SUM(l_partkey) AS s, "
           "COUNT(*) AS c FROM lineitem WHERE l_discount < 0.06 "
           "GROUP BY l_returnflag, l_linestatus ORDER BY s DESC LIMIT 3")},
      {"global aggregate over a projection", ProjectedAggSpec()},
      // l_extendedprice is a random double, so the top 20 has no ties.
      {"select order by limit",
       Sql("SELECT l_orderkey, l_extendedprice FROM lineitem "
           "WHERE l_discount < 0.03 ORDER BY l_extendedprice DESC LIMIT 20")},
      {"no row passes",
       Sql("SELECT SUM(l_partkey) AS s, COUNT(*) AS c FROM lineitem "
           "WHERE l_quantity < 0"),
       0, /*moves_rows=*/false},
      {"shuffle join", std::nullopt},
      {"broadcast join", std::nullopt, ~0ULL},
      {"filtered shuffle join", std::nullopt, 0, true, FilteredPartKeyJoin()},
      {"filtered broadcast join", std::nullopt, ~0ULL, true,
       FilteredPartKeyJoin()},
  };
  for (const RouterShape& shape : shapes) {
    std::string ref_fingerprint;
    int64_t join_rows = 0;
    if (shape.query.has_value()) {
      ref_fingerprint = CanonicalizeChunks(
          reference.Execute(*shape.query).ValueOrDie().chunks).fingerprint;
    } else {
      join_rows = SingleNodeJoinCount(shape.join);
      ASSERT_GT(join_rows, 0) << shape.name;
    }
    for (int n : {1, 2, 4}) {
      auto cl = MakeTestCluster(n);
      RouterOptions options;
      options.verify = verify::VerifyMode::kStrict;
      options.broadcast_build_max_rows = shape.broadcast_build_max_rows;
      QueryRouter router(cl.get(), options);
      DistributedResult dr =
          (shape.query.has_value() ? router.ExecuteQuery(*shape.query)
                                   : router.ExecuteJoin(shape.join))
              .ValueOrDie();
      const std::string where = shape.name + " at " + std::to_string(n);
      EXPECT_EQ(dr.outcome, "DONE") << where;
      EXPECT_EQ(dr.verify.num_errors(), 0u) << where;
      EXPECT_EQ(dr.verify.num_warnings(), 0u) << where;
      if (shape.query.has_value()) {
        EXPECT_EQ(CanonicalizeChunks(dr.chunks).fingerprint, ref_fingerprint)
            << where;
      } else {
        EXPECT_EQ(dr.total_rows, join_rows) << where;
        // Each side's fragment returns its key alone, and so each exchange
        // that spreads join rows carries one column.
        for (const verify::ExchangeSpec& x : dr.plan.exchanges) {
          if (x.kind == verify::ExchangeKind::kGather) continue;
          EXPECT_EQ(x.input_arity, 1) << where << ": " << x.name;
          EXPECT_EQ(x.key_col, 0) << where << ": " << x.name;
        }
      }
      if (n > 1) {
        EXPECT_EQ(dr.exchange.frames > 0, shape.moves_rows) << where;
      }
    }
  }
}

TEST(DistributedEquivalence, RunsAreByteDeterministic) {
  // Two fresh clusters, same seed: identical makespan, identical exchange
  // counters, identical fingerprint. This is the property the CI
  // bench-gates (cluster row) byte-identical report check rests on.
  auto run = [] {
    auto cl = MakeTestCluster(3);
    QueryRouter router(cl.get(), {});
    DistributedResult dr = router.ExecuteJoin(PartKeyJoin()).ValueOrDie();
    return std::tuple<int64_t, sim::SimTime, uint64_t, uint64_t>(
        dr.total_rows, dr.makespan_ns, dr.exchange.bytes, dr.exchange.frames);
  };
  EXPECT_EQ(run(), run());
}

/// SELECT <key> FROM <table> [WHERE <filter>]: a join side's fragment.
QuerySpec KeyScan(const std::string& table, const std::string& key,
                  ExprPtr filter) {
  QuerySpec spec;
  spec.table = table;
  spec.filter = std::move(filter);
  spec.projections = {Expr::Col(key)};
  spec.projection_names = {key};
  return spec;
}

TEST(DistributedEquivalence, FragmentsScanOnlyWhatThePlanScans) {
  // A node's fabric counts one query's media bytes, so after a distributed
  // query it holds the node's last fragment's. That must be exactly what
  // the node's own Engine::Execute of the fragment's query reads, not
  // every column of its shard: for an aggregate over raw columns, the
  // query itself; for a join, the probe side's SELECT <key> FROM t
  // [WHERE f] (the mirrored join puts kv on the probe side).
  const JoinSpec filtered = FilteredPartKeyJoin();
  JoinSpec mirrored;
  mirrored.build_table = "lineitem";
  mirrored.build_key = "l_partkey";
  mirrored.probe_table = "kv";
  mirrored.probe_key = "k";
  using Run = std::function<Result<DistributedResult>(QueryRouter&)>;
  const std::vector<std::pair<Run, QuerySpec>> cases = {
      {[](QueryRouter& r) { return r.ExecuteQuery(GroupedAggSpec()); },
       GroupedAggSpec()},
      {[&](QueryRouter& r) { return r.ExecuteJoin(filtered); },
       KeyScan("lineitem", "l_partkey", filtered.probe_filter)},
      {[&](QueryRouter& r) { return r.ExecuteJoin(mirrored); },
       KeyScan("kv", "k", nullptr)},
  };
  for (const auto& [run, single_spec] : cases) {
    auto cl = MakeTestCluster(2);
    QueryRouter router(cl.get(), {});
    ASSERT_EQ(run(router).ValueOrDie().outcome, "DONE");
    for (int i = 0; i < cl->num_nodes(); ++i) {
      Engine& node = cl->node(i);
      const std::string where =
          single_spec.table + " on node " + std::to_string(i);
      const uint64_t fragment_bytes =
          node.fabric().store_media()->bytes_processed();
      const QueryResult single = node.Execute(single_spec).ValueOrDie();
      EXPECT_GT(fragment_bytes, 0u) << where;
      EXPECT_EQ(fragment_bytes, single.report.media_bytes) << where;
    }
  }
}

// ------------------------------------------------------------ fault paths

/// Credit-ledger invariant: after any outcome — DONE, CANCELLED,
/// NODE_LOST, RETRY_EXHAUSTED — every acquired credit has been released
/// and no frame still holds one.
void ExpectNoCreditLeaks(Cluster* cl) {
  for (int s = 0; s < cl->num_nodes(); ++s) {
    for (int d = 0; d < cl->num_nodes(); ++d) {
      if (s == d) continue;
      sim::InterNodeLink& link = cl->link(s, d);
      EXPECT_EQ(link.credits_in_flight(), 0u) << link.name();
      EXPECT_EQ(link.credits_acquired(), link.credits_released())
          << link.name();
    }
  }
}

TEST(ClusterFaults, NodeLossMidShuffleHasStableOutcomeThenReroutes) {
  ClusterFaultConfig fault;
  fault.lose_node = 1;
  fault.lose_node_at_ns = 1;  // first frame touching node 1 kills it
  auto cl = MakeTestCluster(3, fault);
  RouterOptions options;
  options.verify = verify::VerifyMode::kStrict;
  QueryRouter router(cl.get(), options);

  // The loss lands mid-shuffle: OK status (the query ran), stable outcome
  // code, no rows, and the cluster is flagged for re-sharding.
  DistributedResult lost = router.ExecuteJoin(PartKeyJoin()).ValueOrDie();
  EXPECT_EQ(lost.outcome, "NODE_LOST");
  EXPECT_EQ(lost.total_rows, 0);
  EXPECT_EQ(cl->node_losses(), 1u);
  EXPECT_TRUE(cl->needs_reshard());
  EXPECT_FALSE(cl->node_alive(1));
  ExpectNoCreditLeaks(cl.get());

  // The next query re-routes: shards rebuild over the two survivors and
  // the join completes with the single-node answer.
  const int64_t expected = SingleNodeJoinCount();
  DistributedResult rerouted = router.ExecuteJoin(PartKeyJoin()).ValueOrDie();
  EXPECT_EQ(rerouted.outcome, "DONE");
  EXPECT_EQ(rerouted.total_rows, expected);
  EXPECT_FALSE(cl->needs_reshard());
  // The lost node carries no tasks in the re-routed run.
  for (const TaskInfo& task : rerouted.tasks) EXPECT_NE(task.node, 1);
}

TEST(ClusterFaults, CancelMidBroadcastLeaksNoCredits) {
  auto cl = MakeTestCluster(3);
  RouterOptions options;
  options.verify = verify::VerifyMode::kStrict;
  // Force the broadcast path (build side replicated to every node) and
  // cancel deep inside it: local fragments finish around ~10^5 ns, so the
  // broadcast is mid-flight when the deadline hits.
  options.broadcast_build_max_rows = ~0ull;
  options.cancel_at_ns = 1;
  QueryRouter router(cl.get(), options);

  DistributedResult dr = router.ExecuteJoin(PartKeyJoin()).ValueOrDie();
  EXPECT_EQ(dr.outcome, "CANCELLED");
  EXPECT_EQ(dr.total_rows, 0);
  ExpectNoCreditLeaks(cl.get());

  // Cancellation is not node loss: nothing to re-shard, and the same
  // router finishes the query once the cancel is lifted.
  EXPECT_FALSE(cl->needs_reshard());
  RouterOptions clean = options;
  clean.cancel_at_ns = 0;
  QueryRouter retry(cl.get(), clean);
  EXPECT_EQ(retry.ExecuteJoin(PartKeyJoin()).ValueOrDie().outcome, "DONE");
}

TEST(ClusterFaults, RetryExhaustionIsDeterministicAndBalanced) {
  ClusterFaultConfig fault;
  fault.xlink_drop_probability = 0.9;
  fault.max_frame_attempts = 2;
  auto run = [&] {
    auto cl = MakeTestCluster(2, fault);
    cl->ArmLinkFaults();
    QueryRouter router(cl.get(), {});
    DistributedResult dr = router.ExecuteJoin(PartKeyJoin()).ValueOrDie();
    ExpectNoCreditLeaks(cl.get());
    return std::pair<std::string, uint64_t>(dr.outcome,
                                            dr.exchange.frames_lost);
  };
  const auto first = run();
  EXPECT_EQ(first.first, "RETRY_EXHAUSTED");
  EXPECT_GT(first.second, 0u);
  // Seeded fate process: the same run loses exactly the same frames.
  EXPECT_EQ(run(), first);
}

TEST(ClusterFaults, StragglerDetectionIsDeterministic) {
  ClusterFaultConfig fault;
  fault.slow_node = 2;
  fault.slow_factor = 10.0;  // well past the 3x straggler_factor
  auto run = [&] {
    auto cl = MakeTestCluster(4, fault);
    QueryRouter router(cl.get(), {});
    return router.ExecuteJoin(PartKeyJoin()).ValueOrDie();
  };
  DistributedResult dr = run();
  EXPECT_EQ(dr.outcome, "DONE");
  EXPECT_EQ(dr.straggler_events, 1u);
  for (const TaskInfo& task : dr.tasks) {
    if (task.fragment != "local") continue;
    EXPECT_EQ(task.straggler, task.node == 2) << "node " << task.node;
  }
  // Deterministic: same seed, same slow node, same verdicts.
  DistributedResult again = run();
  EXPECT_EQ(again.straggler_events, dr.straggler_events);
  EXPECT_EQ(again.makespan_ns, dr.makespan_ns);
}

TEST(ClusterFaults, StragglerRuleFlagsOnlyTimesAboveFactorTimesMedian) {
  using Flags = std::vector<bool>;
  // Fewer than two samples: nothing to compare against.
  EXPECT_EQ(FlagStragglers({}, 3.0), Flags{});
  EXPECT_EQ(FlagStragglers({500}, 3.0), Flags{false});
  // A median of 0 flags nothing, however large the outlier.
  EXPECT_EQ(FlagStragglers({0, 0, 500}, 3.0), (Flags{false, false, false}));
  // Exactly factor x median is not a straggler; one more ns is.
  EXPECT_EQ(FlagStragglers({10, 30, 10}, 3.0), (Flags{false, false, false}));
  EXPECT_EQ(FlagStragglers({10, 31, 10}, 3.0), (Flags{false, true, false}));
  // An even count compares against the upper median (30, not 10).
  EXPECT_EQ(FlagStragglers({10, 30, 100, 10}, 3.0),
            (Flags{false, false, true, false}));
}

TEST(ClusterFaults, LedgerChargesBalanceReleases) {
  auto cl = MakeTestCluster(2);
  QueryRouter router(cl.get(), {});
  DFLOW_CHECK(router.ExecuteJoin(PartKeyJoin()).ok());
  DFLOW_CHECK(router.ExecuteQuery(GroupedAggSpec()).ok());
  EXPECT_GT(router.ledger_charges(), 0u);
  EXPECT_EQ(router.ledger_charges(), router.ledger_releases());
}

// ------------------------------------------- node workers and determinism

TEST(NodeWorkers, EachNodeRunsOnceOnItsOwnWorker) {
  NodeWorkers workers(8);
  ASSERT_GE(workers.num_workers(), 1u);
  ASSERT_LE(workers.num_workers(), 8u);
  const uint32_t w = workers.num_workers();
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<std::thread::id> first(8);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread::id> ran_on(8);
    std::vector<int> runs(8, 0);
    const Status status = workers.ForEachNode(nodes, [&](int node) {
      ran_on[node] = std::this_thread::get_id();
      runs[node] += 1;
      return Status::OK();
    });
    ASSERT_TRUE(status.ok());
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(runs[i], 1) << "node " << i;
      // Worker 0 is the calling thread.
      EXPECT_EQ(ran_on[i] == std::this_thread::get_id(), i % w == 0)
          << "node " << i;
      for (int j = 0; j < 8; ++j) {
        EXPECT_EQ(ran_on[i] == ran_on[j], i % w == j % w) << i << "," << j;
      }
      // Persistent: the same worker on every call.
      if (round > 0) {
        EXPECT_EQ(ran_on[i], first[i]) << "node " << i;
      }
    }
    if (round == 0) first = ran_on;
  }
}

TEST(NodeWorkers, FirstFailureInNodeOrderAndWorkersSurviveIt) {
  NodeWorkers workers(4);
  // Nodes 3 and 1 fail (and 2 throws); the verdict is the first failing
  // entry of the node list, whatever order the workers finished in.
  const Status failed = workers.ForEachNode({0, 3, 1, 2}, [](int node) {
    if (node == 2) throw std::runtime_error("boom");
    if (node == 0) return Status::OK();
    return Status::InvalidArgument("node" + std::to_string(node));
  });
  EXPECT_EQ(failed.ToString(), Status::InvalidArgument("node3").ToString());
  const Status threw = workers.ForEachNode({0, 2}, [](int node) -> Status {
    if (node == 2) throw std::runtime_error("boom");
    return Status::OK();
  });
  EXPECT_FALSE(threw.ok());
  EXPECT_NE(threw.ToString().find("boom"), std::string::npos);
  const auto noop = [](int) { return Status::OK(); };
  EXPECT_FALSE(workers.ForEachNode({4}, noop).ok());
  EXPECT_TRUE(workers.ForEachNode({}, noop).ok());
  // The pool keeps serving after failures.
  int sum = 0;
  const Status after = workers.ForEachNode({0, 1, 2, 3}, [&](int node) {
    if (node == 0) sum = 1;
    return Status::OK();
  });
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(sum, 1);
}

/// Everything a distributed run reports that must not depend on thread
/// timing: outcome, result (canonical fingerprint and the raw chunk
/// order), makespan, exchange counters, straggler count, and the task
/// list in order.
std::string RunSignature(const DistributedResult& dr) {
  std::ostringstream os;
  os << dr.outcome << " rows=" << dr.total_rows
     << " fp=" << CanonicalizeChunks(dr.chunks).fingerprint << " raw=";
  for (const DataChunk& chunk : dr.chunks) os << ChecksumChunk(chunk) << ",";
  os << " makespan=" << dr.makespan_ns << " xchg=" << dr.exchange.bytes << "/"
     << dr.exchange.frames << "/" << dr.exchange.retransmits << "/"
     << dr.exchange.frames_lost << "/" << dr.exchange.credit_stall_ns
     << " stragglers=" << dr.straggler_events << " tasks=";
  for (const TaskInfo& t : dr.tasks) {
    os << t.node << ":" << t.fragment << ":" << static_cast<int>(t.state)
       << ":" << t.local_ns << ":" << t.straggler << ";";
  }
  return os.str();
}

/// A join then a grouped aggregate through `router`, links reset before
/// each as a fresh run.
std::string JoinThenAggregate(Cluster* cl, QueryRouter* router) {
  cl->ResetLinks();
  std::string out =
      RunSignature(router->ExecuteJoin(PartKeyJoin()).ValueOrDie());
  cl->ResetLinks();
  out += "\n";
  out += RunSignature(router->ExecuteQuery(GroupedAggSpec()).ValueOrDie());
  return out;
}

TEST(ClusterDeterminism, RepeatedRunsMatchOnFreshClustersAndOneRouter) {
  constexpr int kRuns = 20;
  ClusterFaultConfig slow;
  slow.slow_node = 2;
  slow.slow_factor = 10.0;
  ClusterFaultConfig lost;
  lost.lose_node = 1;
  lost.lose_node_at_ns = 1;
  const std::vector<std::pair<std::string, ClusterFaultConfig>> cases = {
      {"clean", {}}, {"slow node", slow}, {"lost node", lost}};
  for (const auto& [name, fault] : cases) {
    // Fresh clusters: every run from scratch gives the same answer.
    std::string fresh;
    for (int run = 0; run < kRuns; ++run) {
      auto cl = MakeTestCluster(4, fault, TinyLineitem());
      QueryRouter router(cl.get(), {});
      const std::string got = JoinThenAggregate(cl.get(), &router);
      if (run == 0) fresh = got;
      EXPECT_EQ(got, fresh) << name << " fresh run " << run;
    }
    EXPECT_NE(fresh.find(name == "lost node" ? "NODE_LOST" : "DONE"),
              std::string::npos)
        << name;
    if (name == "slow node") {
      EXPECT_NE(fresh.find("stragglers=1"), std::string::npos) << fresh;
    }

    // One router reused: its first run is a fresh run, and every later run
    // repeats the second (the lost-node case re-routes after its first).
    auto cl = MakeTestCluster(4, fault, TinyLineitem());
    QueryRouter router(cl.get(), {});
    EXPECT_EQ(JoinThenAggregate(cl.get(), &router), fresh) << name;
    const std::string second = JoinThenAggregate(cl.get(), &router);
    if (name != "lost node") {
      EXPECT_EQ(second, fresh) << name;
    }
    for (int run = 2; run < kRuns; ++run) {
      EXPECT_EQ(JoinThenAggregate(cl.get(), &router), second)
          << name << " reused run " << run;
    }
  }
}

TEST(ClusterFailures, FirstAliveNodesErrorWinsAndTheRouterRecovers) {
  // Table "t" differs per node, so a fragment over it fails on several
  // nodes with different errors: node 0 (the coordinator) has the
  // kv-shaped table, node 1 is lost, node 2 has a "t" without column k,
  // and node 3 has no "t" at all.
  auto cl = MakeTestCluster(4);
  KvSpec kv = SmallKv();
  kv.name = "t";
  ASSERT_TRUE(
      cl->node(0).catalog().Register(MakeKvTable(kv).ValueOrDie()).ok());
  LineitemSpec other = SmallLineitem();
  other.name = "t";
  ASSERT_TRUE(cl->node(2)
                  .catalog()
                  .Register(MakeLineitemTable(other).ValueOrDie())
                  .ok());
  cl->MarkNodeLost(1);
  QueryRouter router(cl.get(), {});
  const QuerySpec spec = Sql("SELECT COUNT(*) FROM t WHERE k < 100");

  const Status node2 = cl->node(2).Compile(spec).status();
  const Status node3 = cl->node(3).Compile(spec).status();
  ASSERT_FALSE(node2.ok());
  ASSERT_FALSE(node3.ok());
  ASSERT_NE(node2.ToString(), node3.ToString());
  for (int attempt = 0; attempt < 5; ++attempt) {
    Result<DistributedResult> failed = router.ExecuteQuery(spec);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().ToString(), node2.ToString());
  }

  // The workers survive the failed phase: the same router answers the next
  // queries over the three survivors.
  const DistributedResult join =
      router.ExecuteJoin(PartKeyJoin()).ValueOrDie();
  EXPECT_EQ(join.outcome, "DONE");
  EXPECT_EQ(join.total_rows, SingleNodeJoinCount());
  EXPECT_EQ(router.ExecuteQuery(GroupedAggSpec()).ValueOrDie().outcome,
            "DONE");
  EXPECT_EQ(router.ledger_charges(), router.ledger_releases());
}

TEST(ClusterFailures, DestroyedClustersJoinTheirWorkers) {
  // Under ASan and TSan a worker that outlives its cluster is a leak
  // report; build and drop clusters, some mid-way through failed work.
  for (int round = 0; round < 8; ++round) {
    auto cl = MakeTestCluster(1 + round % 4, {}, TinyLineitem());
    QueryRouter router(cl.get(), {});
    if (round % 2 == 0) {
      EXPECT_FALSE(
          router.ExecuteQuery(Sql("SELECT COUNT(*) FROM nope")).ok());
    } else {
      EXPECT_EQ(router.ExecuteJoin(PartKeyJoin()).ValueOrDie().outcome,
                "DONE");
    }
  }
}

// --------------------------------------- per-node epochs and cache keys

TEST(NodeEpochs, NodeScopedDeviceBumpsOnlyItsNode) {
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  Engine engine(config);
  EXPECT_EQ(engine.fabric_epoch(0), 0u);
  EXPECT_EQ(engine.fabric_epoch(1), 0u);

  engine.MarkDeviceUnhealthy("cnic1");  // node-1-scoped device
  EXPECT_EQ(engine.fabric_epoch(0), 0u);
  EXPECT_EQ(engine.fabric_epoch(1), 1u);
  EXPECT_EQ(engine.fabric_epoch(), 1u);  // the aggregate epoch still moves

  // A shared device (the storage chain carries no node suffix) bumps
  // every node: nobody may serve programs compiled against the old chain.
  engine.MarkDeviceUnhealthy("ssd");
  EXPECT_EQ(engine.fabric_epoch(0), 1u);
  EXPECT_EQ(engine.fabric_epoch(1), 2u);

  // Clearing health is also a fabric change, for every node.
  engine.ClearDeviceHealth();
  EXPECT_EQ(engine.fabric_epoch(0), 2u);
  EXPECT_EQ(engine.fabric_epoch(1), 3u);
}

TEST(NodeEpochs, OutOfRangeNodeFallsBackToAggregateEpoch) {
  Engine engine{sim::FabricConfig()};
  engine.MarkDeviceUnhealthy("cpu0");
  EXPECT_EQ(engine.fabric_epoch(-1), engine.fabric_epoch());
  EXPECT_EQ(engine.fabric_epoch(99), engine.fabric_epoch());
}

TEST(NodeEpochs, CacheKeyDistinguishesNodes) {
  // Same program, same epoch, different node: distinct cache entries —
  // node 1's crash must not evict or serve node 0's compiled programs.
  compile::CacheKey a{/*plan_fingerprint=*/7, /*fabric_epoch=*/1,
                      /*verifier_version=*/1, /*node=*/0};
  compile::CacheKey b = a;
  b.node = 1;
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  std::map<compile::CacheKey, int> entries;
  entries[a] = 10;
  entries[b] = 11;
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[a], 10);
  EXPECT_EQ(entries[b], 11);
}

TEST(NodeEpochs, LostClusterNodeBumpsOnlyItsEngine) {
  auto cl = MakeTestCluster(3);
  const uint64_t before0 = cl->node(0).fabric_epoch();
  cl->MarkNodeLost(1);
  EXPECT_GT(cl->node(1).fabric_epoch(), 0u);
  EXPECT_EQ(cl->node(0).fabric_epoch(), before0);
  EXPECT_EQ(cl->node(2).fabric_epoch(), before0);
}

// ----------------------------------------------------- serving the mix

TEST(ClusterServe, ShardedTenantsRunAndTotalsAddUp) {
  auto cl = MakeTestCluster(2);
  std::vector<serve::TenantConfig> tenants;
  for (int t = 0; t < 4; ++t) {
    serve::TenantConfig tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.queue_capacity = 4;
    tenant.arrival_probability = 0.5;
    QuerySpec count;
    count.table = "kv";
    count.count_only = true;
    tenant.templates = {{count, "count", 1}};
    tenants.push_back(tenant);
  }
  serve::ServiceConfig config;
  config.seed = 42;
  config.horizon_ns = 5'000'000;
  ClusterServiceLoop loop(cl.get(), tenants, config);
  ClusterServiceResult result = loop.Run().ValueOrDie();

  const ClusterServiceReport& r = result.cluster;
  EXPECT_EQ(r.num_nodes, 2);
  EXPECT_GT(r.completed_total, 0u);
  EXPECT_EQ(r.failed_total, 0u);
  EXPECT_EQ(r.arrivals_total, r.admitted_total + r.shed_total);
  // Cluster totals are exactly the per-node sums.
  uint64_t admitted = 0, completed = 0;
  sim::SimTime worst = 0;
  for (const NodeServiceReport& node : r.nodes) {
    admitted += node.report.admitted_total;
    completed += node.report.completed_total;
    worst = std::max(worst, node.report.makespan_ns);
  }
  EXPECT_EQ(admitted, r.admitted_total);
  EXPECT_EQ(completed, r.completed_total);
  EXPECT_EQ(worst, r.makespan_ns);

  // The JSON section is stable and carries the per-node breakdown.
  const std::string json = ClusterReportToJson(r);
  EXPECT_NE(json.find("\"per_node\""), std::string::npos);
  EXPECT_NE(json.find("\"node0\""), std::string::npos);
  EXPECT_NE(json.find("\"node1\""), std::string::npos);
  EXPECT_EQ(json, ClusterReportToJson(r));
}

TEST(ClusterServe, TenantHomesAreStableAndAlive) {
  auto cl = MakeTestCluster(4);
  QueryRouter router(cl.get(), {});
  std::map<std::string, int> homes;
  for (int t = 0; t < 16; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    const int home = router.HomeNode(name).ValueOrDie();
    EXPECT_GE(home, 0);
    EXPECT_LT(home, 4);
    homes[name] = home;
  }
  // Stable across calls.
  for (const auto& [name, home] : homes) {
    EXPECT_EQ(router.HomeNode(name).ValueOrDie(), home);
  }
}

}  // namespace
}  // namespace dflow::cluster
