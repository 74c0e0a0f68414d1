// Tests for the static plan verifier: every check family against hand-built
// broken GraphSpecs (shapes the DataflowGraph builder would refuse to
// construct), DataflowGraph::Describe snapshots, the engine's strict gate,
// the shipped plan catalogue verifying clean, and the report's JSON form.

#include <gtest/gtest.h>

#include "dflow/engine/engine.h"
#include "dflow/exec/dataflow.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/misc_ops.h"
#include "dflow/sim/fabric.h"
#include "dflow/trace/json.h"
#include "dflow/trace/report_json.h"
#include "dflow/verify/verifier.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

using verify::EdgeSpec;
using verify::GraphSpec;
using verify::NodeKind;
using verify::NodeSpec;
using verify::VerifyContext;
using verify::VerifyGraph;
using verify::VerifyReport;

Schema KV() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
}

NodeSpec MakeNode(size_t id, NodeKind kind, std::string name,
                  std::string device = "") {
  NodeSpec n;
  n.id = id;
  n.kind = kind;
  n.name = std::move(name);
  n.device = std::move(device);
  return n;
}

EdgeSpec MakeEdge(size_t from, size_t to, uint32_t credits = 8,
                  size_t hops = 0, bool feedback = false) {
  EdgeSpec e;
  e.from = from;
  e.to = to;
  e.label = "n" + std::to_string(from) + "->n" + std::to_string(to);
  e.credits = credits;
  e.hops = hops;
  e.feedback = feedback;
  return e;
}

/// source -> stage -> sink, all colocated, default credits: verifies clean.
GraphSpec LinearSpec() {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "work", "cpu0"),
             MakeNode(2, NodeKind::kSink, "sink")};
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2)};
  return g;
}

// ------------------------------------------------- family 1: structure

TEST(VerifyStructureTest, CleanLinearGraph) {
  VerifyReport r = VerifyGraph(LinearSpec(), VerifyContext());
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_TRUE(r.issues.empty()) << r.ToString();
}

TEST(VerifyStructureTest, EmptyGraph) {
  VerifyReport r = VerifyGraph(GraphSpec(), VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_EMPTY"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyStructureTest, NoSource) {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kStage, "work", "cpu0"),
             MakeNode(1, NodeKind::kSink, "sink")};
  g.edges = {MakeEdge(0, 1)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_NO_SOURCE"));
}

TEST(VerifyStructureTest, DanglingEdgeOutOfRange) {
  GraphSpec g = LinearSpec();
  g.edges.push_back(MakeEdge(1, 7));  // node 7 does not exist
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_DANGLING"));
}

TEST(VerifyStructureTest, EdgeIntoSourceIsDangling) {
  GraphSpec g = LinearSpec();
  g.edges.push_back(MakeEdge(1, 0));  // stage feeds the source
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_DANGLING"));
}

TEST(VerifyStructureTest, StageFanOutNeedsExplicitOperator) {
  GraphSpec g = LinearSpec();
  g.nodes.push_back(MakeNode(3, NodeKind::kSink, "sink2"));
  g.edges.push_back(MakeEdge(1, 3));  // second consumer of a plain stage
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_FANOUT"));
}

TEST(VerifyStructureTest, PartitionFanOutMismatch) {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kPartition, "split", "cnic0"),
             MakeNode(2, NodeKind::kSink, "sink")};
  g.nodes[1].partition_fanout = 2;  // built for two outputs, wired with one
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_FANOUT"));
}

TEST(VerifyStructureTest, UnreachableStage) {
  GraphSpec g = LinearSpec();
  g.nodes.push_back(MakeNode(3, NodeKind::kStage, "island", "cpu0"));
  g.nodes.push_back(MakeNode(4, NodeKind::kSink, "island_sink"));
  g.edges.push_back(MakeEdge(3, 4));
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_UNREACHABLE"));
}

TEST(VerifyStructureTest, DeadEndStageWarns) {
  GraphSpec g = LinearSpec();
  g.nodes.push_back(MakeNode(3, NodeKind::kStage, "leak", "cpu0"));
  // Reachable (fed off the source would violate fan-out; feed off a new
  // broadcast instead). Simplest legal shape: source -> broadcast -> {work
  // -> sink, leak}.
  GraphSpec g2;
  g2.nodes = {MakeNode(0, NodeKind::kSource, "src"),
              MakeNode(1, NodeKind::kBroadcast, "copy", "cpu0"),
              MakeNode(2, NodeKind::kStage, "work", "cpu0"),
              MakeNode(3, NodeKind::kSink, "sink"),
              MakeNode(4, NodeKind::kStage, "leak", "cpu0")};
  g2.edges = {MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(2, 3), MakeEdge(1, 4)};
  VerifyReport r = VerifyGraph(g2, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_DEAD_END")) << r.ToString();
  EXPECT_TRUE(r.ok()) << "dead end is a warning, not an error";
}

TEST(VerifyStructureTest, TerminalWithEmptySchemaIsNotADeadEnd) {
  // Build-phase stages (e.g. join build) install state and emit nothing.
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "build", "cpu0")};
  g.nodes[1].has_output_schema = true;  // empty schema: emits nothing
  g.edges = {MakeEdge(0, 1)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_FALSE(r.HasCode("VY_GRAPH_DEAD_END")) << r.ToString();
  EXPECT_FALSE(r.HasCode("VY_GRAPH_NO_SINK")) << r.ToString();
}

TEST(VerifyStructureTest, NoSinkWarnsWhenRowsAreDropped) {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "work", "cpu0")};
  g.edges = {MakeEdge(0, 1)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_NO_SINK"));
  EXPECT_TRUE(r.ok());
}

TEST(VerifyStructureTest, UndeclaredCycle) {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "a", "cpu0"),
             MakeNode(2, NodeKind::kBroadcast, "b", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(2, 3),
             MakeEdge(2, 1)};  // loop back, not declared feedback
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_GRAPH_CYCLE")) << r.ToString();
}

TEST(VerifyStructureTest, DeclaredFeedbackCycleIsStructurallyLegal) {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "a", "cpu0"),
             MakeNode(2, NodeKind::kBroadcast, "b", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(2, 3),
             MakeEdge(2, 1, verify::kUnboundedCredits, 0, /*feedback=*/true)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_FALSE(r.HasCode("VY_GRAPH_CYCLE")) << r.ToString();
  EXPECT_FALSE(r.HasCode("VY_CREDIT_CYCLE")) << r.ToString();
}

// ------------------------------------------------ family 2: schema flow

TEST(VerifySchemaTest, MismatchNamesColumn) {
  GraphSpec g = LinearSpec();
  g.nodes[0].has_output_schema = true;
  g.nodes[0].output_schema =
      Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
  g.nodes[1].has_input_schema = true;
  g.nodes[1].input_schema = KV();
  VerifyReport r = VerifyGraph(g, VerifyContext());
  ASSERT_TRUE(r.HasCode("VY_SCHEMA_MISMATCH")) << r.ToString();
  // The diagnostic names the edge and the first differing column.
  const verify::VerifyIssue& issue = r.issues[0];
  EXPECT_EQ(issue.code, "VY_SCHEMA_MISMATCH");
  EXPECT_EQ(issue.edge, "n0->n1");
  EXPECT_NE(issue.message.find("column 1"), std::string::npos)
      << issue.message;
  EXPECT_FALSE(r.ok());
}

TEST(VerifySchemaTest, ColumnCountMismatch) {
  GraphSpec g = LinearSpec();
  g.nodes[0].has_output_schema = true;
  g.nodes[0].output_schema = Schema({{"k", DataType::kInt64}});
  g.nodes[1].has_input_schema = true;
  g.nodes[1].input_schema = KV();
  VerifyReport r = VerifyGraph(g, VerifyContext());
  ASSERT_TRUE(r.HasCode("VY_SCHEMA_MISMATCH"));
  EXPECT_NE(r.issues[0].message.find("1 columns"), std::string::npos)
      << r.issues[0].message;
}

TEST(VerifySchemaTest, MatchingSchemasAreClean) {
  GraphSpec g = LinearSpec();
  g.nodes[0].has_output_schema = true;
  g.nodes[0].output_schema = KV();
  g.nodes[1].has_input_schema = true;
  g.nodes[1].input_schema = KV();
  EXPECT_TRUE(VerifyGraph(g, VerifyContext()).issues.empty());
}

TEST(VerifySchemaTest, PartitionPassesProducerSchemaThrough) {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kPartition, "split", "cnic0"),
             MakeNode(2, NodeKind::kStage, "work", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.nodes[0].has_output_schema = true;
  g.nodes[0].output_schema = Schema({{"k", DataType::kInt64}});
  g.nodes[1].partition_fanout = 1;
  g.nodes[2].has_input_schema = true;
  g.nodes[2].input_schema = KV();  // wants two columns; partition forwards one
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(2, 3)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_SCHEMA_MISMATCH")) << r.ToString();
}

TEST(VerifySchemaTest, UnknownProducerSchemaIsSilent) {
  // Sources without a declared schema can't be type-checked; no false alarm.
  GraphSpec g = LinearSpec();
  g.nodes[1].has_input_schema = true;
  g.nodes[1].input_schema = KV();
  EXPECT_TRUE(VerifyGraph(g, VerifyContext()).issues.empty());
}

// ---------------------------------------- family 3: credit / flow control

TEST(VerifyCreditTest, ZeroCreditEdgeDeadlocks) {
  GraphSpec g = LinearSpec();
  g.edges[0].credits = 0;
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_CREDIT_ZERO"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyCreditTest, WindowOfOneOnFabricPathWarns) {
  GraphSpec g = LinearSpec();
  g.edges[0].credits = 1;
  g.edges[0].hops = 2;
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_CREDIT_WINDOW"));
  EXPECT_TRUE(r.ok()) << "window-of-1 is a warning";
}

TEST(VerifyCreditTest, WindowOfOneColocatedIsFine) {
  GraphSpec g = LinearSpec();
  g.edges[0].credits = 1;  // hops == 0: a local hand-off can't stall the wire
  EXPECT_FALSE(VerifyGraph(g, VerifyContext()).HasCode("VY_CREDIT_WINDOW"));
}

TEST(VerifyCreditTest, FeedbackLoopWithAllFiniteWindowsDeadlocks) {
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "a", "cpu0"),
             MakeNode(2, NodeKind::kBroadcast, "b", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2, /*credits=*/4), MakeEdge(2, 3),
             MakeEdge(2, 1, /*credits=*/4, 0, /*feedback=*/true)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_CREDIT_CYCLE")) << r.ToString();
  EXPECT_FALSE(r.HasCode("VY_GRAPH_CYCLE")) << "declared feedback is legal";
}

// ------------------------------------- family 5: deadlock reachability

TEST(VerifyDeadlockTest, SelfWaitEdgeIsAnError) {
  GraphSpec g = LinearSpec();
  g.edges.push_back(MakeEdge(1, 1, /*credits=*/4, 0, /*feedback=*/true));
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_DEADLOCK_SELF_WAIT")) << r.ToString();
  EXPECT_FALSE(r.ok()) << "strict mode refuses self-wait loops";
}

TEST(VerifyDeadlockTest, SelfLoopWithUnboundedWindowIsNotSelfWait) {
  GraphSpec g = LinearSpec();
  g.edges.push_back(
      MakeEdge(1, 1, verify::kUnboundedCredits, 0, /*feedback=*/true));
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_FALSE(r.HasCode("VY_DEADLOCK_SELF_WAIT")) << r.ToString();
}

TEST(VerifyDeadlockTest, ZeroCreditsOnLiveEdgeIsBornClosedQueue) {
  GraphSpec g = LinearSpec();
  g.edges[0].credits = 0;  // src->stage; the source is live by definition
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_DEADLOCK_ZERO_CAPACITY")) << r.ToString();
  EXPECT_TRUE(r.HasCode("VY_CREDIT_ZERO")) << "family 3 smell co-fires";
  EXPECT_FALSE(r.ok()) << "strict mode refuses zero-capacity live edges";
}

TEST(VerifyDeadlockTest, ZeroCreditsOnDeadEdgeIsSmellOnly) {
  // 'orphan' is unreachable from any source, so its zero-credit out-edge
  // is a topology smell (VY_CREDIT_ZERO, VY_GRAPH_UNREACHABLE) but not a
  // provable runtime wedge: nothing ever pushes on it.
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "a", "cpu0"),
             MakeNode(2, NodeKind::kStage, "orphan", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 3), MakeEdge(2, 3, /*credits=*/0)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_FALSE(r.HasCode("VY_DEADLOCK_ZERO_CAPACITY")) << r.ToString();
  EXPECT_TRUE(r.HasCode("VY_CREDIT_ZERO"));
}

TEST(VerifyDeadlockTest, CreditStarvedFeedbackCycleIsRefused) {
  // Hand-built starved loop: the source bursts 8 chunks per batch, but the
  // a <-> b cycle holds only 2 + 2 = 4 credits total — once 4 chunks are
  // in flight inside the loop, every member waits on a credit only another
  // member can release.
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "a", "cpu0"),
             MakeNode(2, NodeKind::kBroadcast, "b", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.nodes[0].max_batch_chunks = 8;
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2, /*credits=*/2), MakeEdge(2, 3),
             MakeEdge(2, 1, /*credits=*/2, 0, /*feedback=*/true)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_DEADLOCK_CREDIT_STARVED")) << r.ToString();
  EXPECT_TRUE(r.HasCode("VY_CREDIT_CYCLE")) << "topology smell co-fires";
  EXPECT_FALSE(r.ok()) << "strict mode refuses credit-starved cycles";
}

TEST(VerifyDeadlockTest, CyclePoolCoveringBatchOccupancyIsNotStarved) {
  // Same loop with 8 + 8 = 16 credits >= the burst of 8: still an
  // all-finite feedback cycle (VY_CREDIT_CYCLE, the conservative smell)
  // but not arithmetically starved.
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "a", "cpu0"),
             MakeNode(2, NodeKind::kBroadcast, "b", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.nodes[0].max_batch_chunks = 8;
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2, /*credits=*/8), MakeEdge(2, 3),
             MakeEdge(2, 1, /*credits=*/8, 0, /*feedback=*/true)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_FALSE(r.HasCode("VY_DEADLOCK_CREDIT_STARVED")) << r.ToString();
  EXPECT_TRUE(r.HasCode("VY_CREDIT_CYCLE"));
}

TEST(VerifyDeadlockTest, UnboundedEdgeBreaksTheStarvationCycle) {
  // An unbounded window anywhere in the loop can always absorb the burst.
  GraphSpec g;
  g.nodes = {MakeNode(0, NodeKind::kSource, "src"),
             MakeNode(1, NodeKind::kStage, "a", "cpu0"),
             MakeNode(2, NodeKind::kBroadcast, "b", "cpu0"),
             MakeNode(3, NodeKind::kSink, "sink")};
  g.nodes[0].max_batch_chunks = 8;
  g.edges = {MakeEdge(0, 1), MakeEdge(1, 2, /*credits=*/2), MakeEdge(2, 3),
             MakeEdge(2, 1, verify::kUnboundedCredits, 0, /*feedback=*/true)};
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_FALSE(r.HasCode("VY_DEADLOCK_CREDIT_STARVED")) << r.ToString();
  EXPECT_FALSE(r.HasCode("VY_CREDIT_CYCLE")) << r.ToString();
}

// ------------------------------------------- family 4: placement legality

struct PlacementFixture {
  sim::Fabric fabric;
  std::set<std::string> unhealthy;

  VerifyContext Context() {
    VerifyContext ctx;
    ctx.fabric = &fabric;
    ctx.unhealthy = &unhealthy;
    return ctx;
  }
};

TEST(VerifyPlacementTest, UnknownDeviceSuggestsCpuFallback) {
  PlacementFixture fx;
  GraphSpec g = LinearSpec();
  g.nodes[1].device = "fpga9";  // not provisioned by the standard fabric
  VerifyReport r = VerifyGraph(g, fx.Context());
  ASSERT_TRUE(r.HasCode("VY_PLACE_UNKNOWN_DEVICE")) << r.ToString();
  EXPECT_NE(r.issues[0].message.find("cpu0"), std::string::npos)
      << "diagnostic should suggest the CPU fallback: "
      << r.issues[0].message;
}

TEST(VerifyPlacementTest, DeadDeviceRejectedWithRewriteHint) {
  PlacementFixture fx;
  fx.unhealthy.insert("storage_proc");
  GraphSpec g = LinearSpec();
  g.nodes[1].device = "storage_proc";
  VerifyReport r = VerifyGraph(g, fx.Context());
  ASSERT_TRUE(r.HasCode("VY_PLACE_DEAD_DEVICE")) << r.ToString();
  EXPECT_EQ(r.issues[0].stage, "work");
  EXPECT_NE(r.issues[0].message.find("suggested rewrite"), std::string::npos);
  EXPECT_NE(r.issues[0].message.find("cpu0"), std::string::npos);
  EXPECT_FALSE(r.ok());
}

TEST(VerifyPlacementTest, StageWithoutDevice) {
  GraphSpec g = LinearSpec();
  g.nodes[1].device = "";
  VerifyReport r = VerifyGraph(g, VerifyContext());
  EXPECT_TRUE(r.HasCode("VY_PLACE_NO_DEVICE"));
}

TEST(VerifyPlacementTest, MissingFunctionalUnit) {
  PlacementFixture fx;
  GraphSpec g = LinearSpec();
  g.nodes[1].device = "storage_nic";  // the NIC has no sort unit
  g.nodes[1].has_cost_class = true;
  g.nodes[1].cost_class = sim::CostClass::kSort;
  VerifyReport r = VerifyGraph(g, fx.Context());
  EXPECT_TRUE(r.HasCode("VY_PLACE_UNSUPPORTED")) << r.ToString();
}

TEST(VerifyPlacementTest, NonStreamingOperatorOffCpuViolatesPolicy) {
  PlacementFixture fx;
  GraphSpec g = LinearSpec();
  g.nodes[1].device = "storage_nic";
  g.nodes[1].has_traits = true;
  g.nodes[1].traits.cost_class = sim::CostClass::kFilter;
  g.nodes[1].traits.streaming = false;  // blocking operator on an accelerator
  g.nodes[1].traits.stateless = false;
  VerifyReport r = VerifyGraph(g, fx.Context());
  EXPECT_TRUE(r.HasCode("VY_PLACE_POLICY")) << r.ToString();
  EXPECT_TRUE(r.ok()) << "policy violations are warnings";
}

TEST(VerifyPlacementTest, BlockingOperatorOnCpuIsFine) {
  PlacementFixture fx;
  GraphSpec g = LinearSpec();
  g.nodes[1].has_traits = true;
  g.nodes[1].traits.streaming = false;
  g.nodes[1].traits.stateless = false;
  EXPECT_FALSE(VerifyGraph(g, fx.Context()).HasCode("VY_PLACE_POLICY"));
}

// --------------------------------------- DataflowGraph::Describe snapshot

std::vector<ScanBatch> OneBatch(size_t rows = 64) {
  DataChunk chunk;
  std::vector<int64_t> ks(rows), vs(rows);
  for (size_t i = 0; i < rows; ++i) {
    ks[i] = static_cast<int64_t>(i);
    vs[i] = static_cast<int64_t>(i % 7);
  }
  chunk.AddColumn(ColumnVector::FromInt64(std::move(ks)));
  chunk.AddColumn(ColumnVector::FromInt64(std::move(vs)));
  ScanBatch batch;
  batch.device_bytes = chunk.ByteSize();
  const uint64_t wire = chunk.ByteSize();
  batch.chunks.push_back(ScanChunk{std::move(chunk), wire});
  return {std::move(batch)};
}

ExprPtr VLessThan(int64_t bound) {
  return Expr::Resolve(Expr::Cmp(CompareOp::kLt, Expr::Col("v"),
                                 Expr::Lit(Value::Int64(bound))),
                       KV())
      .ValueOrDie();
}

TEST(DescribeTest, SnapshotMatchesBuiltGraph) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         OneBatch(), KV());
  auto filter = g.AddStage(
      "filter", FilterOperator::Make(VLessThan(3), KV()).ValueOrDie(),
      fabric.storage_proc());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, filter, {}, /*credits=*/4).ok());
  ASSERT_TRUE(g.Connect(filter, sink, {fabric.storage_uplink()}).ok());

  GraphSpec spec = g.Describe();
  ASSERT_EQ(spec.nodes.size(), 3u);
  EXPECT_EQ(spec.nodes[src].kind, NodeKind::kSource);
  EXPECT_EQ(spec.nodes[src].device, "store_media");
  ASSERT_TRUE(spec.nodes[src].has_output_schema);
  EXPECT_EQ(spec.nodes[src].output_schema, KV());
  EXPECT_EQ(spec.nodes[filter].kind, NodeKind::kStage);
  EXPECT_EQ(spec.nodes[filter].device, "storage_proc");
  ASSERT_TRUE(spec.nodes[filter].has_input_schema);
  EXPECT_EQ(spec.nodes[filter].input_schema, KV());
  EXPECT_EQ(spec.nodes[sink].kind, NodeKind::kSink);

  ASSERT_EQ(spec.edges.size(), 2u);
  EXPECT_EQ(spec.edges[0].from, src);
  EXPECT_EQ(spec.edges[0].to, filter);
  EXPECT_EQ(spec.edges[0].credits, 4u);
  EXPECT_EQ(spec.edges[0].hops, 0u);
  EXPECT_EQ(spec.edges[1].hops, 1u);

  // The built graph verifies clean against its own fabric.
  VerifyContext ctx;
  ctx.fabric = &fabric;
  VerifyReport r = VerifyGraph(spec, ctx);
  EXPECT_TRUE(r.issues.empty()) << r.ToString();
}

TEST(DescribeTest, SchemaBreakInRealGraphIsCaught) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  const Schema wrong({{"k", DataType::kInt64}});  // one column, filter wants 2
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         OneBatch(), wrong);
  auto filter = g.AddStage(
      "filter", FilterOperator::Make(VLessThan(3), KV()).ValueOrDie(),
      fabric.node(0).cpu.get());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, filter, {}).ok());
  ASSERT_TRUE(g.Connect(filter, sink, {}).ok());
  VerifyContext ctx;
  ctx.fabric = &fabric;
  VerifyReport r = VerifyGraph(g.Describe(), ctx);
  EXPECT_TRUE(r.HasCode("VY_SCHEMA_MISMATCH")) << r.ToString();
}

TEST(DescribeTest, FeedbackEdgeIsVerifyOnlyAndRejectedByRun) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         OneBatch(), KV());
  auto a =
      g.AddStage("a", FilterOperator::Make(VLessThan(3), KV()).ValueOrDie(),
                 fabric.node(0).cpu.get());
  auto b = g.AddBroadcastStage("b", fabric.node(0).cpu.get());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, a, {}).ok());
  ASSERT_TRUE(g.Connect(a, b, {}).ok());
  ASSERT_TRUE(g.Connect(b, sink, {}).ok());
  ASSERT_TRUE(g.Connect(b, a, {}, /*credits=*/8, /*feedback=*/true).ok());

  GraphSpec spec = g.Describe();
  ASSERT_EQ(spec.edges.size(), 4u);
  EXPECT_TRUE(spec.edges[3].feedback);
  VerifyReport r = VerifyGraph(spec, VerifyContext());
  EXPECT_FALSE(r.HasCode("VY_GRAPH_CYCLE")) << r.ToString();
  EXPECT_TRUE(r.HasCode("VY_CREDIT_CYCLE")) << r.ToString();

  Status run = g.Run();
  EXPECT_FALSE(run.ok());
  EXPECT_NE(run.ToString().find("feedback"), std::string::npos)
      << run.ToString();
}

// ----------------------------------------------------- engine-level gate

class EngineVerifyTest : public ::testing::Test {
 protected:
  EngineVerifyTest() {
    LineitemSpec spec;
    spec.rows = 10'000;
    DFLOW_CHECK(
        engine_.catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
  }

  QuerySpec Q6Like() {
    QuerySpec spec;
    spec.table = "lineitem";
    spec.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                            Expr::Lit(Value::Date32(8400)));
    spec.projections = {Expr::Arith(ArithOp::kMul,
                                    Expr::Col("l_extendedprice"),
                                    Expr::Col("l_discount"))};
    spec.projection_names = {"revenue"};
    spec.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
    return spec;
  }

  Engine engine_;
};

TEST_F(EngineVerifyTest, AllPlanVariantsVerifyClean) {
  const QuerySpec spec = Q6Like();
  auto variants = engine_.PlanVariants(spec).ValueOrDie();
  ASSERT_FALSE(variants.empty());
  for (const RankedPlacement& v : variants) {
    auto report = engine_.Verify(spec, v.placement).ValueOrDie();
    EXPECT_TRUE(report.issues.empty())
        << v.placement.name << ": " << report.ToString();
  }
}

TEST_F(EngineVerifyTest, VerifyDoesNotDisturbFabricOrResults) {
  const QuerySpec spec = Q6Like();
  auto before = engine_.Execute(spec).ValueOrDie();
  // A verification pass between runs must not change the next run's trace.
  ASSERT_TRUE(engine_.Verify(spec).ok());
  auto after = engine_.Execute(spec).ValueOrDie();
  EXPECT_EQ(before.report.sim_ns, after.report.sim_ns);
  EXPECT_EQ(before.report.network_bytes, after.report.network_bytes);
}

TEST_F(EngineVerifyTest, StrictModeRefusesDeadDevicePlacement) {
  const QuerySpec spec = Q6Like();
  auto variants = engine_.PlanVariants(spec).ValueOrDie();
  // Find a variant that uses the storage processor, then kill that device.
  const RankedPlacement* offloaded = nullptr;
  for (const RankedPlacement& v : variants) {
    auto report = engine_.Verify(spec, v.placement).ValueOrDie();
    if (v.placement.name.find("@storage") != std::string::npos) {
      offloaded = &v;
      break;
    }
  }
  ASSERT_NE(offloaded, nullptr);
  engine_.MarkDeviceUnhealthy("storage_proc");

  auto report = engine_.Verify(spec, offloaded->placement).ValueOrDie();
  EXPECT_TRUE(report.HasCode("VY_PLACE_DEAD_DEVICE")) << report.ToString();

  ExecOptions options;
  options.verify = verify::VerifyMode::kStrict;
  auto result = engine_.ExecuteWithPlacement(spec, offloaded->placement,
                                             options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("static verifier"),
            std::string::npos)
      << result.status().ToString();

  // kWarn runs anyway and embeds the report.
  options.verify = verify::VerifyMode::kWarn;
  auto warned = engine_.ExecuteWithPlacement(spec, offloaded->placement,
                                             options);
  ASSERT_TRUE(warned.ok()) << warned.status().ToString();
  EXPECT_TRUE(
      warned.ValueOrDie().report.verify.HasCode("VY_PLACE_DEAD_DEVICE"));

  // Every entry point shares one lowering and one verifier: the
  // compile-time stamp, Verify and the kWarn run's embedded report are the
  // same verdict on the same fused graph. They differ only in the graph
  // label their stage names carry ("compile" for the stamp, the table name
  // otherwise).
  auto plan = engine_.CompilePlan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto program = engine_.CompileVariant(plan.ValueOrDie().get(),
                                        offloaded->placement,
                                        verify::VerifyMode::kWarn);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::string stamp = program.ValueOrDie()->verify_stamp().ToString();
  for (size_t at = stamp.find(":compile"); at != std::string::npos;
       at = stamp.find(":compile", at)) {
    stamp.replace(at, std::string(":compile").size(), ":" + spec.table);
  }
  EXPECT_EQ(stamp, report.ToString());
  EXPECT_EQ(warned.ValueOrDie().report.verify.ToString(), report.ToString());

  // kOff skips the pass entirely.
  options.verify = verify::VerifyMode::kOff;
  auto off = engine_.ExecuteWithPlacement(spec, offloaded->placement, options);
  ASSERT_TRUE(off.ok());
  EXPECT_TRUE(off.ValueOrDie().report.verify.issues.empty());
}

TEST_F(EngineVerifyTest, CleanRunEmbedsEmptyReport) {
  auto result = engine_.Execute(Q6Like()).ValueOrDie();
  EXPECT_TRUE(result.report.verify.issues.empty())
      << result.report.verify.ToString();
}

// ----------------------------------------------------- modes + JSON form

TEST(VerifyModeTest, Parse) {
  EXPECT_EQ(verify::ParseVerifyMode("strict").ValueOrDie(),
            verify::VerifyMode::kStrict);
  EXPECT_EQ(verify::ParseVerifyMode("warn").ValueOrDie(),
            verify::VerifyMode::kWarn);
  EXPECT_EQ(verify::ParseVerifyMode("off").ValueOrDie(),
            verify::VerifyMode::kOff);
  EXPECT_FALSE(verify::ParseVerifyMode("loose").ok());
}

TEST(VerifyModeTest, DefaultIsStrict) {
  EXPECT_EQ(verify::DefaultMode(), verify::VerifyMode::kStrict);
  ExecOptions options;
  EXPECT_EQ(options.verify, verify::VerifyMode::kStrict);
}

TEST(VerifyReportJsonTest, IssuesKeepVerifierOrderAndFields) {
  VerifyReport report;
  report.Add(verify::Severity::kError, "VY_SCHEMA_MISMATCH", "filter",
             "scan->filter", "schema break: column 1 differs");
  report.Add(verify::Severity::kWarning, "VY_CREDIT_WINDOW", "",
             "filter->sink", "credit window of 1");
  const std::string json = trace::VerifyReportToJson(report);
  auto parsed = trace::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const trace::JsonValue& root = parsed.ValueOrDie();
  EXPECT_EQ(root.FindPath("errors")->AsUInt64(), 1u);
  EXPECT_EQ(root.FindPath("warnings")->AsUInt64(), 1u);
  const std::vector<trace::JsonValue>& issues =
      root.FindPath("issues")->AsArray();
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].Find("severity")->AsString(), "error");
  EXPECT_EQ(issues[0].Find("code")->AsString(), "VY_SCHEMA_MISMATCH");
  EXPECT_EQ(issues[0].Find("stage")->AsString(), "filter");
  EXPECT_EQ(issues[0].Find("edge")->AsString(), "scan->filter");
  EXPECT_EQ(issues[0].Find("message")->AsString(),
            "schema break: column 1 differs");
  EXPECT_EQ(issues[1].Find("severity")->AsString(), "warning");
  EXPECT_EQ(issues[1].Find("code")->AsString(), "VY_CREDIT_WINDOW");
  // Serialization is deterministic.
  EXPECT_EQ(json, trace::VerifyReportToJson(report));
}

TEST(VerifyReportJsonTest, ExecutionReportCarriesVerify) {
  ExecutionReport report;
  report.variant = "test";
  report.verify.Add(verify::Severity::kWarning, "VY_GRAPH_DEAD_END", "leak",
                    "", "rows silently dropped");
  auto parsed = trace::ParseJson(trace::ExecutionReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const trace::JsonValue* issues =
      parsed.ValueOrDie().FindPath("verify.issues");
  ASSERT_NE(issues, nullptr);
  ASSERT_EQ(issues->AsArray().size(), 1u);
  EXPECT_EQ(issues->AsArray()[0].Find("code")->AsString(),
            "VY_GRAPH_DEAD_END");
  EXPECT_EQ(parsed.ValueOrDie().FindPath("verify.warnings")->AsUInt64(), 1u);
}

}  // namespace
}  // namespace dflow
