#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dflow/compile/compiler.h"
#include "dflow/compile/fuse.h"
#include "dflow/compile/program.h"
#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/local_executor.h"
#include "dflow/exec/misc_ops.h"
#include "dflow/exec/scan.h"
#include "dflow/plan/fingerprint.h"
#include "dflow/plan/parser.h"
#include "dflow/serve/service_loop.h"
#include "dflow/serve/service_report.h"
#include "dflow/serve/workload.h"
#include "dflow/testing/canonical.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

using compile::CacheKey;
using compile::CompiledQuery;
using compile::DflowProgram;
using compile::ProgramCache;
using compile::ProgramPtr;

struct CataloguedPlan {
  std::string name;
  QuerySpec spec;
};

// The same six plan shapes tools/verify_plans.cc gates statically — the
// catalogue the byte-identical-serialization requirement is stated over.
std::vector<CataloguedPlan> BuildCatalogue() {
  std::vector<CataloguedPlan> plans;
  {
    QuerySpec q6;
    q6.table = "lineitem";
    q6.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                          Expr::Lit(Value::Date32(8400)));
    q6.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                  Expr::Col("l_discount"))};
    q6.projection_names = {"revenue"};
    q6.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
    plans.push_back({"q6", std::move(q6)});
  }
  plans.push_back(
      {"q1_sql",
       ParseQuery("SELECT l_returnflag, l_linestatus, "
                  "SUM(l_quantity) AS sum_qty, "
                  "SUM(l_extendedprice) AS sum_price, COUNT(*) AS n "
                  "FROM lineitem GROUP BY l_returnflag, l_linestatus")
           .ValueOrDie()});
  {
    QuerySpec count;
    count.table = "lineitem";
    count.count_only = true;
    count.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                             Expr::Lit(Value::Date32(8400)));
    plans.push_back({"count_only", std::move(count)});
  }
  plans.push_back({"sort_limit_sql",
                   ParseQuery("SELECT l_orderkey, l_extendedprice "
                              "FROM lineitem WHERE l_discount > 0.05 "
                              "ORDER BY l_extendedprice DESC LIMIT 10")
                       .ValueOrDie()});
  {
    QuerySpec compress;
    compress.table = "lineitem";
    compress.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                                Expr::Lit(Value::Date32(8400)));
    compress.projections = {Expr::Col("l_extendedprice"),
                            Expr::Col("l_discount")};
    compress.projection_names = {"price", "discount"};
    compress.compress_uplink = true;
    plans.push_back({"compress_uplink", std::move(compress)});
  }
  plans.push_back({"select_sql",
                   ParseQuery("SELECT l_orderkey, l_quantity FROM lineitem "
                              "WHERE l_quantity >= 10")
                       .ValueOrDie()});
  return plans;
}

std::unique_ptr<Engine> MakeEngine() {
  auto engine = std::make_unique<Engine>(sim::FabricConfig{});
  LineitemSpec spec;
  spec.rows = 20'000;
  spec.row_group_size = 8'192;
  DFLOW_CHECK(
      engine->catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
  return engine;
}

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() : engine_(MakeEngine()) {}

  ProgramPtr MustCompile(const QuerySpec& spec,
                         PlacementChoice choice = PlacementChoice::kAuto) {
    auto program = engine_->Compile(spec, choice, verify::VerifyMode::kStrict);
    DFLOW_CHECK(program.ok());
    return program.ValueOrDie();
  }

  std::string RunProgramFingerprint(const DflowProgram& program) {
    ExecOptions options;
    options.verify = verify::VerifyMode::kStrict;
    auto result = engine_->ExecuteProgram(program, options);
    DFLOW_CHECK(result.ok());
    return testing::CanonicalizeChunks(result.ValueOrDie().chunks).fingerprint;
  }

  std::string RunExecuteFingerprint(const QuerySpec& spec,
                                    PlacementChoice choice) {
    ExecOptions options;
    options.verify = verify::VerifyMode::kStrict;
    options.placement = choice;
    auto result = engine_->Execute(spec, options);
    DFLOW_CHECK(result.ok());
    return testing::CanonicalizeChunks(result.ValueOrDie().chunks).fingerprint;
  }

  std::unique_ptr<Engine> engine_;
};

// ------------------------------------------------- serialization identity --

// The core determinism gate: compiling the same plan in two independent
// engine instances (fresh catalogs, fresh fabrics — a stand-in for two
// process runs) must yield byte-identical serialized programs and equal
// fingerprints, for every shape in the catalogue and for both extremes.
TEST_F(CompileTest, SerializationByteIdenticalAcrossEngineInstances) {
  auto other = MakeEngine();
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    SCOPED_TRACE(plan.name);
    for (PlacementChoice choice :
         {PlacementChoice::kAuto, PlacementChoice::kCpuOnly}) {
      ProgramPtr a = MustCompile(plan.spec, choice);
      auto b_or =
          other->Compile(plan.spec, choice, verify::VerifyMode::kStrict);
      ASSERT_TRUE(b_or.ok()) << b_or.status().ToString();
      ProgramPtr b = b_or.ValueOrDie();
      EXPECT_EQ(a->SerializeToString(), b->SerializeToString());
      EXPECT_EQ(a->fingerprint(), b->fingerprint());
      EXPECT_EQ(a->plan_fingerprint(), FingerprintQuerySpec(plan.spec));
    }
  }
}

// Each catalogue plan is a distinct artifact: six plans, six fingerprints.
TEST_F(CompileTest, CataloguePlansHaveDistinctFingerprints) {
  std::set<uint64_t> program_fps;
  std::set<uint64_t> plan_fps;
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    ProgramPtr p = MustCompile(plan.spec);
    program_fps.insert(p->fingerprint());
    plan_fps.insert(p->plan_fingerprint());
  }
  EXPECT_EQ(program_fps.size(), 6u);
  EXPECT_EQ(plan_fps.size(), 6u);
}

// The schema table is the opcode table's: instantiating every op of every
// variant's program in order, each operator's output schema equals the
// schema its op records — the uplink ENCODE/REDECODE pair included.
TEST_F(CompileTest, SchemaTableMatchesInstantiatedOperators) {
  size_t programs = 0;
  size_t uplink_pairs = 0;
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    auto compiled = engine_->CompilePlan(plan.spec);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    CompiledQuery* cq = compiled.ValueOrDie().get();
    for (const RankedPlacement& variant : cq->variants) {
      SCOPED_TRACE(plan.name + " [" + variant.placement.name + "]");
      auto program = engine_->CompileVariant(cq, variant.placement,
                                             verify::VerifyMode::kStrict);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      const DflowProgram& p = *program.ValueOrDie();
      ++programs;
      Schema current = p.scan_schema();
      for (const compile::ProgramOp& op : p.ops()) {
        SCOPED_TRACE(std::string(compile::OpCodeToString(op.code)));
        auto live = compile::InstantiateOp(p, op, &current);
        ASSERT_TRUE(live.ok()) << live.status().ToString();
        const Schema& out = live.ValueOrDie()->output_schema();
        EXPECT_TRUE(out == op.output_schema)
            << out.ToString() << " vs " << op.output_schema.ToString();
        EXPECT_TRUE(current == op.output_schema);
        if (op.code == compile::OpCode::kReDecode) ++uplink_pairs;
      }
    }
  }
  EXPECT_GT(programs, BuildCatalogue().size());
  EXPECT_GT(uplink_pairs, 0u);
}

// Fusion is part of the artifact: the CPU-only q6 pipeline has an adjacent
// same-site filter -> project run, so lowering collapses it into a group of
// same-site fusible ops, and the serialization records that group.
TEST_F(CompileTest, FusionIsRecordedInTheArtifact) {
  const QuerySpec q6 = BuildCatalogue()[0].spec;
  ProgramPtr program = MustCompile(q6, PlacementChoice::kCpuOnly);
  ASSERT_GE(program->fused_groups().size(), 1u);
  const std::string text = program->SerializeToString();
  EXPECT_NE(text.find("fused " +
                      std::to_string(program->fused_groups().size()) + "\n"),
            std::string::npos)
      << text;
  for (const compile::FusedGroup& g : program->fused_groups()) {
    ASSERT_GE(g.count, 2u);
    for (uint32_t k = 1; k < g.count; ++k) {
      EXPECT_EQ(program->ops()[g.first + k].site,
                program->ops()[g.first].site);
    }
  }
}

// The fused kernel's contract: for every fused group of every catalogue
// program, FusedOperator over the group's inner operators emits exactly
// what those operators emit run back to back (RunLocalPipeline) — the same
// chunks, rows, values and wire bytes (NULL masks included), including a
// partial aggregate's Finish flush. The group's input is the plan's scan
// pushed through the ops before it; a group that starts with a filter also
// gets, per input chunk, the rows its filter keeps and the rows it drops,
// so chunks where the filter keeps all, none and some rows all occur.
TEST_F(CompileTest, FusedKernelMatchesItsInnerChain) {
  size_t groups_checked = 0;
  size_t partial_agg_groups = 0;
  size_t keeps_none = 0;
  size_t keeps_all = 0;
  size_t keeps_some = 0;
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    for (PlacementChoice choice :
         {PlacementChoice::kAuto, PlacementChoice::kCpuOnly}) {
      SCOPED_TRACE(plan.name + (choice == PlacementChoice::kAuto
                                    ? "/auto"
                                    : "/cpu_only"));
      ProgramPtr program = MustCompile(plan.spec, choice);
      auto scan = TableScanSource::Make(program->table(),
                                        program->scan_columns(),
                                        program->filter());
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      std::vector<DataChunk> scanned;
      for (size_t rg : scan.ValueOrDie().SurvivingRowGroups()) {
        auto chunks = scan.ValueOrDie().DecodeRowGroup(rg);
        ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
        for (DataChunk& c : chunks.ValueOrDie()) {
          scanned.push_back(std::move(c));
        }
      }
      // Fresh operators for ops [first, first + count), typed by the
      // schema flowing out of the ops before them.
      auto instantiate = [&](size_t first, size_t count) {
        Schema current = program->scan_schema();
        std::vector<OperatorPtr> ops;
        for (size_t i = 0; i < first + count; ++i) {
          auto op = compile::InstantiateOp(*program, program->ops()[i],
                                           &current);
          DFLOW_CHECK(op.ok());
          if (i >= first) ops.push_back(std::move(op).ValueOrDie());
        }
        return ops;
      };
      auto raw = [](const std::vector<OperatorPtr>& ops) {
        std::vector<Operator*> out;
        for (const OperatorPtr& op : ops) out.push_back(op.get());
        return out;
      };
      for (const compile::FusedGroup& g : program->fused_groups()) {
        SCOPED_TRACE("group at op " + std::to_string(g.first));
        ++groups_checked;
        for (uint32_t k = 0; k < g.count; ++k) {
          if (program->ops()[g.first + k].code ==
              compile::OpCode::kPartialAgg) {
            ++partial_agg_groups;
          }
        }
        const std::vector<OperatorPtr> before = instantiate(0, g.first);
        auto ran = RunLocalPipeline(scanned, raw(before));
        ASSERT_TRUE(ran.ok()) << ran.status().ToString();
        std::vector<DataChunk> input = std::move(ran).ValueOrDie();
        if (program->ops()[g.first].code == compile::OpCode::kFilter) {
          const std::vector<OperatorPtr> filter = instantiate(g.first, 1);
          const size_t scanned_chunks = input.size();
          for (size_t c = 0; c < scanned_chunks; ++c) {
            SelectionVector kept;
            ASSERT_TRUE(static_cast<FilterOperator*>(filter[0].get())
                            ->Select(input[c], &kept)
                            .ok());
            SelectionVector dropped;
            for (uint32_t r = 0, k = 0; r < input[c].num_rows(); ++r) {
              if (k < kept.size() && kept[k] == r) {
                ++k;
              } else {
                dropped.Append(r);
              }
            }
            if (!kept.empty()) input.push_back(input[c].Gather(kept));
            if (!dropped.empty()) input.push_back(input[c].Gather(dropped));
          }
          for (const DataChunk& c : input) {
            SelectionVector kept;
            ASSERT_TRUE(static_cast<FilterOperator*>(filter[0].get())
                            ->Select(c, &kept)
                            .ok());
            if (kept.empty()) {
              ++keeps_none;
            } else if (kept.size() == c.num_rows()) {
              ++keeps_all;
            } else {
              ++keeps_some;
            }
          }
        }
        const std::vector<OperatorPtr> inner = instantiate(g.first, g.count);
        auto chain = RunLocalPipeline(input, raw(inner));
        ASSERT_TRUE(chain.ok()) << chain.status().ToString();
        auto fused =
            compile::FusedOperator::Make(instantiate(g.first, g.count));
        ASSERT_TRUE(fused.ok()) << fused.status().ToString();
        auto kernel = RunLocalPipeline(input, {fused.ValueOrDie().get()});
        ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

        const std::vector<DataChunk>& want = chain.ValueOrDie();
        const std::vector<DataChunk>& got = kernel.ValueOrDie();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].num_rows(), want[i].num_rows()) << "chunk " << i;
          EXPECT_EQ(got[i].num_columns(), want[i].num_columns());
          EXPECT_EQ(ChecksumChunk(got[i]), ChecksumChunk(want[i]))
              << "chunk " << i;
          EXPECT_EQ(got[i].ByteSize(), want[i].ByteSize()) << "chunk " << i;
        }
      }
    }
  }
  EXPECT_GT(groups_checked, 0u);
  EXPECT_GT(keeps_none, 0u);
  EXPECT_GT(keeps_all, 0u);
  EXPECT_GT(keeps_some, 0u);
  // At least one group ends in a partial aggregate, so Finish's flush
  // through the kernel is part of what was compared.
  EXPECT_GT(partial_agg_groups, 0u);
}

// The kernel runs filter, project and aggregate in that order, each at
// most once; any other member list is refused, not run differently.
TEST_F(CompileTest, FusedKernelRefusesOtherMemberLists) {
  const Schema schema({{"x", DataType::kInt64}});
  auto filter = [&] {
    return FilterOperator::Make(
               Expr::Resolve(Expr::Cmp(CompareOp::kGt, Expr::Col("x"),
                                       Expr::Lit(Value::Int64(0))),
                             schema)
                   .ValueOrDie(),
               schema)
        .ValueOrDie();
  };
  auto aggregate = [&] {
    return HashAggregateOperator::Make(schema, {}, {{AggFunc::kCount, "", "n"}},
                                       AggMode::kPartial)
        .ValueOrDie();
  };
  auto make = [](std::vector<OperatorPtr> ops) {
    return compile::FusedOperator::Make(std::move(ops)).status();
  };
  std::vector<OperatorPtr> ok;
  ok.push_back(filter());
  ok.push_back(aggregate());
  EXPECT_TRUE(make(std::move(ok)).ok());
  std::vector<OperatorPtr> reversed;
  reversed.push_back(aggregate());
  reversed.push_back(filter());
  EXPECT_EQ(make(std::move(reversed)).code(), StatusCode::kInvalidArgument);
  std::vector<OperatorPtr> twice;
  twice.push_back(filter());
  twice.push_back(filter());
  EXPECT_EQ(make(std::move(twice)).code(), StatusCode::kInvalidArgument);
  std::vector<OperatorPtr> other;
  other.push_back(filter());
  other.push_back(std::make_unique<CountOperator>());
  EXPECT_EQ(make(std::move(other)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(make({}).code(), StatusCode::kInvalidArgument);
}

// A strict-mode compile embeds a clean verifier stamp; no re-verification
// happens at execution time, so the stamp must already be error-free.
TEST_F(CompileTest, StrictCompileEmbedsCleanVerifyStamp) {
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    SCOPED_TRACE(plan.name);
    ProgramPtr p = MustCompile(plan.spec);
    EXPECT_TRUE(p->verify_stamp().ok()) << p->verify_stamp().ToString();
    EXPECT_EQ(p->verifier_version(), verify::kVerifierVersion);
  }
}

// --------------------------------------------------- result equivalence --

// The compiled program and Engine::Execute, which lowers the same fused
// program, must both match the Volcano reference on every catalogue plan,
// at auto placement and forced CPU-only.
TEST_F(CompileTest, CompiledAndExecuteResultsMatchVolcano) {
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    SCOPED_TRACE(plan.name);
    auto volcano = engine_->ExecuteOnVolcano(plan.spec, /*pool_pages=*/64);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    const std::string reference =
        testing::CanonicalizeVolcanoRows(volcano.ValueOrDie().rows)
            .fingerprint;
    for (PlacementChoice choice :
         {PlacementChoice::kAuto, PlacementChoice::kCpuOnly}) {
      EXPECT_EQ(RunExecuteFingerprint(plan.spec, choice), reference);
      EXPECT_EQ(RunProgramFingerprint(*MustCompile(plan.spec, choice)),
                reference);
    }
  }
}

// ------------------------------------------------------ cache state machine --

CacheKey KeyOf(uint64_t fp, uint64_t epoch = 0, int version = 1) {
  return CacheKey{fp, epoch, version};
}

std::shared_ptr<CompiledQuery> EntryOf(const CacheKey& key) {
  auto entry = std::make_shared<CompiledQuery>();
  entry->plan_fingerprint = key.plan_fingerprint;
  entry->fabric_epoch = key.fabric_epoch;
  return entry;
}

TEST(ProgramCacheTest, LruEvictsLeastRecentlyUsed) {
  ProgramCache cache(/*capacity=*/2);
  const CacheKey k1 = KeyOf(1), k2 = KeyOf(2), k3 = KeyOf(3);
  cache.Insert(k1, EntryOf(k1));
  cache.Insert(k2, EntryOf(k2));
  EXPECT_EQ(cache.size(), 2u);

  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, EntryOf(k3));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_NE(cache.Lookup(k3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(ProgramCacheTest, InsertReplacesWithoutEviction) {
  ProgramCache cache(/*capacity=*/2);
  const CacheKey k1 = KeyOf(1);
  cache.Insert(k1, EntryOf(k1));
  auto replacement = EntryOf(k1);
  cache.Insert(k1, replacement);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(k1), replacement);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ProgramCacheTest, EpochInvalidationSweepsStaleEntriesOnly) {
  ProgramCache cache(/*capacity=*/8);
  const CacheKey old1 = KeyOf(1, /*epoch=*/0), old2 = KeyOf(2, /*epoch=*/0);
  const CacheKey fresh = KeyOf(3, /*epoch=*/1);
  cache.Insert(old1, EntryOf(old1));
  cache.Insert(old2, EntryOf(old2));
  cache.Insert(fresh, EntryOf(fresh));

  cache.InvalidateStaleEpochs(/*current_epoch=*/1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(old1), nullptr);
  EXPECT_EQ(cache.Lookup(old2), nullptr);
  EXPECT_NE(cache.Lookup(fresh), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Idempotent: nothing left to sweep.
  cache.InvalidateStaleEpochs(1);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(ProgramCacheTest, VerifierVersionIsPartOfTheKey) {
  ProgramCache cache(/*capacity=*/4);
  const CacheKey v1 = KeyOf(1, 0, /*version=*/1);
  cache.Insert(v1, EntryOf(v1));
  EXPECT_EQ(cache.Lookup(KeyOf(1, 0, /*version=*/2)), nullptr);
  EXPECT_NE(cache.Lookup(v1), nullptr);
}

TEST(ProgramCacheTest, OutcomeCountersAreCallerClassified) {
  ProgramCache cache(4);
  cache.CountMiss();
  cache.CountHit();
  cache.CountHit();
  cache.CountRecompile();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().recompiles, 1u);
}

// ------------------------------------------------------------ fabric epoch --

TEST_F(CompileTest, FabricEpochBumpsOnlyOnActualHealthChanges) {
  EXPECT_EQ(engine_->fabric_epoch(), 0u);
  engine_->MarkDeviceUnhealthy("storage_proc");
  EXPECT_EQ(engine_->fabric_epoch(), 1u);
  engine_->MarkDeviceUnhealthy("storage_proc");  // already unhealthy: no bump
  EXPECT_EQ(engine_->fabric_epoch(), 1u);
  engine_->MarkDeviceUnhealthy("compute_nic");
  EXPECT_EQ(engine_->fabric_epoch(), 2u);
  engine_->ClearDeviceHealth();
  EXPECT_EQ(engine_->fabric_epoch(), 3u);
  engine_->ClearDeviceHealth();  // nothing to clear: no bump
  EXPECT_EQ(engine_->fabric_epoch(), 3u);
}

// Lazy variant compilation through the cache entry: CompilePlan enumerates
// once, CompileVariant fills programs one placement at a time, and a repeat
// request for a compiled variant returns the identical object.
TEST_F(CompileTest, CompileVariantIsLazyAndMemoized) {
  const QuerySpec q6 = BuildCatalogue()[0].spec;
  auto plan = engine_->CompilePlan(q6).ValueOrDie();
  EXPECT_GE(plan->variants.size(), 2u);
  EXPECT_TRUE(plan->programs.empty());

  auto first = engine_->CompileVariant(plan.get(), plan->cpu_only,
                                       verify::VerifyMode::kStrict);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(plan->programs.size(), 1u);

  auto again = engine_->CompileVariant(plan.get(), plan->cpu_only,
                                       verify::VerifyMode::kStrict);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.ValueOrDie().get(), again.ValueOrDie().get());
  EXPECT_EQ(plan->programs.size(), 1u);
  EXPECT_EQ(plan->ProgramFor(plan->cpu_only.name), first.ValueOrDie());
}

// A program runs on the compute node it was lowered and verified for: its
// graph is built there, and asking ExecuteProgram for another node is an
// error rather than a silent run of a stamp checked against other devices.
TEST(CompileNodeTest, ProgramRunsOnlyOnTheNodeItWasCompiledFor) {
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  Engine engine(config);
  LineitemSpec table;
  table.rows = 4'000;
  ASSERT_TRUE(
      engine.catalog().Register(MakeLineitemTable(table).ValueOrDie()).ok());
  const QuerySpec q6 = BuildCatalogue()[0].spec;
  auto program = engine.Compile(q6, PlacementChoice::kCpuOnly,
                                verify::VerifyMode::kStrict, /*node=*/1);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program.ValueOrDie()->node(), 1);

  auto wrong_node = engine.ExecuteProgram(*program.ValueOrDie());
  ASSERT_FALSE(wrong_node.ok());
  EXPECT_EQ(wrong_node.status().code(), StatusCode::kInvalidArgument)
      << wrong_node.status().ToString();

  ExecOptions on_node1;
  on_node1.node = 1;
  auto result = engine.ExecuteProgram(*program.ValueOrDie(), on_node1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& busy = result.ValueOrDie().report.device_busy_ns;
  EXPECT_GT(busy.count("cpu1"), 0u);
  EXPECT_EQ(busy.count("cpu0"), 0u);

  // The serving hook builds the same node-1 graph.
  DataflowGraph graph(&engine.fabric().simulator());
  auto pipeline = engine.BuildProgramPipeline(&graph, *program.ValueOrDie(),
                                              "tenant#0");
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const verify::GraphSpec described = graph.Describe();
  bool on_cpu1 = false;
  for (const verify::NodeSpec& n : described.nodes) {
    EXPECT_NE(n.device, "cpu0") << n.name;
    on_cpu1 = on_cpu1 || n.device == "cpu1";
  }
  EXPECT_TRUE(on_cpu1);
}

// --------------------------------------------------- serving integration --

class CompileServeTest : public ::testing::Test {
 protected:
  CompileServeTest() : engine_(MakeEngine()) {}

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

  std::vector<serve::TenantConfig> RepeatTenant() {
    serve::TenantConfig open;
    open.name = "open";
    open.priority = 0;
    open.queue_capacity = 4;
    open.arrival_probability = 0.6;
    open.templates = {{SmallQ6(), "q6", 1}};
    return {open};
  }

  std::unique_ptr<Engine> engine_;
};

// Repeat admissions of the same template: one cold miss pays planning +
// lowering, every subsequent admission is a cache hit, so admissions that
// compile are a small minority — the compile-once, serve-millions property
// the subsystem exists for.
TEST_F(CompileServeTest, RepeatAdmissionsHitTheProgramCache) {
  serve::ServiceConfig config;
  config.seed = 42;
  config.horizon_ns = 15'000'000;
  config.admission.global_max_in_flight = 2;
  config.admission.global_queue_capacity = 4;

  serve::ServiceLoop loop(engine_.get(), RepeatTenant(), config);
  auto result = loop.Run().ValueOrDie();
  const serve::ServiceReport& r = result.service;

  EXPECT_GT(r.completed_total, 1u);
  EXPECT_EQ(r.cache_misses, 1u);  // one template, one cold compile
  EXPECT_GE(r.cache_hits, r.completed_total - 1 - r.cache_recompiles);
  EXPECT_EQ(r.cache_invalidations, 0u);
  EXPECT_GT(r.cache_hits, r.cache_misses + r.cache_recompiles);
}

// Same seed, same config: the cache counters (like everything else in the
// report) are deterministic.
TEST_F(CompileServeTest, CacheCountersAreDeterministic) {
  serve::ServiceConfig config;
  config.seed = 7;
  config.horizon_ns = 10'000'000;
  config.admission.global_max_in_flight = 2;

  serve::ServiceLoop a(engine_.get(), RepeatTenant(), config);
  auto ra = a.Run().ValueOrDie();
  auto fresh = MakeEngine();
  serve::ServiceLoop b(fresh.get(), RepeatTenant(), config);
  auto rb = b.Run().ValueOrDie();

  EXPECT_EQ(ra.service.cache_hits, rb.service.cache_hits);
  EXPECT_EQ(ra.service.cache_misses, rb.service.cache_misses);
  EXPECT_EQ(ra.service.cache_recompiles, rb.service.cache_recompiles);
  EXPECT_EQ(ra.service.cache_evictions, rb.service.cache_evictions);
}

// A mid-run device crash forces retries onto the CPU-only fallback. The
// retry path must reuse the cached variant table — the fallback lowering
// counts as a recompile, never as a fresh miss — and the service still
// completes everything.
TEST_F(CompileServeTest, RetryAfterCrashRecompilesWithoutReMiss) {
  sim::FaultConfig fc;
  engine_->EnableFaultInjection(fc);
  engine_->fault_injector()->CrashDeviceAt("storage_proc", 2'000'000);
  engine_->fault_injector()->RestoreDeviceAt("storage_proc", 8'000'000);

  auto tenants = RepeatTenant();
  tenants[0].arrival_probability = 0.8;

  serve::ServiceConfig config;
  config.seed = 42;
  config.horizon_ns = 20'000'000;
  config.admission.global_max_in_flight = 2;
  config.placement = PlacementChoice::kFullOffload;
  config.lifecycle.quarantine_on_crash = false;
  config.lifecycle.breaker.enabled = true;
  config.lifecycle.breaker.failure_threshold = 1;
  config.lifecycle.breaker.cooldown_ns = 3'000'000;
  config.lifecycle.retry.retry_device_crash = true;
  config.lifecycle.retry.fallback_chain = {PlacementChoice::kCpuOnly};

  serve::ServiceLoop loop(engine_.get(), tenants, config);
  auto result = loop.Run().ValueOrDie();
  const serve::ServiceReport& r = result.service;

  EXPECT_GE(r.retries_total, 1u);
  EXPECT_EQ(r.failed_total, 0u);
  // The fallback variant was lowered from the cached plan, not re-planned:
  // the single template misses exactly once no matter how many retries.
  EXPECT_EQ(r.cache_misses, 1u);
  EXPECT_GE(r.cache_recompiles, 1u);
}

}  // namespace
}  // namespace dflow
