#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "dflow/common/random.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/join.h"
#include "dflow/exec/local_executor.h"
#include "dflow/exec/misc_ops.h"
#include "dflow/exec/partition.h"
#include "dflow/exec/project.h"
#include "dflow/plan/expr.h"
#include "dflow/vector/kernels.h"

namespace dflow {
namespace {

Schema SalesSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"region", DataType::kString},
                 {"amount", DataType::kDouble}});
}

DataChunk SalesChunk() {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3, 4, 5, 6}));
  chunk.AddColumn(ColumnVector::FromString(
      {"east", "west", "east", "west", "east", "north"}));
  chunk.AddColumn(
      ColumnVector::FromDouble({10.0, 20.0, 30.0, 40.0, 50.0, 60.0}));
  return chunk;
}

ExprPtr Resolved(ExprPtr e, const Schema& s) {
  return Expr::Resolve(e, s).ValueOrDie();
}

TEST(FilterOperatorTest, SelectsMatchingRows) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kGt, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(25.0))),
                       SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 4u);
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 3);
}

TEST(FilterOperatorTest, AllPassIsPassthrough) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kGt, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(0.0))),
                       SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 6u);
}

TEST(FilterOperatorTest, NonePassEmitsNothing) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kLt, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(0.0))),
                       SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 0u);
}

TEST(FilterOperatorTest, RejectsNonPredicate) {
  auto expr = Resolved(Expr::Arith(ArithOp::kAdd, Expr::Col("id"),
                                   Expr::Lit(Value::Int64(1))),
                       SalesSchema());
  EXPECT_FALSE(FilterOperator::Make(expr, SalesSchema()).ok());
}

TEST(FilterOperatorTest, TraitsAreStreamingStateless) {
  auto pred = Resolved(Expr::Like(Expr::Col("region"), "e%"), SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  EXPECT_TRUE(op->traits().streaming);
  EXPECT_TRUE(op->traits().stateless);
  EXPECT_EQ(op->traits().cost_class, sim::CostClass::kFilter);
}

TEST(ProjectOperatorTest, SelectAndCompute) {
  auto op = ProjectOperator::Make(
                {Resolved(Expr::Col("region"), SalesSchema()),
                 Resolved(Expr::Arith(ArithOp::kMul, Expr::Col("amount"),
                                      Expr::Lit(Value::Double(0.5))),
                          SalesSchema())},
                {"region", "half"}, SalesSchema())
                .ValueOrDie();
  EXPECT_EQ(op->output_schema().field(1).name, "half");
  EXPECT_EQ(op->output_schema().field(1).type, DataType::kDouble);
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(out[0].num_columns(), 2u);
  EXPECT_DOUBLE_EQ(out[0].GetValue(1, 1).double_value(), 10.0);
}

TEST(ProjectOperatorTest, NarrowingReducesBytes) {
  auto op = ProjectOperator::Make({Resolved(Expr::Col("id"), SalesSchema())},
                                  {"id"}, SalesSchema())
                .ValueOrDie();
  DataChunk input = SalesChunk();
  auto out = RunLocalPipeline({input}, {op.get()}).ValueOrDie();
  EXPECT_LT(TotalBytes(out), input.ByteSize());
  EXPECT_LT(op->traits().reduction_hint, 1.0);
}

TEST(AggregateTest, CompleteGroupBy) {
  auto op = HashAggregateOperator::Make(
                SalesSchema(), {"region"},
                {{AggFunc::kSum, "amount", "total"},
                 {AggFunc::kCount, "", "n"}},
                AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  DataChunk all = ConcatChunks(out);
  ASSERT_EQ(all.num_rows(), 3u);
  // Find the "east" row.
  double east_total = 0;
  int64_t east_n = 0;
  for (size_t r = 0; r < all.num_rows(); ++r) {
    if (all.GetValue(r, 0).string_value() == "east") {
      east_total = all.GetValue(r, 1).double_value();
      east_n = all.GetValue(r, 2).int64_value();
    }
  }
  EXPECT_DOUBLE_EQ(east_total, 90.0);
  EXPECT_EQ(east_n, 3);
}

TEST(AggregateTest, MinMax) {
  auto op = HashAggregateOperator::Make(
                SalesSchema(), {},
                {{AggFunc::kMin, "amount", "lo"},
                 {AggFunc::kMax, "amount", "hi"}},
                AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  ASSERT_EQ(TotalRows(out), 1u);
  EXPECT_DOUBLE_EQ(out[0].GetValue(0, 0).double_value(), 10.0);
  EXPECT_DOUBLE_EQ(out[0].GetValue(0, 1).double_value(), 60.0);
}

TEST(AggregateTest, EmptyInputScalarAggregate) {
  auto op = HashAggregateOperator::Make(SalesSchema(), {},
                                        {{AggFunc::kCount, "", "n"},
                                         {AggFunc::kSum, "amount", "s"}},
                                        AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({}, {op.get()}).ValueOrDie();
  ASSERT_EQ(TotalRows(out), 1u);
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 0);
  EXPECT_TRUE(out[0].GetValue(0, 1).is_null());
}

TEST(AggregateTest, AggregatesSkipNulls) {
  DataChunk chunk = SalesChunk();
  chunk.column(2).SetNull(0);
  auto op = HashAggregateOperator::Make(SalesSchema(), {},
                                        {{AggFunc::kCount, "amount", "n"},
                                         {AggFunc::kSum, "amount", "s"}},
                                        AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({chunk}, {op.get()}).ValueOrDie();
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 5);
  EXPECT_DOUBLE_EQ(out[0].GetValue(0, 1).double_value(), 200.0);
}

TEST(AggregateTest, PartialThenFinalMatchesComplete) {
  // Two-stage aggregation (the NIC pre-aggregation pipeline) must be exact.
  auto partial = HashAggregateOperator::Make(
                     SalesSchema(), {"region"},
                     {{AggFunc::kSum, "amount", "total"},
                      {AggFunc::kCount, "", "n"}},
                     AggMode::kPartial)
                     .ValueOrDie();
  auto* partial_agg = static_cast<HashAggregateOperator*>(partial.get());
  auto final_op = HashAggregateOperator::Make(
                      partial_agg->output_schema(), {"region"},
                      MakeMergeSpecs({{AggFunc::kSum, "amount", "total"},
                                      {AggFunc::kCount, "", "n"}}),
                      AggMode::kFinal)
                      .ValueOrDie();
  auto out =
      RunLocalPipeline({SalesChunk()}, {partial.get(), final_op.get()})
          .ValueOrDie();
  DataChunk all = ConcatChunks(out);
  ASSERT_EQ(all.num_rows(), 3u);
  for (size_t r = 0; r < all.num_rows(); ++r) {
    if (all.GetValue(r, 0).string_value() == "west") {
      EXPECT_DOUBLE_EQ(all.GetValue(r, 1).double_value(), 60.0);
      EXPECT_EQ(all.GetValue(r, 2).int64_value(), 2);
    }
  }
}

TEST(AggregateTest, BoundedPartialFlushesAndStaysExact) {
  // A partial aggregate with a 2-group budget over 26 distinct keys must
  // flush repeatedly yet still produce exact totals after the final stage.
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  Random rng(3);
  DataChunk chunk;
  std::vector<int64_t> keys, vals;
  int64_t expected_total = 0;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.NextInt64(0, 25));
    vals.push_back(i);
    expected_total += i;
  }
  chunk.AddColumn(ColumnVector::FromInt64(keys));
  chunk.AddColumn(ColumnVector::FromInt64(vals));

  auto partial = HashAggregateOperator::Make(
                     schema, {"k"}, {{AggFunc::kSum, "v", "s"}},
                     AggMode::kPartial, /*max_groups=*/2)
                     .ValueOrDie();
  auto* partial_agg = static_cast<HashAggregateOperator*>(partial.get());
  auto final_op =
      HashAggregateOperator::Make(partial_agg->output_schema(), {"k"},
                                  MakeMergeSpecs({{AggFunc::kSum, "v", "s"}}),
                                  AggMode::kFinal)
          .ValueOrDie();
  auto out = RunLocalPipeline({chunk}, {partial.get(), final_op.get()})
                 .ValueOrDie();
  DataChunk all = ConcatChunks(out);
  EXPECT_EQ(all.num_rows(), 26u);
  int64_t total = 0;
  for (size_t r = 0; r < all.num_rows(); ++r) {
    total += all.GetValue(r, 1).int64_value();
  }
  EXPECT_EQ(total, expected_total);
  EXPECT_GT(partial_agg->partial_flushes(), 0u);
}

TEST(AggregateTest, BoundedTableRequiresPartialMode) {
  EXPECT_FALSE(HashAggregateOperator::Make(SalesSchema(), {"region"},
                                           {{AggFunc::kCount, "", "n"}},
                                           AggMode::kComplete, 10)
                   .ok());
}

TEST(AggregateTest, NullGroupKeysFormOneGroupPerColumnValue) {
  // NULL equals NULL as a key (Value::Compare), in STRING and INT64 key
  // columns alike; groups come out in first-arrival order.
  Schema schema({{"s", DataType::kString}, {"i", DataType::kInt64}});
  ColumnVector s = ColumnVector::FromString({"", "a", "", "a", "", "a"});
  ColumnVector i = ColumnVector::FromInt64({1, 0, 1, 0, 0, 1});
  for (size_t r : {0, 2, 4}) s.SetNull(r);
  for (size_t r : {1, 3, 4}) i.SetNull(r);
  DataChunk chunk({s, i});
  auto op = HashAggregateOperator::Make(schema, {"s", "i"},
                                        {{AggFunc::kCount, "", "n"}},
                                        AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({chunk}, {op.get()}).ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  const DataChunk& got = out[0];
  ASSERT_EQ(got.num_rows(), 4u);
  // (NULL, 1) x2, ("a", NULL) x2, (NULL, NULL) x1, ("a", 1) x1.
  const std::vector<bool> s_null = {true, false, true, false};
  const std::vector<bool> i_null = {false, true, true, false};
  const std::vector<int64_t> counts = {2, 2, 1, 1};
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(got.GetValue(r, 0).is_null(), s_null[r]) << r;
    EXPECT_EQ(got.GetValue(r, 1).is_null(), i_null[r]) << r;
    EXPECT_EQ(got.GetValue(r, 2).int64_value(), counts[r]) << r;
  }
  EXPECT_EQ(got.GetValue(1, 0).string_value(), "a");
  EXPECT_EQ(got.GetValue(0, 1).int64_value(), 1);
}

TEST(AggregateTest, NanAndNegativeZeroFollowValueCompare) {
  const double nan = std::nan("");
  auto min_max = [](std::vector<double> values) {
    Schema schema({{"x", DataType::kDouble}});
    auto op = HashAggregateOperator::Make(schema, {},
                                          {{AggFunc::kMin, "x", "lo"},
                                           {AggFunc::kMax, "x", "hi"}},
                                          AggMode::kComplete)
                  .ValueOrDie();
    DataChunk chunk({ColumnVector::FromDouble(std::move(values))});
    auto out = RunLocalPipeline({chunk}, {op.get()}).ValueOrDie();
    return std::make_pair(out[0].column(0).f64()[0], out[0].column(1).f64()[0]);
  };
  // NaN compares equal to everything: a NaN seen first stays; one seen
  // later never replaces the running extreme.
  auto [lo, hi] = min_max({2.0, nan, 1.0, 3.0});
  EXPECT_EQ(lo, 1.0);
  EXPECT_EQ(hi, 3.0);
  std::tie(lo, hi) = min_max({nan, 1.0, -1.0});
  EXPECT_TRUE(std::isnan(lo));
  EXPECT_TRUE(std::isnan(hi));
  // -0.0 equals 0.0: the first of them wins, sign included.
  std::tie(lo, hi) = min_max({0.0, -0.0});
  EXPECT_FALSE(std::signbit(lo));
  EXPECT_FALSE(std::signbit(hi));
  std::tie(lo, hi) = min_max({-0.0, 0.0});
  EXPECT_TRUE(std::signbit(lo));
  EXPECT_TRUE(std::signbit(hi));

  // As DOUBLE group keys, -0.0 and 0.0 hash apart and stay two groups; NaNs
  // with the same bits hash together and compare equal, so they are one.
  Schema schema({{"k", DataType::kDouble}});
  auto op = HashAggregateOperator::Make(schema, {"k"},
                                        {{AggFunc::kCount, "", "n"}},
                                        AggMode::kComplete)
                .ValueOrDie();
  DataChunk chunk(
      {ColumnVector::FromDouble({0.0, -0.0, nan, nan, 0.0, -0.0, nan})});
  auto out = RunLocalPipeline({chunk}, {op.get()}).ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].num_rows(), 3u);
  const std::vector<double>& keys = out[0].column(0).f64();
  EXPECT_TRUE(keys[0] == 0.0 && !std::signbit(keys[0]));
  EXPECT_TRUE(keys[1] == 0.0 && std::signbit(keys[1]));
  EXPECT_TRUE(std::isnan(keys[2]));
  EXPECT_EQ(out[0].column(1).i64(), (std::vector<int64_t>{2, 2, 3}));
}

TEST(AggregateTest, BoundedEvictionsAcrossChunksArePinned) {
  // Budget 4: each eviction emits the oldest two groups, after the rows
  // before the evicting one are accumulated — including rows of the same
  // chunk, and groups whose rows arrived in an earlier chunk.
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  DataChunk first({ColumnVector::FromInt64({1, 2, 3, 1, 4, 5}),
                   ColumnVector::FromInt64({1, 2, 3, 4, 5, 6})});
  DataChunk second({ColumnVector::FromInt64({3, 6, 7, 4}),
                    ColumnVector::FromInt64({7, 8, 9, 10})});
  auto op = HashAggregateOperator::Make(
                schema, {"k"},
                {{AggFunc::kSum, "v", "s"}, {AggFunc::kCount, "", "n"}},
                AggMode::kPartial, /*max_groups=*/4)
                .ValueOrDie();
  auto* agg = static_cast<HashAggregateOperator*>(op.get());
  using Rows = std::vector<std::vector<int64_t>>;  // {k, s, n} per row
  auto rows_of = [](const std::vector<DataChunk>& chunks) {
    std::vector<Rows> got;
    for (const DataChunk& c : chunks) {
      Rows rows;
      for (size_t r = 0; r < c.num_rows(); ++r) {
        rows.push_back({c.column(0).i64()[r], c.column(1).i64()[r],
                        c.column(2).i64()[r]});
      }
      got.push_back(rows);
    }
    return got;
  };
  std::vector<DataChunk> out;
  ASSERT_TRUE(op->Push(first, &out).ok());
  EXPECT_EQ(rows_of(out), (std::vector<Rows>{{{1, 5, 2}, {2, 2, 1}}}));
  out.clear();
  ASSERT_TRUE(op->Push(second, &out).ok());
  EXPECT_EQ(rows_of(out), (std::vector<Rows>{{{3, 10, 2}, {4, 5, 1}}}));
  out.clear();
  ASSERT_TRUE(op->Finish(&out).ok());
  EXPECT_EQ(rows_of(out), (std::vector<Rows>{
                              {{5, 6, 1}, {6, 8, 1}, {7, 9, 1}, {4, 10, 1}}}));
  EXPECT_EQ(agg->partial_flushes(), 2u);
}

TEST(AggregateTest, ConsumingASelectionEqualsGatherThenPush) {
  // Random keys with NULLs, a bounded table so evictions happen mid-chunk,
  // and every aggregate kind: consuming (chunk, selection) must emit the
  // very chunks pushing the gathered rows does.
  Schema schema({{"k", DataType::kString},
                 {"x", DataType::kDouble},
                 {"y", DataType::kInt32}});
  Random rng(11);
  std::vector<std::string> keys;
  std::vector<double> xs;
  std::vector<int32_t> ys;
  for (int r = 0; r < 3000; ++r) {
    keys.push_back(std::to_string(rng.NextInt64(0, 40)));
    xs.push_back(static_cast<double>(rng.NextInt64(-1000, 1000)) / 7.0);
    ys.push_back(static_cast<int32_t>(rng.NextInt64(-50, 50)));
  }
  DataChunk chunk({ColumnVector::FromString(keys), ColumnVector::FromDouble(xs),
                   ColumnVector::FromInt32(ys)});
  SelectionVector sel;
  for (uint32_t r = 0; r < 3000; ++r) {
    if (r % 97 == 0) chunk.column(0).SetNull(r);
    if (r % 89 == 0) chunk.column(1).SetNull(r);
    if (rng.NextInt64(0, 1) == 1) sel.Append(r);
  }
  const std::vector<AggSpec> specs = {{AggFunc::kSum, "x", "sx"},
                                      {AggFunc::kSum, "y", "sy"},
                                      {AggFunc::kMin, "x", "lo"},
                                      {AggFunc::kMax, "k", "hi"},
                                      {AggFunc::kCount, "x", "nx"},
                                      {AggFunc::kCount, "", "n"}};
  auto make = [&] {
    return HashAggregateOperator::Make(schema, {"k"}, specs,
                                       AggMode::kPartial, /*max_groups=*/8)
        .ValueOrDie();
  };
  auto viewed = make();
  std::vector<DataChunk> got;
  ASSERT_TRUE(static_cast<HashAggregateOperator*>(viewed.get())
                  ->Consume(ChunkView::Of(chunk, &sel), &got)
                  .ok());
  ASSERT_TRUE(viewed->Finish(&got).ok());
  auto gathered = make();
  std::vector<DataChunk> want;
  ASSERT_TRUE(gathered->Push(chunk.Gather(sel), &want).ok());
  ASSERT_TRUE(gathered->Finish(&want).ok());
  ASSERT_GT(want.size(), 2u);  // evictions happened
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ChecksumChunk(got[i]), ChecksumChunk(want[i])) << "chunk " << i;
    EXPECT_EQ(got[i].ByteSize(), want[i].ByteSize()) << "chunk " << i;
  }
}

TEST(JoinTest, HashTableInsertAndProbe) {
  Schema build_schema({{"k", DataType::kInt64}, {"payload", DataType::kString}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  DataChunk build;
  build.AddColumn(ColumnVector::FromInt64({1, 2, 2}));
  build.AddColumn(ColumnVector::FromString({"a", "b", "c"}));
  ASSERT_TRUE(table->Insert(build).ok());
  EXPECT_EQ(table->num_rows(), 3u);

  std::vector<uint32_t> probe_rows;
  std::vector<uint32_t> build_rows;
  const ColumnVector probe = ColumnVector::FromInt64({2, 9, 1});
  ASSERT_TRUE(table->Probe(probe, &probe_rows, &build_rows).ok());
  // key 2 matches two build rows, key 9 none, key 1 one.
  EXPECT_EQ(probe_rows, (std::vector<uint32_t>{0, 0, 2}));
  EXPECT_EQ(build_rows, (std::vector<uint32_t>{1, 2, 0}));
  EXPECT_EQ(table->CountMatches(probe).ValueOrDie(), 3u);
}

TEST(JoinTest, CountingThroughASelectionEqualsCountingTheGatheredRows) {
  Random rng(0x5E1ULL);
  Schema build_schema({{"k", DataType::kInt64}});
  JoinHashTable table(build_schema, 0);
  std::vector<int64_t> build_keys(500);
  for (int64_t& k : build_keys) k = rng.NextInt64(0, 200);
  ASSERT_TRUE(
      table.Insert(DataChunk({ColumnVector::FromInt64(build_keys)})).ok());
  std::vector<int64_t> probe_keys(1000);
  for (int64_t& k : probe_keys) k = rng.NextInt64(0, 300);
  ColumnVector probe = ColumnVector::FromInt64(probe_keys);
  for (size_t i = 0; i < probe.size(); i += 7) probe.SetNull(i);
  std::vector<uint64_t> hashes;
  ASSERT_TRUE(HashColumn(probe, &hashes).ok());
  uint64_t total = 0;
  for (uint32_t part = 0; part < 4; ++part) {
    SelectionVector sel;
    for (size_t r = 0; r < probe.size(); ++r) {
      if (hashes[r] % 4 == part) sel.Append(static_cast<uint32_t>(r));
    }
    const uint64_t through =
        table.CountMatches(probe, hashes, &sel).ValueOrDie();
    EXPECT_EQ(through, table.CountMatches(probe.Gather(sel)).ValueOrDie());
    total += through;
  }
  EXPECT_EQ(total, table.CountMatches(probe).ValueOrDie());
  EXPECT_GT(total, 0u);
}

TEST(JoinTest, NullKeysNeverJoin) {
  Schema build_schema({{"k", DataType::kInt64}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  DataChunk build;
  ColumnVector keys = ColumnVector::FromInt64({1, 2});
  keys.SetNull(0);
  build.AddColumn(keys);
  ASSERT_TRUE(table->Insert(build).ok());
  ColumnVector probe = ColumnVector::FromInt64({1, 2});
  probe.SetNull(1);
  std::vector<uint32_t> probe_rows;
  std::vector<uint32_t> build_rows;
  ASSERT_TRUE(table->Probe(probe, &probe_rows, &build_rows).ok());
  EXPECT_TRUE(probe_rows.empty());
  EXPECT_TRUE(build_rows.empty());
  EXPECT_EQ(table->CountMatches(probe).ValueOrDie(), 0u);
}

TEST(JoinTest, ProbeOperatorEmitsJoinedRows) {
  Schema build_schema({{"id", DataType::kInt64}, {"cust", DataType::kString}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  DataChunk build;
  build.AddColumn(ColumnVector::FromInt64({1, 2, 3}));
  build.AddColumn(ColumnVector::FromString({"ann", "bob", "cat"}));
  ASSERT_TRUE(table->Insert(build).ok());

  auto probe_op =
      HashJoinProbeOperator::Make(table, SalesSchema(), 0).ValueOrDie();
  // Output: id, region, amount, b_id, cust.
  EXPECT_EQ(probe_op->output_schema().num_fields(), 5u);
  EXPECT_EQ(probe_op->output_schema().field(3).name, "b_id");
  auto out = RunLocalPipeline({SalesChunk()}, {probe_op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 3u);  // sales ids 1..6, build has 1..3
  DataChunk all = ConcatChunks(out);
  EXPECT_EQ(all.GetValue(0, 4).string_value(), "ann");
}

TEST(JoinTest, BuildOperatorFillsSharedTable) {
  Schema build_schema({{"id", DataType::kInt64}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  auto op = JoinBuildOperator::Make(table).ValueOrDie();
  DataChunk build;
  build.AddColumn(ColumnVector::FromInt64({7, 8}));
  auto out = RunLocalPipeline({build}, {op.get()}).ValueOrDie();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_FALSE(op->traits().streaming);
}

using MatchList = std::vector<std::pair<uint32_t, uint32_t>>;

/// The join rule by brute force: every (probe row, build row) pair whose
/// keys are non-NULL, hash alike and compare equal under Value::Compare, in
/// probe-row order, then build-row order.
MatchList NestedLoopMatches(const ColumnVector& build_keys,
                            const ColumnVector& probe_keys) {
  std::vector<uint64_t> build_hashes;
  std::vector<uint64_t> probe_hashes;
  EXPECT_TRUE(HashColumn(build_keys, &build_hashes).ok());
  EXPECT_TRUE(HashColumn(probe_keys, &probe_hashes).ok());
  MatchList matches;
  for (uint32_t p = 0; p < probe_keys.size(); ++p) {
    if (!probe_keys.IsValid(p)) continue;
    for (uint32_t b = 0; b < build_keys.size(); ++b) {
      if (build_keys.IsValid(b) && build_hashes[b] == probe_hashes[p] &&
          build_keys.GetValue(b).Compare(probe_keys.GetValue(p)) == 0) {
        matches.emplace_back(p, b);
      }
    }
  }
  return matches;
}

/// The table's match list, checked against its own count.
MatchList TableMatches(const JoinHashTable& table,
                       const ColumnVector& probe_keys) {
  std::vector<uint32_t> probe_rows;
  std::vector<uint32_t> build_rows;
  EXPECT_TRUE(table.Probe(probe_keys, &probe_rows, &build_rows).ok());
  EXPECT_EQ(probe_rows.size(), build_rows.size());
  EXPECT_EQ(table.CountMatches(probe_keys).ValueOrDie(), probe_rows.size());
  MatchList matches;
  for (size_t i = 0; i < probe_rows.size(); ++i) {
    matches.emplace_back(probe_rows[i], build_rows[i]);
  }
  return matches;
}

/// A one-column key table holding `keys`, inserted as one chunk.
std::shared_ptr<JoinHashTable> KeyTable(ColumnVector keys) {
  Schema schema({{"k", keys.type()}});
  auto table = std::make_shared<JoinHashTable>(schema, 0);
  EXPECT_TRUE(table->Insert(DataChunk({std::move(keys)})).ok());
  return table;
}

TEST(JoinTest, MatchesEqualANestedLoopReferenceInOrder) {
  // 3500 build rows over ~300 distinct keys, in five inserts: every key
  // repeats across inserts, and the directory grows from 16 slots to 1024.
  Schema schema({{"k", DataType::kInt64}, {"row", DataType::kInt64}});
  JoinHashTable table(schema, 0);
  Random rng(21);
  for (int insert = 0; insert < 5; ++insert) {
    std::vector<int64_t> keys;
    std::vector<int64_t> ids;
    for (int r = 0; r < 700; ++r) {
      keys.push_back(rng.NextInt64(0, 299));
      ids.push_back(insert * 700 + r);
    }
    DataChunk chunk({ColumnVector::FromInt64(std::move(keys))});
    chunk.AddColumn(ColumnVector::FromInt64(std::move(ids)));
    for (size_t r = insert; r < 700; r += 13) chunk.column(0).SetNull(r);
    ASSERT_TRUE(table.Insert(chunk).ok());
  }
  ASSERT_EQ(table.num_rows(), 3500u);
  std::vector<int64_t> probe_keys;
  for (int r = 0; r < 1000; ++r) probe_keys.push_back(rng.NextInt64(0, 349));
  ColumnVector probe = ColumnVector::FromInt64(std::move(probe_keys));
  for (size_t r = 0; r < probe.size(); r += 11) probe.SetNull(r);

  const MatchList want = NestedLoopMatches(table.rows().column(0), probe);
  ASSERT_GT(want.size(), 5000u);  // duplicates on both sides
  EXPECT_EQ(TableMatches(table, probe), want);
}

TEST(JoinTest, StringKeysMatch) {
  auto table = KeyTable(ColumnVector::FromString({"a", "b", "a", "", "ab"}));
  const ColumnVector probe = ColumnVector::FromString({"a", "zz", "", "ab"});
  const MatchList got = TableMatches(*table, probe);
  EXPECT_EQ(got, (MatchList{{0, 0}, {0, 2}, {2, 3}, {3, 4}}));
  EXPECT_EQ(got, NestedLoopMatches(table->rows().column(0), probe));
}

TEST(JoinTest, Int32AndDate32ProbeKeysMatchAnInt64BuildKey) {
  const int64_t big = int64_t{1} << 40;
  auto table = KeyTable(ColumnVector::FromInt64({1, -5, 7, big, 7}));
  for (const ColumnVector& probe :
       {ColumnVector::FromInt32({7, 0, -5, 1}),
        ColumnVector::FromDate32({7, 0, -5, 1})}) {
    const MatchList got = TableMatches(*table, probe);
    EXPECT_EQ(got, (MatchList{{0, 2}, {0, 4}, {2, 1}, {3, 0}}))
        << DataTypeToString(probe.type());
    EXPECT_EQ(got, NestedLoopMatches(table->rows().column(0), probe));
  }
  Schema int32_probe({{"k", DataType::kInt32}});
  EXPECT_TRUE(HashJoinProbeOperator::Make(table, int32_probe, 0).ok());
}

TEST(JoinTest, NanAndNegativeZeroFollowHashThenValueCompare) {
  const double nan = std::nan("");
  // -0.0 and 0.0 compare equal but hash apart, so they never match; NaN
  // compares equal to everything, so it matches exactly the NaNs that hash
  // like it.
  auto table = KeyTable(ColumnVector::FromDouble({0.0, -0.0, nan, 1.0, nan}));
  const ColumnVector probe =
      ColumnVector::FromDouble({-0.0, 0.0, nan, 1.0, 2.0});
  const MatchList got = TableMatches(*table, probe);
  EXPECT_EQ(got, (MatchList{{0, 1}, {1, 0}, {2, 2}, {2, 4}, {3, 3}}));
  EXPECT_EQ(got, NestedLoopMatches(table->rows().column(0), probe));
}

TEST(JoinTest, KeyTypesThatCanNeverMatchAreRejected) {
  EXPECT_TRUE(CheckJoinKeyTypes(DataType::kInt64, DataType::kInt64).ok());
  EXPECT_TRUE(CheckJoinKeyTypes(DataType::kInt64, DataType::kInt32).ok());
  EXPECT_TRUE(CheckJoinKeyTypes(DataType::kDate32, DataType::kInt32).ok());
  EXPECT_TRUE(CheckJoinKeyTypes(DataType::kString, DataType::kString).ok());
  EXPECT_TRUE(CheckJoinKeyTypes(DataType::kDouble, DataType::kDouble).ok());
  auto table = KeyTable(ColumnVector::FromInt64({1, 2}));
  for (DataType probe_type :
       {DataType::kString, DataType::kDouble, DataType::kBool}) {
    EXPECT_EQ(CheckJoinKeyTypes(DataType::kInt64, probe_type).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(CheckJoinKeyTypes(probe_type, DataType::kInt64).code(),
              StatusCode::kInvalidArgument);
    Schema probe_schema({{"k", probe_type}});
    auto op = HashJoinProbeOperator::Make(table, probe_schema, 0);
    EXPECT_EQ(op.status().code(), StatusCode::kInvalidArgument)
        << DataTypeToString(probe_type);
  }
  auto count = table->CountMatches(ColumnVector::FromString({"1"}));
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinTest, ProbeOutputEqualsAPerValueAppendFromReference) {
  // Build rows: key, a STRING payload, and an INT32 column whose NULLs sit
  // only on rows no probe key reaches.
  Schema build_schema({{"id", DataType::kInt64},
                       {"cust", DataType::kString},
                       {"w", DataType::kInt32}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  for (int insert = 0; insert < 2; ++insert) {
    std::vector<int64_t> ids;
    std::vector<std::string> names;
    std::vector<int32_t> ws;
    for (int r = 0; r < 40; ++r) {
      ids.push_back(r % 25);  // keys 20..24 are never probed
      names.push_back("c" + std::to_string(insert * 40 + r));
      ws.push_back(r);
    }
    DataChunk chunk({ColumnVector::FromInt64(std::move(ids))});
    chunk.AddColumn(ColumnVector::FromString(std::move(names)));
    chunk.AddColumn(ColumnVector::FromInt32(std::move(ws)));
    chunk.column(1).SetNull(3);  // keeps its text in the storage slot
    for (int r = 20; r < 25; ++r) chunk.column(2).SetNull(r);
    ASSERT_TRUE(table->Insert(chunk).ok());
  }
  // 1500 probe rows over keys 0..19, some NULL: > 2048 matches, so the
  // output spans several chunks.
  DataChunk probe;
  std::vector<int64_t> keys;
  std::vector<double> amounts;
  for (int r = 0; r < 1500; ++r) {
    keys.push_back(r % 20);
    amounts.push_back(r * 0.5);
  }
  probe.AddColumn(ColumnVector::FromInt64(std::move(keys)));
  probe.AddColumn(ColumnVector::FromDouble(std::move(amounts)));
  probe.column(0).SetNull(7);
  probe.column(1).SetNull(9);
  Schema probe_schema(
      {{"id", DataType::kInt64}, {"amount", DataType::kDouble}});

  auto op = HashJoinProbeOperator::Make(table, probe_schema, 0).ValueOrDie();
  std::vector<DataChunk> got;
  ASSERT_TRUE(op->Push(probe, &got).ok());

  std::vector<uint32_t> probe_rows;
  std::vector<uint32_t> build_rows;
  ASSERT_TRUE(table->Probe(probe.column(0), &probe_rows, &build_rows).ok());
  ASSERT_GT(probe_rows.size(), kVectorSize);
  std::vector<DataChunk> want;
  for (size_t start = 0; start < probe_rows.size(); start += kVectorSize) {
    const size_t count = std::min(kVectorSize, probe_rows.size() - start);
    DataChunk chunk = DataChunk::EmptyFromSchema(op->output_schema());
    for (size_t i = start; i < start + count; ++i) {
      for (size_t c = 0; c < probe.num_columns(); ++c) {
        chunk.column(c).AppendFrom(probe.column(c), probe_rows[i]);
      }
      for (size_t c = 0; c < build_schema.num_fields(); ++c) {
        chunk.column(probe.num_columns() + c)
            .AppendFrom(table->rows().column(c), build_rows[i]);
      }
    }
    want.push_back(std::move(chunk));
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ChecksumChunk(got[i]), ChecksumChunk(want[i])) << "chunk " << i;
    EXPECT_EQ(got[i].ByteSize(), want[i].ByteSize()) << "chunk " << i;
    // `w` has NULLs in the table but none among the gathered rows.
    EXPECT_FALSE(got[i].column(4).HasNulls()) << "chunk " << i;
  }
}

TEST(PartitionTest, HashesFollowEachPartitionsRows) {
  HashPartitioner part(0, 3);
  DataChunk chunk = SalesChunk();
  chunk.column(0).SetNull(2);
  std::vector<DataChunk> outs;
  std::vector<std::vector<uint64_t>> hashes;
  ASSERT_TRUE(part.Split(chunk, &outs, &hashes).ok());
  ASSERT_EQ(hashes.size(), 3u);
  for (size_t p = 0; p < outs.size(); ++p) {
    std::vector<uint64_t> want;
    ASSERT_TRUE(HashColumn(outs[p].column(0), &want).ok());
    EXPECT_EQ(hashes[p], want) << "partition " << p;
  }
}

TEST(PartitionTest, SplitsAllRowsDisjointly) {
  HashPartitioner part(0, 4);
  std::vector<DataChunk> outs;
  ASSERT_TRUE(part.Split(SalesChunk(), &outs).ok());
  ASSERT_EQ(outs.size(), 4u);
  size_t total = 0;
  for (const DataChunk& c : outs) total += c.num_rows();
  EXPECT_EQ(total, 6u);
}

TEST(PartitionTest, SameKeySamePartition) {
  // Determinism across separately-constructed partitioners (NIC vs CPU).
  HashPartitioner a(0, 8), b(0, 8);
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({42, 42, 42}));
  std::vector<DataChunk> outs_a, outs_b;
  ASSERT_TRUE(a.Split(chunk, &outs_a).ok());
  ASSERT_TRUE(b.Split(chunk, &outs_b).ok());
  for (size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(outs_a[p].num_rows(), outs_b[p].num_rows());
  }
}

TEST(PartitionTest, RoughlyBalancedOnUniformKeys) {
  Random rng(11);
  std::vector<int64_t> keys(20000);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Next());
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64(keys));
  HashPartitioner part(0, 4);
  std::vector<DataChunk> outs;
  ASSERT_TRUE(part.Split(chunk, &outs).ok());
  for (const DataChunk& c : outs) {
    EXPECT_GT(c.num_rows(), 4000u);
    EXPECT_LT(c.num_rows(), 6000u);
  }
}

TEST(CountOperatorTest, CountsAndDiscards) {
  CountOperator op;
  std::vector<DataChunk> out;
  ASSERT_TRUE(op.Push(SalesChunk(), &out).ok());
  ASSERT_TRUE(op.Push(SalesChunk(), &out).ok());
  EXPECT_TRUE(out.empty());  // nothing flows until Finish
  ASSERT_TRUE(op.Finish(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 12);
  EXPECT_TRUE(op.traits().bounded_state);
}

TEST(LimitOperatorTest, CutsAtLimit) {
  LimitOperator op(SalesSchema(), 4);
  auto out = RunLocalPipeline({SalesChunk(), SalesChunk()}, {&op}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 4u);
}

TEST(SortOperatorTest, SortsAscendingAndDescending) {
  auto asc = SortOperator::Make(SalesSchema(), "amount").ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {asc.get()}).ValueOrDie();
  DataChunk all = ConcatChunks(out);
  EXPECT_DOUBLE_EQ(all.GetValue(0, 2).double_value(), 10.0);
  EXPECT_DOUBLE_EQ(all.GetValue(5, 2).double_value(), 60.0);

  auto desc =
      SortOperator::Make(SalesSchema(), "amount", /*descending=*/true)
          .ValueOrDie();
  out = RunLocalPipeline({SalesChunk()}, {desc.get()}).ValueOrDie();
  all = ConcatChunks(out);
  EXPECT_DOUBLE_EQ(all.GetValue(0, 2).double_value(), 60.0);
}

TEST(SortOperatorTest, TopNLimit) {
  auto op = SortOperator::Make(SalesSchema(), "amount", true, 2).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 2u);
  EXPECT_FALSE(op->traits().streaming);
}

TEST(SortOperatorTest, LimitKeepsTheFirstNOfTheStableSort) {
  // Many ties and some NULL keys over several chunks: the top-n buffer must
  // emit exactly the first n rows of the full stable sort, validity mask
  // included.
  Schema schema({{"key", DataType::kInt64}, {"arrival", DataType::kInt64}});
  Random rng(5);
  std::vector<DataChunk> input;
  int64_t arrival = 0;
  for (int c = 0; c < 6; ++c) {
    std::vector<int64_t> keys, arrivals;
    for (size_t r = 0; r < kVectorSize; ++r) {
      keys.push_back(rng.NextInt64(0, 30));
      arrivals.push_back(arrival++);
    }
    DataChunk chunk({ColumnVector::FromInt64(keys),
                     ColumnVector::FromInt64(arrivals)});
    if (c == 4) chunk.column(0).SetNull(7);
    input.push_back(std::move(chunk));
  }
  for (bool descending : {false, true}) {
    for (uint64_t limit : {1u, 10u, 3000u}) {
      SCOPED_TRACE(std::to_string(limit) + (descending ? " desc" : " asc"));
      auto full = SortOperator::Make(schema, "key", descending).ValueOrDie();
      auto top =
          SortOperator::Make(schema, "key", descending, limit).ValueOrDie();
      auto sorted = RunLocalPipeline(input, {full.get()}).ValueOrDie();
      auto got = RunLocalPipeline(input, {top.get()}).ValueOrDie();
      // Both emit kVectorSize-row chunks from the front of the order.
      ASSERT_EQ(got.size(), (limit + kVectorSize - 1) / kVectorSize);
      for (size_t i = 0; i < got.size(); ++i) {
        std::vector<uint32_t> rows(got[i].num_rows());
        std::iota(rows.begin(), rows.end(), 0);
        DataChunk want = sorted[i].Gather(SelectionVector(std::move(rows)));
        EXPECT_EQ(ChecksumChunk(got[i]), ChecksumChunk(want)) << i;
        EXPECT_EQ(got[i].ByteSize(), want.ByteSize()) << i;  // NULL mask too
      }
    }
  }
}

TEST(EncodeOperatorTest, WireBytesShrinkOnCompressibleData) {
  Schema schema({{"flag", DataType::kString}});
  EncodeOperator op(schema);
  DataChunk chunk;
  std::vector<std::string> flags(2000, "RETURN");
  chunk.AddColumn(ColumnVector::FromString(std::move(flags)));
  EXPECT_LT(op.OutputWireBytes(chunk), chunk.ByteSize() / 2);
}

TEST(DecodeOperatorTest, IdentityOnData) {
  DecodeOperator op(SalesSchema());
  auto out = RunLocalPipeline({SalesChunk()}, {&op}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 6u);
  EXPECT_EQ(op.OutputWireBytes(out[0]), out[0].ByteSize());
}

TEST(LocalExecutorTest, ChainsOperators) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kGe, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(30.0))),
                       SalesSchema());
  auto filter = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  CountOperator count;
  auto out =
      RunLocalPipeline({SalesChunk()}, {filter.get(), &count}).ValueOrDie();
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 4);
}

}  // namespace
}  // namespace dflow
