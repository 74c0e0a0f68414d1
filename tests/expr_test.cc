#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dflow/common/random.h"
#include "dflow/plan/expr.h"

namespace dflow {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"name", DataType::kString},
                 {"qty", DataType::kInt64}});
}

DataChunk TestChunk() {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3, 4}));
  chunk.AddColumn(ColumnVector::FromDouble({10.0, 20.0, 30.0, 40.0}));
  chunk.AddColumn(
      ColumnVector::FromString({"apple", "banana", "avocado", "plum"}));
  chunk.AddColumn(ColumnVector::FromInt64({5, 6, 7, 8}));
  return chunk;
}

ExprPtr MustResolve(ExprPtr e, const Schema& schema) {
  auto r = Expr::Resolve(e, schema);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ValueOrDie();
}

TEST(ExprTest, ResolveColumnByName) {
  auto e = MustResolve(Expr::Col("price"), TestSchema());
  EXPECT_TRUE(e->is_resolved());
  EXPECT_EQ(e->column_index(), 1u);
}

TEST(ExprTest, ResolveUnknownNameFails) {
  EXPECT_TRUE(
      Expr::Resolve(Expr::Col("nope"), TestSchema()).status().IsNotFound());
}

TEST(ExprTest, UnresolvedEvaluationFails) {
  EXPECT_FALSE(Expr::Col("id")->Evaluate(TestChunk()).ok());
}

TEST(ExprTest, EvaluateColumnRef) {
  auto e = MustResolve(Expr::Col("id"), TestSchema());
  auto col = e->Evaluate(TestChunk()).ValueOrDie();
  EXPECT_EQ(col.i64()[2], 3);
}

TEST(ExprTest, EvaluateLiteralBroadcasts) {
  auto col = Expr::Lit(Value::Int64(9))->Evaluate(TestChunk()).ValueOrDie();
  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col.i64()[3], 9);
}

TEST(ExprTest, ArithColumnConstant) {
  auto e = MustResolve(
      Expr::Arith(ArithOp::kMul, Expr::Col("price"), Expr::Lit(Value::Double(2.0))),
      TestSchema());
  auto col = e->Evaluate(TestChunk()).ValueOrDie();
  EXPECT_DOUBLE_EQ(col.f64()[1], 40.0);
}

TEST(ExprTest, ArithColumnColumn) {
  auto e = MustResolve(Expr::Arith(ArithOp::kAdd, Expr::Col("id"),
                                   Expr::Col("qty")),
                       TestSchema());
  auto col = e->Evaluate(TestChunk()).ValueOrDie();
  EXPECT_EQ(col.i64()[0], 6);
  EXPECT_EQ(col.type(), DataType::kInt64);
}

TEST(ExprTest, NestedArithTypePromotion) {
  // (id + qty) * price -> double
  auto e = MustResolve(
      Expr::Arith(ArithOp::kMul,
                  Expr::Arith(ArithOp::kAdd, Expr::Col("id"), Expr::Col("qty")),
                  Expr::Col("price")),
      TestSchema());
  EXPECT_EQ(e->OutputType(TestSchema()).ValueOrDie(), DataType::kDouble);
  auto col = e->Evaluate(TestChunk()).ValueOrDie();
  EXPECT_DOUBLE_EQ(col.f64()[0], 60.0);
}

TEST(ExprTest, ComparePredicate) {
  auto e = MustResolve(
      Expr::Cmp(CompareOp::kGt, Expr::Col("price"), Expr::Lit(Value::Double(15.0))),
      TestSchema());
  Mask mask;
  ASSERT_TRUE(e->EvaluatePredicate(TestChunk(), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 1, 1}));
}

TEST(ExprTest, CompareColumns) {
  auto e = MustResolve(Expr::Cmp(CompareOp::kLt, Expr::Col("id"),
                                 Expr::Col("qty")),
                       TestSchema());
  Mask mask;
  ASSERT_TRUE(e->EvaluatePredicate(TestChunk(), &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 1, 1, 1}));
}

TEST(ExprTest, LikePredicate) {
  auto e = MustResolve(Expr::Like(Expr::Col("name"), "a%"), TestSchema());
  Mask mask;
  ASSERT_TRUE(e->EvaluatePredicate(TestChunk(), &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 1, 0}));
}

TEST(ExprTest, AndOrNot) {
  auto gt1 = Expr::Cmp(CompareOp::kGt, Expr::Col("id"), Expr::Lit(Value::Int64(1)));
  auto lt4 = Expr::Cmp(CompareOp::kLt, Expr::Col("id"), Expr::Lit(Value::Int64(4)));
  auto e = MustResolve(Expr::And({gt1, lt4}), TestSchema());
  Mask mask;
  ASSERT_TRUE(e->EvaluatePredicate(TestChunk(), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 1, 0}));

  auto o = MustResolve(Expr::Or({gt1, lt4}), TestSchema());
  ASSERT_TRUE(o->EvaluatePredicate(TestChunk(), &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 1, 1, 1}));

  auto n = MustResolve(Expr::Not(gt1), TestSchema());
  ASSERT_TRUE(n->EvaluatePredicate(TestChunk(), &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 0, 0}));
}

TEST(ExprTest, BetweenHelper) {
  auto e = MustResolve(Between("id", Value::Int64(2), Value::Int64(4)),
                       TestSchema());
  Mask mask;
  ASSERT_TRUE(e->EvaluatePredicate(TestChunk(), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 1, 0}));
}

TEST(ExprTest, IsColumnConstantCompare) {
  auto simple =
      Expr::Cmp(CompareOp::kEq, Expr::Col("id"), Expr::Lit(Value::Int64(1)));
  EXPECT_TRUE(simple->IsColumnConstantCompare());
  auto colcol = Expr::Cmp(CompareOp::kEq, Expr::Col("id"), Expr::Col("qty"));
  EXPECT_FALSE(colcol->IsColumnConstantCompare());
}

TEST(ExprTest, CollectColumnIndices) {
  auto e = MustResolve(
      Expr::And({Expr::Cmp(CompareOp::kGt, Expr::Col("price"),
                           Expr::Lit(Value::Double(1.0))),
                 Expr::Like(Expr::Col("name"), "%x%")}),
      TestSchema());
  std::vector<size_t> cols;
  e->CollectColumnIndices(&cols);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_EQ(cols[1], 2u);
}

TEST(ExprTest, PredicateTyping) {
  EXPECT_TRUE(Expr::Like(Expr::Col("name"), "%")->IsPredicate());
  EXPECT_FALSE(Expr::Arith(ArithOp::kAdd, Expr::Col("id"),
                           Expr::Lit(Value::Int64(1)))
                   ->IsPredicate());
}

TEST(ExprTest, ToStringReadable) {
  auto e = Expr::Cmp(CompareOp::kGe, Expr::Col("qty"), Expr::Lit(Value::Int64(3)));
  EXPECT_EQ(e->ToString(), "(qty >= 3)");
  auto l = Expr::Like(Expr::Col("name"), "ab%");
  EXPECT_EQ(l->ToString(), "(name LIKE 'ab%')");
}

TEST(ExprTest, EvaluatePredicateAsBoolColumn) {
  auto e = MustResolve(
      Expr::Cmp(CompareOp::kEq, Expr::Col("id"), Expr::Lit(Value::Int64(2))),
      TestSchema());
  auto col = e->Evaluate(TestChunk()).ValueOrDie();
  EXPECT_EQ(col.type(), DataType::kBool);
  EXPECT_EQ(col.bool_data()[1], 1);
  EXPECT_EQ(col.bool_data()[0], 0);
}

// ------------------------------------------------ AND narrows its rows

// The mask with every conjunct evaluated over the whole chunk and combined
// afterwards: what an AND meant before it narrowed.
Status WholeChunkMask(const Expr& e, const DataChunk& chunk, Mask* mask) {
  if (e.kind() != Expr::Kind::kAnd && e.kind() != Expr::Kind::kOr &&
      e.kind() != Expr::Kind::kNot) {
    return e.EvaluatePredicate(chunk, mask);
  }
  DFLOW_RETURN_NOT_OK(WholeChunkMask(*e.children()[0], chunk, mask));
  if (e.kind() == Expr::Kind::kNot) {
    NotMask(mask);
    return Status::OK();
  }
  for (size_t i = 1; i < e.children().size(); ++i) {
    Mask other;
    DFLOW_RETURN_NOT_OK(WholeChunkMask(*e.children()[i], chunk, &other));
    if (e.kind() == Expr::Kind::kAnd) {
      AndMasks(other, mask);
    } else {
      OrMasks(other, mask);
    }
  }
  return Status::OK();
}

Schema NarrowSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"d", DataType::kDate32},
                 {"s", DataType::kString},
                 {"b", DataType::kBool}});
}

DataChunk NarrowChunk(Random* rng, size_t rows) {
  std::vector<int64_t> k(rows);
  std::vector<int32_t> d(rows);
  std::vector<std::string> s(rows);
  std::vector<uint8_t> b(rows);
  const char* kWords[] = {"special", "requests", "pending", "", "spec"};
  for (size_t i = 0; i < rows; ++i) {
    k[i] = rng->NextInt64(0, 20);
    d[i] = static_cast<int32_t>(rng->NextInt64(0, 20));
    s[i] = std::string(kWords[rng->NextUint64(5)]) + kWords[rng->NextUint64(5)];
    b[i] = rng->NextBool() ? 1 : 0;
  }
  DataChunk chunk({ColumnVector::FromInt64(k), ColumnVector::FromDate32(d),
                   ColumnVector::FromString(s), ColumnVector::FromBool(b)});
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    for (size_t i = 0; i < rows; ++i) {
      if (rng->NextBool(0.15)) chunk.column(c).SetNull(i);
    }
  }
  return chunk;
}

ExprPtr RandomPredicate(Random* rng, int depth) {
  const uint64_t pick = depth <= 0 ? rng->NextUint64(5) : rng->NextUint64(8);
  const auto op = static_cast<CompareOp>(rng->NextUint64(6));
  switch (pick) {
    case 0:
      return Expr::Cmp(op, Expr::Col("k"),
                       Expr::Lit(Value::Int64(rng->NextInt64(0, 20))));
    case 1:
      return Expr::Cmp(op, Expr::Col("d"),
                       Expr::Lit(Value::Date32(
                           static_cast<int32_t>(rng->NextInt64(0, 20)))));
    case 2: {
      const char* kPatterns[] = {"%special%", "spec%", "%requests", "_pec%",
                                 "%"};
      return Expr::Like(Expr::Col("s"), kPatterns[rng->NextUint64(5)]);
    }
    case 3:
      return Expr::Cmp(op, Expr::Col("k"),
                       Expr::Arith(ArithOp::kAdd, Expr::Col("d"),
                                   Expr::Lit(Value::Int64(3))));
    case 4:
      return rng->NextBool() ? Expr::Col("b")
                             : Expr::Lit(Value::Bool(rng->NextBool(0.8)));
    case 5:
      return Expr::Not(RandomPredicate(rng, depth - 1));
    case 6:
      return Expr::Or(
          {RandomPredicate(rng, depth - 1), RandomPredicate(rng, depth - 1)});
    default: {
      std::vector<ExprPtr> conjuncts;
      const size_t n = 2 + rng->NextUint64(3);
      for (size_t i = 0; i < n; ++i) {
        conjuncts.push_back(RandomPredicate(rng, depth - 1));
      }
      return Expr::And(std::move(conjuncts));
    }
  }
}

TEST(ExprNarrowingTest, AndMaskEqualsTheWholeChunkAnd) {
  Random rng(0xA4D5ULL);
  const Schema schema = NarrowSchema();
  size_t ands = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const DataChunk chunk = NarrowChunk(&rng, 1 + rng.NextUint64(300));
    ExprPtr e = RandomPredicate(&rng, 3);
    if (trial % 2 == 0) {  // always some AND at the root, and NOT over AND
      e = Expr::And({e, RandomPredicate(&rng, 2)});
      if (trial % 4 == 0) e = Expr::Not(e);
    }
    ands += e->ToString().find(" AND ") != std::string::npos;
    const ExprPtr resolved = MustResolve(e, schema);
    Mask got, want;
    const Status got_st = resolved->EvaluatePredicate(chunk, &got);
    const Status want_st = WholeChunkMask(*resolved, chunk, &want);
    ASSERT_EQ(got_st.ok(), want_st.ok()) << resolved->ToString();
    if (!got_st.ok()) {
      EXPECT_EQ(got_st.ToString(), want_st.ToString());
      continue;
    }
    ASSERT_EQ(got, want) << resolved->ToString();
    // The predicate as a BOOL column over a selection agrees too (a bare
    // column or literal evaluates to itself, not to a mask).
    if (resolved->kind() == Expr::Kind::kColumnRef ||
        resolved->kind() == Expr::Kind::kLiteral) {
      continue;
    }
    SelectionVector odd;
    for (size_t r = 1; r < chunk.num_rows(); r += 2) {
      odd.Append(static_cast<uint32_t>(r));
    }
    auto col = resolved->Evaluate(chunk, &odd);
    ASSERT_TRUE(col.ok());
    for (size_t i = 0; i < odd.size(); ++i) {
      ASSERT_EQ(col.ValueOrDie().bool_data()[i], want[odd[i]])
          << resolved->ToString() << " row " << odd[i];
    }
  }
  EXPECT_GT(ands, 200u);
}

TEST(ExprNarrowingTest, ARejectedConjunctStillTypeChecks) {
  const Schema schema = NarrowSchema();
  Random rng(7);
  const DataChunk chunk = NarrowChunk(&rng, 50);
  // The first conjunct keeps no row; the LIKE on an INT64 column still
  // fails, with the error a whole-chunk AND gives.
  const ExprPtr none_kept = MustResolve(
      Expr::And({Expr::Cmp(CompareOp::kLt, Expr::Col("k"),
                           Expr::Lit(Value::Int64(-100))),
                 Expr::Like(Expr::Col("k"), "%1%")}),
      schema);
  Mask mask;
  const Status st = none_kept->EvaluatePredicate(chunk, &mask);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(st.message(), "LIKE requires a string column");
  // Two failing conjuncts: the cheaper one runs first, but the error is
  // the one the first conjunct in written order gives.
  const ExprPtr two_bad = MustResolve(
      Expr::And({Expr::Like(Expr::Col("k"), "%"),
                 Expr::Cmp(CompareOp::kEq, Expr::Col("s"),
                           Expr::Lit(Value::Int64(1)))}),
      schema);
  Mask want;
  const Status want_st = WholeChunkMask(*two_bad, chunk, &want);
  const Status got_st = two_bad->EvaluatePredicate(chunk, &mask);
  ASSERT_FALSE(got_st.ok());
  EXPECT_EQ(got_st.ToString(), want_st.ToString());
  EXPECT_EQ(got_st.message(), "LIKE requires a string column");
}

TEST(ExprNarrowingTest, ConjunctOrderLeavesTheTextAlone) {
  const ExprPtr e = Expr::And(
      {Expr::Like(Expr::Col("s"), "%special%"),
       Expr::Cmp(CompareOp::kLt, Expr::Col("d"), Expr::Lit(Value::Date32(5)))});
  const std::string before = e->ToString();
  const ExprPtr resolved = MustResolve(e, NarrowSchema());
  Random rng(3);
  Mask mask;
  ASSERT_TRUE(resolved->EvaluatePredicate(NarrowChunk(&rng, 10), &mask).ok());
  EXPECT_EQ(e->ToString(), before);
  EXPECT_EQ(before, "((s LIKE '%special%') AND (d < date(5)))");
}

}  // namespace
}  // namespace dflow
