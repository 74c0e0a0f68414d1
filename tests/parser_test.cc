#include <gtest/gtest.h>

#include "dflow/engine/engine.h"
#include "dflow/exec/local_executor.h"
#include "dflow/plan/parser.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

TEST(ParserTest, SelectStar) {
  auto spec = ParseQuery("SELECT * FROM lineitem").ValueOrDie();
  EXPECT_EQ(spec.table, "lineitem");
  EXPECT_TRUE(spec.projections.empty());
  EXPECT_TRUE(spec.aggregates.empty());
  EXPECT_EQ(spec.filter, nullptr);
}

TEST(ParserTest, ProjectionWithAliases) {
  auto spec =
      ParseQuery("SELECT a, b * 2 AS doubled, c FROM t").ValueOrDie();
  ASSERT_EQ(spec.projections.size(), 3u);
  EXPECT_EQ(spec.projection_names[0], "a");
  EXPECT_EQ(spec.projection_names[1], "doubled");
  EXPECT_EQ(spec.projections[1]->kind(), Expr::Kind::kArith);
}

TEST(ParserTest, WherePredicates) {
  auto spec = ParseQuery(
                  "SELECT * FROM t WHERE a < 5 AND b = 'x' OR NOT c >= 1.5")
                  .ValueOrDie();
  ASSERT_NE(spec.filter, nullptr);
  EXPECT_EQ(spec.filter->kind(), Expr::Kind::kOr);
  EXPECT_EQ(spec.filter->ToString(),
            "(((a < 5) AND (b = x)) OR NOT (c >= 1.5))");
}

TEST(ParserTest, LikeAndBetween) {
  auto spec = ParseQuery(
                  "SELECT * FROM t WHERE name LIKE '%x%' "
                  "AND d BETWEEN 10 AND 20")
                  .ValueOrDie();
  EXPECT_EQ(spec.filter->ToString(),
            "((name LIKE '%x%') AND ((d >= 10) AND (d <= 20)))");
}

TEST(ParserTest, StringEscapes) {
  auto expr = ParseExpression("s = 'it''s'").ValueOrDie();
  EXPECT_EQ(expr->children()[1]->value().string_value(), "it's");
}

TEST(ParserTest, DateLiteral) {
  auto expr = ParseExpression("d < DATE 8400").ValueOrDie();
  EXPECT_EQ(expr->children()[1]->value().type(), DataType::kDate32);
  EXPECT_EQ(expr->children()[1]->value().date32_value(), 8400);
}

TEST(ParserTest, BoolLiteralsAndUnaryMinus) {
  auto t = ParseExpression("TRUE").ValueOrDie();
  EXPECT_TRUE(t->value().bool_value());
  auto neg = ParseExpression("a > -3").ValueOrDie();
  EXPECT_EQ(neg->ToString(), "(a > (0 - 3))");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto expr = ParseExpression("a + b * c - d / 2").ValueOrDie();
  EXPECT_EQ(expr->ToString(), "((a + (b * c)) - (d / 2))");
  auto parens = ParseExpression("(a + b) * c").ValueOrDie();
  EXPECT_EQ(parens->ToString(), "((a + b) * c)");
}

// Hostile nesting is an InvalidArgument, not a stack overflow: 5,000
// nested parentheses, NOT or unary-minus chains, and an arithmetic chain
// whose (left-deep) tree would be 5,000 levels tall. Nesting a little
// under the cap still parses.
TEST(ParserTest, DeepNestingIsRejectedNotACrash) {
  const size_t kDeep = 5000;
  const std::string parens = "SELECT * FROM t WHERE " +
                             std::string(kDeep, '(') + "a = 1" +
                             std::string(kDeep, ')');
  std::string nots = "SELECT * FROM t WHERE ";
  std::string minus = "SELECT * FROM t WHERE a = ";
  std::string chain = "SELECT * FROM t WHERE a";
  for (size_t i = 0; i < kDeep; ++i) {
    nots += "NOT ";
    minus += "- ";
    chain += " + a";
  }
  nots += "a = 1";
  minus += "1";
  chain += " = 1";
  for (const std::string& sql : {parens, nots, minus, chain}) {
    auto r = ParseQuery(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("nested deeper than"),
              std::string::npos)
        << r.status().message();
  }

  const size_t kFine = 200;
  std::string sum = "a";
  for (size_t i = 0; i < kFine; ++i) sum += " + a";
  EXPECT_TRUE(ParseQuery("SELECT * FROM t WHERE " + std::string(kFine, '(') +
                         "a = 1" + std::string(kFine, ')'))
                  .ok());
  EXPECT_TRUE(ParseQuery("SELECT * FROM t WHERE " + sum + " = 1").ok());
}

TEST(ParserTest, GroupByAggregates) {
  auto spec = ParseQuery(
                  "SELECT flag, SUM(qty) AS total, COUNT(*) AS n, MIN(d), "
                  "MAX(d) FROM t GROUP BY flag")
                  .ValueOrDie();
  EXPECT_EQ(spec.group_by, (std::vector<std::string>{"flag"}));
  ASSERT_EQ(spec.aggregates.size(), 4u);
  EXPECT_EQ(spec.aggregates[0].func, AggFunc::kSum);
  EXPECT_EQ(spec.aggregates[0].output_name, "total");
  EXPECT_EQ(spec.aggregates[1].input, "");
  EXPECT_EQ(spec.aggregates[2].output_name, "min_d");
}

TEST(ParserTest, CountStarFastPath) {
  auto spec = ParseQuery("SELECT COUNT(*) FROM t WHERE a > 1").ValueOrDie();
  EXPECT_TRUE(spec.count_only);
  EXPECT_TRUE(spec.aggregates.empty());
}

TEST(ParserTest, CountColumnIsNotFastPath) {
  auto spec = ParseQuery("SELECT COUNT(a) FROM t").ValueOrDie();
  EXPECT_FALSE(spec.count_only);
  ASSERT_EQ(spec.aggregates.size(), 1u);
  EXPECT_EQ(spec.aggregates[0].input, "a");
}

TEST(ParserTest, OrderByAndLimit) {
  auto spec =
      ParseQuery("SELECT * FROM t ORDER BY price DESC LIMIT 10").ValueOrDie();
  ASSERT_TRUE(spec.order_by.has_value());
  EXPECT_EQ(spec.order_by->column, "price");
  EXPECT_TRUE(spec.order_by->descending);
  EXPECT_EQ(spec.order_by->limit, 10u);
  EXPECT_EQ(spec.limit, 0u);  // folded into the sort

  auto plain = ParseQuery("SELECT * FROM t LIMIT 7").ValueOrDie();
  EXPECT_EQ(plain.limit, 7u);
}

struct BadQuery {
  const char* sql;
};

class ParserErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ParserErrorTest, Rejected) {
  auto result = ParseQuery(GetParam().sql);
  EXPECT_FALSE(result.ok()) << GetParam().sql;
}

INSTANTIATE_TEST_SUITE_P(
    Errors, ParserErrorTest,
    ::testing::Values(
        BadQuery{"SELECT FROM t"}, BadQuery{"SELECT * FROM"},
        BadQuery{"SELECT * WHERE a = 1"},
        BadQuery{"SELECT * FROM t WHERE"},
        BadQuery{"SELECT * FROM t WHERE a <"},
        BadQuery{"SELECT * FROM t LIMIT 0"},
        BadQuery{"SELECT * FROM t LIMIT -1"},
        BadQuery{"SELECT a, SUM(b) FROM t"},  // a not grouped
        BadQuery{"SELECT SUM(*) FROM t"},
        BadQuery{"SELECT * FROM t WHERE name LIKE 5"},
        BadQuery{"SELECT * FROM t WHERE 'unterminated"},
        BadQuery{"SELECT * FROM t extra"},
        BadQuery{"SELECT * FROM t WHERE a ! b"}));

TEST(ParserTest, AvgGivesActionableError) {
  auto result = ParseQuery("SELECT AVG(x) FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotImplemented());
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  auto spec = ParseQuery("select a from t where a like 'x%'").ValueOrDie();
  EXPECT_EQ(spec.table, "t");
  EXPECT_EQ(spec.projection_names[0], "a");
}

// End-to-end: a parsed query runs on the engine and matches the
// hand-constructed spec.
TEST(ParserTest, ParsedQueryExecutes) {
  Engine engine;
  LineitemSpec li;
  li.rows = 5'000;
  DFLOW_CHECK(
      engine.catalog().Register(MakeLineitemTable(li).ValueOrDie()).ok());

  auto spec = ParseQuery(
                  "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n "
                  "FROM lineitem "
                  "WHERE l_shipdate < DATE 9000 AND l_discount <= 0.05 "
                  "GROUP BY l_returnflag")
                  .ValueOrDie();
  auto result = engine.Execute(spec).ValueOrDie();
  DataChunk rows = ConcatChunks(result.chunks);
  EXPECT_EQ(rows.num_rows(), 3u);  // A, N, R

  // Cross-check the total count against a COUNT(*) of the same predicate.
  auto count_spec = ParseQuery(
                        "SELECT COUNT(*) FROM lineitem WHERE "
                        "l_shipdate < DATE 9000 AND l_discount <= 0.05")
                        .ValueOrDie();
  auto count = engine.Execute(count_spec).ValueOrDie();
  int64_t grouped_total = 0;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    grouped_total += rows.GetValue(r, 2).int64_value();
  }
  EXPECT_EQ(grouped_total, count.chunks[0].GetValue(0, 0).int64_value());
}

}  // namespace
}  // namespace dflow
