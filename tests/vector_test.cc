#include <gtest/gtest.h>

#include <sstream>

#include "dflow/common/random.h"
#include "dflow/common/string_util.h"
#include "dflow/vector/column_vector.h"
#include "dflow/vector/data_chunk.h"
#include "dflow/vector/kernels.h"

namespace dflow {
namespace {

TEST(ColumnVectorTest, TypedFactoriesRoundtrip) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3});
  EXPECT_EQ(c.type(), DataType::kInt64);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.i64()[1], 2);
  EXPECT_EQ(c.GetValue(2).int64_value(), 3);
}

TEST(ColumnVectorTest, NullsAreLazy) {
  ColumnVector c = ColumnVector::FromInt32({1, 2, 3});
  EXPECT_FALSE(c.HasNulls());
  c.SetNull(1);
  EXPECT_TRUE(c.HasNulls());
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_FALSE(c.IsValid(1));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnVectorTest, AppendValueAndNull) {
  ColumnVector c(DataType::kString);
  c.AppendValue(Value::String("a"));
  c.AppendNull();
  c.AppendValue(Value::String("b"));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetValue(0).string_value(), "a");
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_EQ(c.GetValue(2).string_value(), "b");
}

TEST(ColumnVectorTest, GatherPreservesOrderAndNulls) {
  ColumnVector c = ColumnVector::FromInt64({10, 20, 30, 40});
  c.SetNull(2);
  SelectionVector sel({3, 2, 0});
  ColumnVector g = c.Gather(sel);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.i64()[0], 40);
  EXPECT_TRUE(g.GetValue(1).is_null());
  EXPECT_EQ(g.i64()[2], 10);
}

TEST(ColumnVectorTest, TakeRangeMovesRowsAndKeepsMask) {
  ColumnVector c = ColumnVector::FromString({"a", "bb", "ccc", "dddd"});
  c.SetNull(0);
  const uint64_t gathered_bytes = c.Gather(SelectionVector({1, 2})).ByteSize();
  ColumnVector mid = c.TakeRange(1, 2);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid.strs()[0], "bb");
  EXPECT_EQ(mid.strs()[1], "ccc");
  // No null among the taken rows, but the mask travels, as with Gather.
  EXPECT_TRUE(mid.HasNulls());
  EXPECT_EQ(mid.ByteSize(), gathered_bytes);
  EXPECT_EQ(c.size(), 4u);
  ColumnVector whole = ColumnVector::FromInt64({1, 2, 3});
  ColumnVector all = whole.TakeRange(0, 3);
  EXPECT_EQ(all.i64(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_FALSE(all.HasNulls());
}

TEST(ColumnVectorTest, ByteSizeFixedWidth) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3, 4});
  EXPECT_EQ(c.ByteSize(), 4u * 8u);
  c.SetNull(0);
  EXPECT_EQ(c.ByteSize(), 4u * 8u + 4u);  // + validity bytes
}

TEST(ColumnVectorTest, ByteSizeStrings) {
  ColumnVector c = ColumnVector::FromString({"ab", "cde"});
  EXPECT_EQ(c.ByteSize(), (2u + 4u) + (3u + 4u));
}

TEST(ColumnVectorTest, AppendFromCopiesValue) {
  ColumnVector src = ColumnVector::FromDouble({1.5, 2.5});
  src.SetNull(0);
  ColumnVector dst(DataType::kDouble);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_TRUE(dst.GetValue(0).is_null());
  EXPECT_DOUBLE_EQ(dst.GetValue(1).double_value(), 2.5);
}

TEST(DataChunkTest, BasicShape) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3}));
  chunk.AddColumn(ColumnVector::FromString({"a", "b", "c"}));
  EXPECT_EQ(chunk.num_rows(), 3u);
  EXPECT_EQ(chunk.num_columns(), 2u);
  EXPECT_TRUE(chunk.IsWellFormed());
}

TEST(DataChunkTest, EmptyFromSchema) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  DataChunk chunk = DataChunk::EmptyFromSchema(schema);
  EXPECT_EQ(chunk.num_columns(), 2u);
  EXPECT_EQ(chunk.num_rows(), 0u);
  EXPECT_EQ(chunk.column(1).type(), DataType::kDouble);
}

TEST(DataChunkTest, GatherAllColumns) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3, 4}));
  chunk.AddColumn(ColumnVector::FromDouble({0.1, 0.2, 0.3, 0.4}));
  SelectionVector sel({1, 3});
  DataChunk out = chunk.Gather(sel);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).i64()[0], 2);
  EXPECT_DOUBLE_EQ(out.column(1).f64()[1], 0.4);
}

TEST(DataChunkTest, SelectColumnsReorders) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1}));
  chunk.AddColumn(ColumnVector::FromString({"x"}));
  DataChunk out = chunk.SelectColumns({1, 0});
  EXPECT_EQ(out.column(0).type(), DataType::kString);
  EXPECT_EQ(out.column(1).type(), DataType::kInt64);
}

TEST(DataChunkTest, AppendRowFrom) {
  DataChunk src;
  src.AddColumn(ColumnVector::FromInt64({7, 8}));
  DataChunk dst;
  dst.AddColumn(ColumnVector(DataType::kInt64));
  dst.AppendRowFrom(src, 1);
  EXPECT_EQ(dst.num_rows(), 1u);
  EXPECT_EQ(dst.column(0).i64()[0], 8);
}

// ------------------------------------------------------------- kernels ----

TEST(KernelsTest, CompareToConstantInt) {
  ColumnVector c = ColumnVector::FromInt64({1, 5, 3, 5});
  Mask mask;
  ASSERT_TRUE(CompareToConstant(c, CompareOp::kEq, Value::Int64(5), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 0, 1}));
  ASSERT_TRUE(CompareToConstant(c, CompareOp::kLt, Value::Int64(4), &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 1, 0}));
}

TEST(KernelsTest, CompareIntColumnWithDoubleConstant) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3});
  Mask mask;
  ASSERT_TRUE(
      CompareToConstant(c, CompareOp::kGt, Value::Double(1.5), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 1}));
}

TEST(KernelsTest, CompareStringColumn) {
  ColumnVector c = ColumnVector::FromString({"a", "b", "c"});
  Mask mask;
  ASSERT_TRUE(
      CompareToConstant(c, CompareOp::kGe, Value::String("b"), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 1}));
}

TEST(KernelsTest, CompareTypeMismatchIsError) {
  ColumnVector c = ColumnVector::FromInt64({1});
  Mask mask;
  EXPECT_TRUE(CompareToConstant(c, CompareOp::kEq, Value::String("x"), &mask)
                  .IsInvalidArgument());
}

TEST(KernelsTest, NullsNeverMatch) {
  ColumnVector c = ColumnVector::FromInt64({1, 2});
  c.SetNull(0);
  Mask mask;
  ASSERT_TRUE(CompareToConstant(c, CompareOp::kGe, Value::Int64(0), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1}));
}

TEST(KernelsTest, CompareWithNullConstantIsAllFalse) {
  ColumnVector c = ColumnVector::FromInt64({1, 2});
  Mask mask;
  ASSERT_TRUE(
      CompareToConstant(c, CompareOp::kEq, Value::Null(DataType::kInt64), &mask)
          .ok());
  EXPECT_EQ(mask, (Mask{0, 0}));
}

TEST(KernelsTest, CompareColumns) {
  ColumnVector a = ColumnVector::FromInt64({1, 5, 3});
  ColumnVector b = ColumnVector::FromInt64({2, 5, 1});
  Mask mask;
  ASSERT_TRUE(CompareColumns(a, CompareOp::kLt, b, &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 0}));
  ASSERT_TRUE(CompareColumns(a, CompareOp::kEq, b, &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 0}));
}

TEST(KernelsTest, CompareColumnsMixedIntDouble) {
  ColumnVector a = ColumnVector::FromInt64({1, 2});
  ColumnVector b = ColumnVector::FromDouble({1.5, 1.5});
  Mask mask;
  ASSERT_TRUE(CompareColumns(a, CompareOp::kGt, b, &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1}));
}

TEST(KernelsTest, LikeMask) {
  ColumnVector c =
      ColumnVector::FromString({"promo pack", "standard", "promo deal"});
  Mask mask;
  ASSERT_TRUE(ComputeLikeMask(c, "promo%", &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 1}));
}

// ComputeLikeMask classifies the pattern into equality, prefix, suffix or
// substring tests; LikeMatch is the reference it must agree with.
TEST(KernelsTest, LikeMaskAgreesWithLikeMatch) {
  Random rng(0x11CEULL);
  auto random_text = [&rng](const char* alphabet, size_t max_len) {
    std::string out(rng.NextUint64(max_len + 1), ' ');
    const size_t k = std::char_traits<char>::length(alphabet);
    for (char& c : out) c = alphabet[rng.NextUint64(k)];
    return out;
  };
  std::vector<std::string> values = {"", "a", "b", "%", "_", "ab", "ba"};
  for (int i = 0; i < 200; ++i) values.push_back(random_text("ab%_", 7));
  ColumnVector col = ColumnVector::FromString(values);
  for (size_t i = 0; i < values.size(); i += 5) col.SetNull(i);

  std::vector<std::string> patterns = {""};
  std::istringstream shapes(
      "% %% %%% a ab a% %a %a% %%a% a%% %%a%% %ab% _ a_ %a_% "
      "a%b %a%b a%b% %a%b% %_% __% a%%b");
  for (std::string p; shapes >> p;) patterns.push_back(p);
  for (int i = 0; i < 300; ++i) patterns.push_back(random_text("ab%_", 5));

  for (const std::string& pattern : patterns) {
    Mask mask;
    ASSERT_TRUE(ComputeLikeMask(col, pattern, &mask).ok());
    ASSERT_EQ(mask.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      const bool expected = col.IsValid(i) && LikeMatch(values[i], pattern);
      EXPECT_EQ(mask[i] != 0, expected)
          << "'" << values[i] << "' LIKE '" << pattern << "'";
    }
  }
}

TEST(KernelsTest, MaskCombinators) {
  Mask a{1, 1, 0, 0};
  Mask b{1, 0, 1, 0};
  Mask m = a;
  AndMasks(b, &m);
  EXPECT_EQ(m, (Mask{1, 0, 0, 0}));
  m = a;
  OrMasks(b, &m);
  EXPECT_EQ(m, (Mask{1, 1, 1, 0}));
  NotMask(&m);
  EXPECT_EQ(m, (Mask{0, 0, 0, 1}));
}

TEST(KernelsTest, MaskToSelectionAndPopCount) {
  Mask m{0, 1, 1, 0, 1};
  SelectionVector sel = MaskToSelection(m);
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[2], 4u);
  EXPECT_EQ(MaskPopCount(m), 3u);
}

TEST(KernelsTest, ArithmeticIntInt) {
  ColumnVector a = ColumnVector::FromInt64({10, 20});
  ColumnVector b = ColumnVector::FromInt64({3, 4});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kAdd, b, &out).ok());
  EXPECT_EQ(out.type(), DataType::kInt64);
  EXPECT_EQ(out.i64()[0], 13);
  ASSERT_TRUE(Arithmetic(a, ArithOp::kMul, b, &out).ok());
  EXPECT_EQ(out.i64()[1], 80);
}

TEST(KernelsTest, ArithmeticPromotesToDouble) {
  ColumnVector a = ColumnVector::FromInt64({10});
  ColumnVector b = ColumnVector::FromDouble({4.0});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kDiv, b, &out).ok());
  EXPECT_EQ(out.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(out.f64()[0], 2.5);
}

TEST(KernelsTest, IntegerDivisionByZeroIsNull) {
  ColumnVector a = ColumnVector::FromInt64({10, 20});
  ColumnVector b = ColumnVector::FromInt64({0, 5});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kDiv, b, &out).ok());
  EXPECT_TRUE(out.GetValue(0).is_null());
  EXPECT_EQ(out.i64()[1], 4);
}

TEST(KernelsTest, ArithmeticPropagatesNulls) {
  ColumnVector a = ColumnVector::FromInt64({1, 2});
  a.SetNull(0);
  ColumnVector b = ColumnVector::FromInt64({1, 1});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kAdd, b, &out).ok());
  EXPECT_TRUE(out.GetValue(0).is_null());
  EXPECT_EQ(out.i64()[1], 3);
}

TEST(KernelsTest, ArithmeticConstBroadcast) {
  ColumnVector a = ColumnVector::FromDouble({1.0, 2.0});
  ColumnVector out;
  ASSERT_TRUE(ArithmeticConst(a, ArithOp::kMul, Value::Double(0.5), &out).ok());
  EXPECT_DOUBLE_EQ(out.f64()[1], 1.0);
}

TEST(KernelsTest, HashColumnFreshAndCombined) {
  ColumnVector a = ColumnVector::FromInt64({1, 2, 1});
  std::vector<uint64_t> h;
  ASSERT_TRUE(HashColumn(a, &h).ok());
  EXPECT_EQ(h[0], h[2]);
  EXPECT_NE(h[0], h[1]);

  // Combining with a second column separates rows equal on the first.
  ColumnVector b = ColumnVector::FromString({"x", "x", "y"});
  ASSERT_TRUE(HashColumn(b, &h).ok());
  EXPECT_NE(h[0], h[2]);
}

TEST(KernelsTest, HashIsConsistentAcrossCalls) {
  // The same values must hash identically wherever computed (CPU vs NIC vs
  // storage) — partitioning correctness depends on it.
  ColumnVector a = ColumnVector::FromInt64({42, 42});
  std::vector<uint64_t> h1, h2;
  ASSERT_TRUE(HashColumn(a, &h1).ok());
  ASSERT_TRUE(HashColumn(a, &h2).ok());
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1[0], h1[1]);
}

TEST(KernelsTest, ChunkRowsSplitsAtVectorSize) {
  auto chunks = ChunkRows(kVectorSize * 2 + 10, [](size_t start, size_t count) {
    DataChunk c;
    std::vector<int64_t> vals(count);
    for (size_t i = 0; i < count; ++i) vals[i] = static_cast<int64_t>(start + i);
    c.AddColumn(ColumnVector::FromInt64(std::move(vals)));
    return c;
  });
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].num_rows(), kVectorSize);
  EXPECT_EQ(chunks[2].num_rows(), 10u);
  EXPECT_EQ(chunks[2].column(0).i64()[0],
            static_cast<int64_t>(kVectorSize * 2));
}

}  // namespace
}  // namespace dflow
