#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

// ------------------------------------------- STRING arena vs a reference

// What a STRING column should hold, kept the obvious way: one std::string
// per row (a NULL row's slot included) and the validity mask.
struct StringRef {
  std::vector<std::string> values;
  std::vector<uint8_t> valid;
  bool masked = false;

  void Append(const std::string& v, bool is_valid) {
    values.push_back(is_valid ? v : std::string());
    valid.push_back(is_valid ? 1 : 0);
    masked = masked || !is_valid;
  }
};

void ExpectMatches(const ColumnVector& col, const StringRef& ref) {
  ASSERT_EQ(col.type(), DataType::kString);
  ASSERT_EQ(col.size(), ref.values.size());
  EXPECT_EQ(col.HasNulls(), ref.masked);
  uint64_t bytes = 0;
  for (size_t i = 0; i < ref.values.size(); ++i) {
    EXPECT_EQ(col.IsValid(i), ref.valid[i] != 0) << "row " << i;
    EXPECT_EQ(col.strs()[i], ref.values[i]) << "row " << i;
    bytes += ref.values[i].size() + 4;
  }
  if (ref.masked) bytes += ref.values.size();
  EXPECT_EQ(col.ByteSize(), bytes);
}

// A source column with empty strings, a 64 KiB string and NULL rows whose
// slots keep stale text, plus its reference.
std::pair<ColumnVector, StringRef> StringSource(Random* rng, size_t rows) {
  std::vector<std::string> values;
  for (size_t i = 0; i < rows; ++i) {
    if (i == rows / 2) {
      values.push_back(std::string(64 * 1024, 'x'));
    } else if (rng->NextBool(0.2)) {
      values.emplace_back();
    } else {
      values.push_back(rng->NextString(rng->NextUint64(20)));
    }
  }
  ColumnVector col = ColumnVector::FromString(values);
  StringRef ref{values, std::vector<uint8_t>(rows, 1), false};
  for (size_t i = 0; i < rows; ++i) {
    if (i != rows / 2 && rng->NextBool(0.25)) {
      col.SetNull(i);  // the slot keeps its text
      ref.valid[i] = 0;
      ref.masked = true;
    }
  }
  return {std::move(col), std::move(ref)};
}

TEST(StringColumnTest, EveryOperationMatchesAStringVectorReference) {
  Random rng(0xA7E4AULL);
  auto [src, src_ref] = StringSource(&rng, 300);
  ExpectMatches(src, src_ref);
  for (size_t i = 0; i < src.size(); ++i) {
    const Value v = src.GetValue(i);
    if (src_ref.valid[i]) {
      EXPECT_EQ(v.string_value(), src_ref.values[i]);
    } else {
      EXPECT_TRUE(v.is_null());
    }
  }

  // AppendFrom, AppendRange and AppendRows all append the default for a
  // NULL row.
  StringRef appended;
  ColumnVector from(DataType::kString);
  for (size_t i = 0; i < src.size(); ++i) {
    from.AppendFrom(src, i);
    appended.Append(src_ref.values[i], src_ref.valid[i] != 0);
  }
  ExpectMatches(from, appended);
  ColumnVector range(DataType::kString);
  for (size_t start = 0; start < src.size(); start += 37) {
    range.AppendRange(src, start, std::min<size_t>(37, src.size() - start));
  }
  ExpectMatches(range, appended);
  std::vector<uint32_t> rows;
  SelectionVector sel;
  StringRef picked;
  StringRef gathered{{}, {}, src_ref.masked};
  for (size_t i = 0; i < src.size(); ++i) {
    if (rng.NextBool(0.5)) {
      rows.push_back(static_cast<uint32_t>(i));
      sel.Append(static_cast<uint32_t>(i));
      picked.Append(src_ref.values[i], src_ref.valid[i] != 0);
      // Gather copies the slot and the mask whole.
      gathered.values.push_back(src_ref.values[i]);
      gathered.valid.push_back(src_ref.valid[i]);
    }
  }
  ColumnVector by_rows(DataType::kString);
  by_rows.AppendRows(src, rows.data(), rows.size());
  ExpectMatches(by_rows, picked);
  ExpectMatches(src.Gather(sel), gathered);

  // TakeRange copies slots and carries the mask, as Gather does.
  StringRef taken{{src_ref.values.begin() + 100, src_ref.values.begin() + 200},
                  {src_ref.valid.begin() + 100, src_ref.valid.begin() + 200},
                  src_ref.masked};
  ExpectMatches(src.TakeRange(100, 100), taken);
  ExpectMatches(src, src_ref);  // the source is untouched

  // AppendValue, AppendNull, Resize and Clear.
  ColumnVector built(DataType::kString);
  StringRef built_ref;
  built.AppendValue(Value::String(""));
  built_ref.Append("", true);
  built.AppendNull();
  built_ref.Append("", false);
  built.AppendValue(Value::String(std::string(64 * 1024, 'y')));
  built_ref.Append(std::string(64 * 1024, 'y'), true);
  ExpectMatches(built, built_ref);
  built.Resize(5);
  built_ref.values.resize(5);
  built_ref.valid.resize(5, 1);
  ExpectMatches(built, built_ref);
  built.Resize(2);
  built_ref.values.resize(2);
  built_ref.valid.resize(2);
  ExpectMatches(built, built_ref);
  built.Clear();
  ExpectMatches(built, StringRef{});

  // A column appending its own rows reads them before its arena moves.
  ColumnVector self = ColumnVector::FromString({"abc", ""});
  for (int i = 0; i < 10; ++i) self.AppendFrom(self, 0);
  EXPECT_EQ(self.strs()[11], "abc");
}

TEST(StringColumnTest, AnEmptyColumnAllocatesNothing) {
  ColumnVector col(DataType::kString);
  EXPECT_EQ(col.strs().bytes().capacity(), 0u);
  EXPECT_EQ(col.strs().offsets().capacity(), 0u);
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(col.ByteSize(), 0u);
  col.AppendValue(Value::String("a"));
  col.Resize(0);
  EXPECT_TRUE(col.strs().offsets().empty());
}

TEST(StringColumnTest, AppendRangeOfANullRowEqualsAppendFrom) {
  ColumnVector src = ColumnVector::FromString({"x", "stale text", "z"});
  src.SetNull(1);
  ColumnVector by_range(DataType::kString);
  by_range.AppendRange(src, 0, 3);
  ColumnVector by_value(DataType::kString);
  for (size_t i = 0; i < 3; ++i) by_value.AppendFrom(src, i);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(by_range.GetValue(i).ToString(), by_value.GetValue(i).ToString());
    EXPECT_EQ(by_range.strs()[i], by_value.strs()[i]);
  }
  EXPECT_EQ(by_range.strs()[1], "");
  EXPECT_EQ(by_range.ByteSize(), by_value.ByteSize());
  EXPECT_EQ(by_range.ByteSize(), (1u + 4u) + (0u + 4u) + (1u + 4u) + 3u);
}

TEST(ChecksumTest, EqualContentHashesEquallyHoweverTheArenaWasBuilt) {
  const std::vector<std::string> values = {"alpha", "", "be", "gamma", ""};
  DataChunk direct({ColumnVector::FromInt64({1, 2, 3, 4, 5}),
                    ColumnVector::FromString(values)});
  // The same rows as two AppendRange slices of a longer column.
  ColumnVector longer = ColumnVector::FromString(
      {"pad", "alpha", "", "be", "pad", "gamma", ""});
  ColumnVector sliced(DataType::kString);
  sliced.AppendRange(longer, 1, 3);
  sliced.AppendRange(longer, 5, 2);
  DataChunk slices({ColumnVector::FromInt64({1, 2, 3, 4, 5}),
                    std::move(sliced)});
  // And as a Gather out of the longer column and a Slice of a chunk.
  DataChunk gathered({ColumnVector::FromInt64({9, 1, 2, 3, 9, 4, 5}),
                      std::move(longer)});
  gathered = gathered.Gather(SelectionVector({1, 2, 3, 5, 6}));
  DataChunk sliced_chunk =
      DataChunk({ColumnVector::FromInt64({0, 1, 2, 3, 4, 5}),
                 ColumnVector::FromString(
                     {"x", "alpha", "", "be", "gamma", ""})})
          .Slice(1, 5);
  const uint64_t want = ChecksumChunk(direct);
  EXPECT_EQ(ChecksumChunk(slices), want);
  EXPECT_EQ(ChecksumChunk(gathered), want);
  EXPECT_EQ(ChecksumChunk(sliced_chunk), want);

  // One byte changed anywhere gives a different checksum.
  std::vector<std::string> changed = values;
  changed[3][2] = 'M';
  EXPECT_NE(ChecksumChunk(DataChunk({ColumnVector::FromInt64({1, 2, 3, 4, 5}),
                                     ColumnVector::FromString(changed)})),
            want);
  // So does moving a byte from one row to its neighbour.
  EXPECT_NE(ChecksumChunk(DataChunk(
                {ColumnVector::FromInt64({1, 2, 3, 4, 5}),
                 ColumnVector::FromString({"alph", "a", "be", "gamma", ""})})),
            want);
  EXPECT_NE(ChecksumChunk(DataChunk({ColumnVector::FromInt64({1, 2, 3, 4, 6}),
                                     ColumnVector::FromString(values)})),
            want);
  DataChunk nulled = direct;
  nulled.column(0).SetNull(2);
  EXPECT_NE(ChecksumChunk(nulled), want);
}

}  // namespace
}  // namespace dflow
