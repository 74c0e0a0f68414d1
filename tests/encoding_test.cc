// The one test suite for src/dflow/encode/ (plus the chunk utilities the
// codecs lean on): byte-stream primitives, targeted per-codec round-trips
// and rejection cases, the ChooseEncoding heuristics, corruption handling,
// and property-style sweeps over PlanGen's random column generator —
// encode→decode must be the identity for every (type, encoding) pair the
// codec accepts, nulls and empty columns included.
//
// (Consolidated from the former tests/encode_test.cc; keep new encoding
// coverage here so the suite stays one ctest target.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dflow/common/random.h"
#include "dflow/encode/byte_io.h"
#include "dflow/encode/encoding.h"
#include "dflow/storage/table.h"
#include "dflow/storage/zone_map.h"
#include "dflow/testing/canonical.h"
#include "dflow/testing/plan_gen.h"
#include "dflow/vector/data_chunk.h"

namespace dflow {
namespace {

using testing::FormatValueTagged;
using testing::PlanGen;

TEST(ByteIoTest, RoundtripScalars) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU8(7);
  w.PutU32(123456);
  w.PutI64(-99);
  w.PutDouble(3.25);
  w.PutString("hello");

  ByteReader r(buf);
  uint8_t u8;
  uint32_t u32;
  int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(i64, -99);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIoTest, TruncatedReadIsOutOfRange) {
  std::vector<uint8_t> buf = {1, 2};
  ByteReader r(buf);
  uint64_t v;
  EXPECT_TRUE(r.GetU64(&v).IsOutOfRange());
}

TEST(ByteIoTest, TruncatedStringIsOutOfRange) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(100);  // claims 100 bytes follow
  w.PutU8('x');
  ByteReader r(buf);
  std::string s;
  EXPECT_TRUE(r.GetString(&s).IsOutOfRange());
}

void ExpectRoundtrip(const ColumnVector& col, Encoding enc) {
  auto encoded = EncodeColumn(col, enc);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto decoded = DecodeColumn(encoded.ValueOrDie());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ColumnVector& out = decoded.ValueOrDie();
  ASSERT_EQ(out.size(), col.size());
  ASSERT_EQ(out.type(), col.type());
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(out.GetValue(i).is_null(), col.GetValue(i).is_null()) << i;
    if (!col.GetValue(i).is_null()) {
      EXPECT_EQ(out.GetValue(i).Compare(col.GetValue(i)), 0) << "row " << i;
    }
  }
}

TEST(EncodingTest, PlainRoundtripAllTypes) {
  ExpectRoundtrip(ColumnVector::FromInt32({1, -2, 3}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromInt64({1LL << 40, -5, 0}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromDouble({1.5, -2.25, 0.0}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromString({"a", "", "long string here"}),
                  Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromBool({1, 0, 1}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromDate32({100, 200}), Encoding::kPlain);
}

TEST(EncodingTest, PlainRoundtripWithNulls) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3});
  c.SetNull(1);
  ExpectRoundtrip(c, Encoding::kPlain);

  ColumnVector s = ColumnVector::FromString({"x", "y"});
  s.SetNull(0);
  ExpectRoundtrip(s, Encoding::kPlain);
}

TEST(EncodingTest, RleRoundtrip) {
  ExpectRoundtrip(ColumnVector::FromInt64({5, 5, 5, 7, 7, 1}), Encoding::kRle);
  ExpectRoundtrip(ColumnVector::FromBool({1, 1, 1, 0, 0}), Encoding::kRle);
  ExpectRoundtrip(ColumnVector::FromInt32({9}), Encoding::kRle);
}

TEST(EncodingTest, RleCompressesRuns) {
  std::vector<int64_t> vals(10000, 42);
  ColumnVector c = ColumnVector::FromInt64(std::move(vals));
  auto plain = EncodeColumn(c, Encoding::kPlain).ValueOrDie();
  auto rle = EncodeColumn(c, Encoding::kRle).ValueOrDie();
  EXPECT_LT(rle.ByteSize() * 100, plain.ByteSize());
}

TEST(EncodingTest, RleRejectsDoubles) {
  EXPECT_TRUE(EncodeColumn(ColumnVector::FromDouble({1.0}), Encoding::kRle)
                  .status()
                  .IsInvalidArgument());
}

TEST(EncodingTest, DictionaryRoundtrip) {
  ExpectRoundtrip(
      ColumnVector::FromString({"A", "B", "A", "A", "C", "B"}),
      Encoding::kDictionary);
}

TEST(EncodingTest, DictionaryCompressesLowCardinality) {
  std::vector<std::string> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(i % 2 ? "RETURN_FLAG_A" : "RETURN_FLAG_B");
  ColumnVector c = ColumnVector::FromString(std::move(vals));
  auto plain = EncodeColumn(c, Encoding::kPlain).ValueOrDie();
  auto dict = EncodeColumn(c, Encoding::kDictionary).ValueOrDie();
  EXPECT_LT(dict.ByteSize() * 3, plain.ByteSize());
}

TEST(EncodingTest, DictionaryRejectsInts) {
  EXPECT_TRUE(
      EncodeColumn(ColumnVector::FromInt64({1}), Encoding::kDictionary)
          .status()
          .IsInvalidArgument());
}

TEST(EncodingTest, ForBitPackRoundtrip) {
  ExpectRoundtrip(ColumnVector::FromInt64({1000, 1001, 1007, 1003}),
                  Encoding::kForBitPack);
  ExpectRoundtrip(ColumnVector::FromInt32({-5, -4, -3}), Encoding::kForBitPack);
  ExpectRoundtrip(ColumnVector::FromInt64({7}), Encoding::kForBitPack);
}

TEST(EncodingTest, ForBitPackCompressesNarrowRanges) {
  std::vector<int64_t> vals;
  Random rng(1);
  for (int i = 0; i < 8192; ++i) {
    vals.push_back(1'000'000 + rng.NextInt64(0, 255));
  }
  ColumnVector c = ColumnVector::FromInt64(std::move(vals));
  auto plain = EncodeColumn(c, Encoding::kPlain).ValueOrDie();
  auto packed = EncodeColumn(c, Encoding::kForBitPack).ValueOrDie();
  // 8 bits instead of 64 -> close to 8x smaller.
  EXPECT_LT(packed.ByteSize() * 6, plain.ByteSize());
}

TEST(EncodingTest, ForBitPackRejectsHugeRange) {
  ColumnVector c =
      ColumnVector::FromInt64({0, (1LL << 60)});
  EXPECT_TRUE(EncodeColumn(c, Encoding::kForBitPack)
                  .status()
                  .IsInvalidArgument());
}

TEST(EncodingTest, ChooseEncodingHeuristics) {
  // Long runs -> RLE.
  std::vector<int64_t> runs;
  for (int i = 0; i < 1000; ++i) runs.push_back(i / 100);
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromInt64(std::move(runs))),
            Encoding::kRle);

  // Narrow range, no runs -> FOR.
  std::vector<int64_t> narrow;
  Random rng(2);
  for (int i = 0; i < 1000; ++i) narrow.push_back(rng.NextInt64(0, 100));
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromInt64(std::move(narrow))),
            Encoding::kForBitPack);

  // Low-cardinality strings -> dictionary.
  std::vector<std::string> flags;
  for (int i = 0; i < 1000; ++i) flags.push_back(i % 3 == 0 ? "A" : "B");
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromString(std::move(flags))),
            Encoding::kDictionary);

  // Doubles -> plain.
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromDouble({1.0, 2.0})),
            Encoding::kPlain);
}

// Property-style sweep: random columns of every int width roundtrip through
// every applicable encoding.
class EncodingPropertyTest : public ::testing::TestWithParam<Encoding> {};

TEST_P(EncodingPropertyTest, RandomIntColumnsRoundtrip) {
  const Encoding enc = GetParam();
  Random rng(static_cast<uint64_t>(enc) + 17);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextUint64(3000);
    std::vector<int64_t> vals(n);
    // Mix of runs and noise, bounded range so FOR applies.
    int64_t cur = rng.NextInt64(0, 1000);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.3)) cur = rng.NextInt64(0, 1000);
      vals[i] = cur;
    }
    ColumnVector col = ColumnVector::FromInt64(std::move(vals));
    if (rng.NextBool(0.5)) {
      for (size_t i = 0; i < n; i += 7) col.SetNull(i);
    }
    ExpectRoundtrip(col, enc);
  }
}

INSTANTIATE_TEST_SUITE_P(IntEncodings, EncodingPropertyTest,
                         ::testing::Values(Encoding::kPlain, Encoding::kRle,
                                           Encoding::kForBitPack));

TEST(EncodingTest, RandomStringColumnsRoundtripDictionary) {
  Random rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 1 + rng.NextUint64(2000);
    std::vector<std::string> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(rng.NextString(1 + rng.NextUint64(20)));
    std::vector<std::string> vals(n);
    for (size_t i = 0; i < n; ++i) vals[i] = pool[rng.NextUint64(pool.size())];
    ColumnVector col = ColumnVector::FromString(std::move(vals));
    ExpectRoundtrip(col, Encoding::kDictionary);
    ExpectRoundtrip(col, Encoding::kPlain);
  }
}

TEST(EncodingTest, CorruptRleIsRejected) {
  ColumnVector c = ColumnVector::FromInt64({1, 1, 2});
  EncodedColumn ec = EncodeColumn(c, Encoding::kRle).ValueOrDie();
  ec.data.resize(ec.data.size() - 4);  // truncate
  EXPECT_FALSE(DecodeColumn(ec).ok());
}

TEST(EncodingTest, CorruptDictionaryCodeIsRejected) {
  ColumnVector c = ColumnVector::FromString({"a", "b"});
  EncodedColumn ec = EncodeColumn(c, Encoding::kDictionary).ValueOrDie();
  // Last 4 bytes are the code of row 1; point it beyond the dictionary.
  ec.data[ec.data.size() - 4] = 0xff;
  EXPECT_FALSE(DecodeColumn(ec).ok());
}

TEST(EncodingTest, DecodedByteSizeIgnoresAllValidMask) {
  // Gathering only valid rows keeps the mask, all ones: the encoder writes
  // it, the decoder allocates none, and the size walk must agree.
  ColumnVector with_null = ColumnVector::FromString({"xx", "yyy", "z"});
  with_null.SetNull(1);
  ColumnVector all_valid = with_null.Gather(SelectionVector({0, 2}));
  ASSERT_TRUE(all_valid.HasNulls());
  for (Encoding encoding : {Encoding::kPlain, Encoding::kDictionary}) {
    EncodedColumn ec = EncodeColumn(all_valid, encoding).ValueOrDie();
    ColumnVector decoded = DecodeColumn(ec).ValueOrDie();
    EXPECT_FALSE(decoded.HasNulls());
    EXPECT_EQ(DecodedByteSize(ec).ValueOrDie(), decoded.ByteSize());
    EXPECT_EQ(DecodedByteSize(ec).ValueOrDie(), all_valid.ByteSize() - 2);
  }
}

TEST(EncodingTest, CorruptBytesFailTheSizeWalkToo) {
  ColumnVector strs = ColumnVector::FromString({"abc", "de"});
  EncodedColumn plain = EncodeColumn(strs, Encoding::kPlain).ValueOrDie();
  plain.data.resize(plain.data.size() - 1);
  EXPECT_TRUE(DecodedByteSize(plain).status().IsOutOfRange());
  EncodedColumn dict = EncodeColumn(strs, Encoding::kDictionary).ValueOrDie();
  dict.data[dict.data.size() - 4] = 0xff;
  EXPECT_TRUE(DecodedByteSize(dict).status().IsOutOfRange());
  // A (type, encoding) pair no encoder writes is refused, not decoded.
  EncodedColumn rle =
      EncodeColumn(ColumnVector::FromInt64({1, 1}), Encoding::kRle)
          .ValueOrDie();
  rle.type = DataType::kDouble;
  EXPECT_TRUE(DecodeColumn(rle).status().IsOutOfRange());
  EXPECT_TRUE(DecodedByteSize(rle).status().IsOutOfRange());
}

// ------------------------- fuzzer-driven sweeps over every (type, encoding)

const DataType kAllTypes[] = {DataType::kBool,   DataType::kInt32,
                              DataType::kInt64,  DataType::kDouble,
                              DataType::kString, DataType::kDate32};
const Encoding kAllEncodings[] = {Encoding::kPlain, Encoding::kRle,
                                  Encoding::kDictionary,
                                  Encoding::kForBitPack};

void ExpectColumnsEqual(const ColumnVector& a, const ColumnVector& b,
                        const std::string& context) {
  ASSERT_EQ(a.type(), b.type()) << context;
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(FormatValueTagged(a.GetValue(i)), FormatValueTagged(b.GetValue(i)))
        << context << " row " << i;
  }
}

// Round-trips `col` through every encoding that accepts it; at least kPlain
// must.
void RoundTripAllEncodings(const ColumnVector& col,
                           const std::string& context) {
  size_t accepted = 0;
  for (Encoding encoding : kAllEncodings) {
    Result<EncodedColumn> encoded = EncodeColumn(col, encoding);
    if (!encoded.ok()) {
      // Unsupported (type, encoding) pairs must say so crisply, not crash
      // or mis-encode.
      EXPECT_TRUE(encoded.status().IsInvalidArgument())
          << context << " " << EncodingToString(encoding) << ": "
          << encoded.status().message();
      continue;
    }
    ++accepted;
    Result<ColumnVector> decoded = DecodeColumn(encoded.ValueOrDie());
    ASSERT_TRUE(decoded.ok())
        << context << " " << EncodingToString(encoding) << ": "
        << decoded.status().message();
    ExpectColumnsEqual(col, decoded.ValueOrDie(),
                       context + " via " +
                           std::string(EncodingToString(encoding)));
    Result<uint64_t> decoded_bytes = DecodedByteSize(encoded.ValueOrDie());
    ASSERT_TRUE(decoded_bytes.ok()) << context;
    EXPECT_EQ(decoded_bytes.ValueOrDie(), decoded.ValueOrDie().ByteSize())
        << context << " via " << EncodingToString(encoding);
  }
  EXPECT_GE(accepted, 1u) << context << ": even kPlain rejected the column";
}

TEST(EncodeRoundTripTest, RandomColumnsEveryTypeEveryEncoding) {
  Random rng(0xE27C0DEULL);
  for (DataType type : kAllTypes) {
    for (size_t trial = 0; trial < 8; ++trial) {
      const size_t rows = 1 + rng.NextUint64(3000);
      ColumnVector col = PlanGen::RandomColumn(&rng, type, rows);
      RoundTripAllEncodings(col, std::string(DataTypeToString(type)) +
                                     " rows=" + std::to_string(rows));
    }
  }
}

TEST(EncodeRoundTripTest, NullableColumnsSurviveEveryEncoding) {
  Random rng(0xE27C0DFULL);
  for (DataType type : kAllTypes) {
    for (double null_prob : {0.05, 0.5, 1.0}) {
      ColumnVector col = PlanGen::RandomColumn(&rng, type, 500, null_prob);
      RoundTripAllEncodings(col, std::string(DataTypeToString(type)) +
                                     " null_prob=" +
                                     std::to_string(null_prob));
    }
  }
}

TEST(EncodeRoundTripTest, EmptyAndSingleValueColumns) {
  Random rng(0x51C0DEULL);
  for (DataType type : kAllTypes) {
    ColumnVector empty(type);
    RoundTripAllEncodings(empty,
                          std::string(DataTypeToString(type)) + " empty");
    ColumnVector one = PlanGen::RandomColumn(&rng, type, 1);
    RoundTripAllEncodings(one,
                          std::string(DataTypeToString(type)) + " single");
  }
}

TEST(EncodeRoundTripTest, ChooseEncodingAlwaysRoundTrips) {
  Random rng(0xC0FFEEULL);
  for (DataType type : kAllTypes) {
    for (size_t trial = 0; trial < 4; ++trial) {
      ColumnVector col = PlanGen::RandomColumn(&rng, type, 800);
      const Encoding chosen = ChooseEncoding(col);
      Result<EncodedColumn> encoded = EncodeColumn(col, chosen);
      ASSERT_TRUE(encoded.ok())
          << "ChooseEncoding picked an encoding that rejects the column: "
          << EncodingToString(chosen);
      Result<ColumnVector> decoded = DecodeColumn(encoded.ValueOrDie());
      ASSERT_TRUE(decoded.ok());
      ExpectColumnsEqual(col, decoded.ValueOrDie(),
                         std::string("chosen ") +
                             std::string(EncodingToString(chosen)));
    }
  }
}

// ------------------------------------------------- chunk utility properties

DataChunk RandomChunk(Random* rng, size_t rows) {
  std::vector<ColumnVector> cols;
  cols.push_back(PlanGen::RandomColumn(rng, DataType::kInt64, rows));
  cols.push_back(PlanGen::RandomColumn(rng, DataType::kString, rows, 0.1));
  cols.push_back(PlanGen::RandomColumn(rng, DataType::kDouble, rows));
  return DataChunk(std::move(cols));
}

TEST(ChunkPropertyTest, GatherKeepsSelectedRowsInOrder) {
  Random rng(0x6A74E2ULL);
  DataChunk chunk = RandomChunk(&rng, 300);
  SelectionVector sel;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    if (rng.NextBool(0.3)) sel.Append(static_cast<uint32_t>(r));
  }
  DataChunk gathered = chunk.Gather(sel);
  ASSERT_EQ(gathered.num_rows(), sel.size());
  ASSERT_TRUE(gathered.IsWellFormed());
  for (size_t i = 0; i < sel.size(); ++i) {
    for (size_t c = 0; c < chunk.num_columns(); ++c) {
      EXPECT_EQ(FormatValueTagged(gathered.GetValue(i, c)),
                FormatValueTagged(chunk.GetValue(sel.indices()[i], c)));
    }
  }
}

TEST(ChunkPropertyTest, SelectColumnsReordersWithoutCopyingRows) {
  Random rng(0x5E1EC7ULL);
  DataChunk chunk = RandomChunk(&rng, 120);
  DataChunk swapped = chunk.SelectColumns({2, 0});
  ASSERT_EQ(swapped.num_columns(), 2u);
  ASSERT_EQ(swapped.num_rows(), chunk.num_rows());
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    EXPECT_EQ(FormatValueTagged(swapped.GetValue(r, 0)),
              FormatValueTagged(chunk.GetValue(r, 2)));
    EXPECT_EQ(FormatValueTagged(swapped.GetValue(r, 1)),
              FormatValueTagged(chunk.GetValue(r, 0)));
  }
}

TEST(ChunkPropertyTest, ChecksumIsContentNotIdentity) {
  Random rng(0xC4EC50ULL);
  DataChunk chunk = RandomChunk(&rng, 256);
  DataChunk copy = chunk;  // same content, different object
  EXPECT_EQ(ChecksumChunk(chunk), ChecksumChunk(copy));

  // Rebuilding the same rows from scratch must also hash identically.
  SelectionVector all;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    all.Append(static_cast<uint32_t>(r));
  }
  EXPECT_EQ(ChecksumChunk(chunk), ChecksumChunk(chunk.Gather(all)));

  // Any single-row change must show up (this is what the unreliable-fabric
  // receiver relies on to catch corruption).
  SelectionVector rest;
  for (size_t r = 1; r < chunk.num_rows(); ++r) {
    rest.Append(static_cast<uint32_t>(r));
  }
  EXPECT_NE(ChecksumChunk(chunk), ChecksumChunk(chunk.Gather(rest)));
}

// ------------------------------------------------- span-wise decoding

// Every encoding, over a column whose RLE runs (1000 rows) and FOR values
// (10 bits) cross every 2048-row span boundary.
std::vector<std::pair<ColumnVector, Encoding>> SpanColumns(size_t rows,
                                                           bool nulls) {
  Random rng(0x5BA9ULL + rows);
  std::vector<int64_t> runs(rows), narrow(rows), wide(rows);
  std::vector<int32_t> dates(rows);
  std::vector<double> doubles(rows);
  std::vector<uint8_t> bools(rows);
  std::vector<std::string> flags(rows), comments(rows);
  const char* kFlags[] = {"A", "N", "R", ""};
  for (size_t i = 0; i < rows; ++i) {
    runs[i] = static_cast<int64_t>(i / 1000) * 7 - 3;
    narrow[i] = rng.NextInt64(-500, 523);  // 10 bits
    wide[i] = rng.NextInt64(INT64_MIN / 2, INT64_MAX / 2);
    dates[i] = static_cast<int32_t>(8000 + rng.NextUint64(1000));
    doubles[i] = rng.NextDouble(-1e6, 1e6);
    bools[i] = static_cast<uint8_t>((i / 3000) % 2);
    flags[i] = kFlags[rng.NextUint64(4)];
    comments[i] = rng.NextString(rng.NextUint64(30));
  }
  std::vector<std::pair<ColumnVector, Encoding>> out = {
      {ColumnVector::FromInt64(runs), Encoding::kRle},
      {ColumnVector::FromBool(bools), Encoding::kRle},
      {ColumnVector::FromInt64(narrow), Encoding::kForBitPack},
      {ColumnVector::FromDate32(dates), Encoding::kForBitPack},
      {ColumnVector::FromString(flags), Encoding::kDictionary},
      {ColumnVector::FromInt64(wide), Encoding::kPlain},
      {ColumnVector::FromDate32(dates), Encoding::kPlain},
      {ColumnVector::FromDouble(doubles), Encoding::kPlain},
      {ColumnVector::FromBool(bools), Encoding::kPlain},
      {ColumnVector::FromString(comments), Encoding::kPlain},
  };
  if (nulls) {
    for (auto& [col, enc] : out) {
      for (size_t i = 0; i < rows; i += 1 + rng.NextUint64(3000)) {
        col.SetNull(i);
      }
    }
  }
  return out;
}

TEST(SpanDecodeTest, DecodeChunksEqualsDecodeColumnSplitAtVectorSize) {
  for (size_t rows : {1u, 2047u, 2048u, 2049u, 65543u}) {
    for (bool nulls : {false, true}) {
      for (auto& [col, enc] : SpanColumns(rows, nulls)) {
        SCOPED_TRACE(std::string(EncodingToString(enc)) + " " +
                     std::string(DataTypeToString(col.type())) + " rows=" +
                     std::to_string(rows) + (nulls ? " nulls" : ""));
        Result<EncodedColumn> encoded = EncodeColumn(col, enc);
        ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
        Result<ColumnVector> whole = DecodeColumn(encoded.ValueOrDie());
        ASSERT_TRUE(whole.ok()) << whole.status().ToString();
        auto rg = RowGroup::Make(static_cast<uint32_t>(rows),
                                 {encoded.ValueOrDie()},
                                 {ZoneMap::Compute(col)});
        ASSERT_TRUE(rg.ok()) << rg.status().ToString();
        auto chunks = rg.ValueOrDie().DecodeChunks({0});
        ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
        ASSERT_EQ(chunks.ValueOrDie().size(),
                  (rows + kVectorSize - 1) / kVectorSize);
        uint64_t bytes = 0;
        for (size_t k = 0; k < chunks.ValueOrDie().size(); ++k) {
          const ColumnVector& got = chunks.ValueOrDie()[k].column(0);
          const size_t start = k * kVectorSize;
          const ColumnVector want = whole.ValueOrDie().TakeRange(
              start, std::min(kVectorSize, rows - start));
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(got.HasNulls(), want.HasNulls());
          EXPECT_EQ(got.ByteSize(), want.ByteSize());
          for (size_t r = 0; r < got.size(); ++r) {
            ASSERT_EQ(FormatValueTagged(got.GetValue(r)),
                      FormatValueTagged(want.GetValue(r)))
                << "span " << k << " row " << r;
            ASSERT_EQ(FormatValueTagged(got.GetValue(r)),
                      FormatValueTagged(col.GetValue(start + r)));
          }
          bytes += got.ByteSize();
        }
        EXPECT_EQ(bytes, rg.ValueOrDie().DecodedBytes({0}));
      }
    }
  }
}

TEST(SpanDecodeTest, InputTruncatedAtASpanBoundaryIsOutOfRange) {
  const size_t rows = 3 * kVectorSize + 5;
  for (auto& [col, enc] : SpanColumns(rows, /*nulls=*/false)) {
    SCOPED_TRACE(std::string(EncodingToString(enc)) + " " +
                 std::string(DataTypeToString(col.type())));
    const EncodedColumn full = EncodeColumn(col, enc).ValueOrDie();
    // Bytes before the first span: the validity flag plus each encoding's
    // header; then the bytes each span reads.
    size_t header = 1;
    std::vector<size_t> span_end;  // byte offset where span k's data ends
    switch (enc) {
      case Encoding::kPlain:
        for (size_t k = 1; k <= 3; ++k) {
          size_t end = header;
          for (size_t r = 0; r < k * kVectorSize; ++r) {
            end += col.type() == DataType::kString
                       ? 4 + col.strs()[r].size()
                       : FixedWidthBytes(col.type());
          }
          span_end.push_back(end);
        }
        break;
      case Encoding::kRle: {
        const size_t run = col.type() == DataType::kBool ? 3000 : 1000;
        for (size_t k = 1; k <= 3; ++k) {
          // A span reads every run up to the one holding its last row.
          span_end.push_back(header + 12 * ((k * kVectorSize + run - 1) / run));
        }
        break;
      }
      case Encoding::kDictionary: {
        header += 4 + 4 * 4 + 3;  // four entries: "A", "N", "R", ""
        for (size_t k = 1; k <= 3; ++k) {
          span_end.push_back(header + 4 * k * kVectorSize);
        }
        break;
      }
      case Encoding::kForBitPack: {
        header += 9;
        const size_t bits = full.data[9];
        for (size_t k = 1; k <= 3; ++k) {
          span_end.push_back(header + k * kVectorSize * bits / 8);
        }
        break;
      }
    }
    for (size_t k = 0; k < span_end.size(); ++k) {
      // The last RLE run may hold every row past the third span.
      if (span_end[k] == full.data.size()) continue;
      ASSERT_LT(span_end[k], full.data.size());
      EncodedColumn cut = full;
      cut.data.resize(span_end[k]);
      EXPECT_TRUE(DecodeColumn(cut).status().IsOutOfRange());
      // Spans 0..k decode; a later one finds its bytes gone.
      auto decoder = ColumnDecoder::Open(cut);
      ASSERT_TRUE(decoder.ok()) << decoder.status().ToString();
      for (size_t span = 0; span <= k; ++span) {
        auto got = decoder.ValueOrDie().Next(kVectorSize);
        ASSERT_TRUE(got.ok()) << "span " << span << ": "
                              << got.status().ToString();
        for (size_t r = 0; r < kVectorSize; ++r) {
          ASSERT_EQ(FormatValueTagged(got.ValueOrDie().GetValue(r)),
                    FormatValueTagged(col.GetValue(span * kVectorSize + r)));
        }
      }
      Status rest = Status::OK();
      while (rest.ok() && decoder.ValueOrDie().rows_left() > 0) {
        const size_t n =
            std::min(kVectorSize, decoder.ValueOrDie().rows_left());
        rest = decoder.ValueOrDie().Next(n).status();
      }
      EXPECT_TRUE(rest.IsOutOfRange()) << rest.ToString();
    }
  }
}

}  // namespace
}  // namespace dflow
