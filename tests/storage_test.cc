#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dflow/cluster/cluster.h"
#include "dflow/common/random.h"
#include "dflow/exec/scan.h"
#include "dflow/storage/catalog.h"
#include "dflow/storage/object_store.h"
#include "dflow/storage/table.h"
#include "dflow/storage/table_io.h"
#include "dflow/storage/zone_map.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

DataChunk MakeChunk(const std::vector<int64_t>& ids,
                    const std::vector<std::string>& names) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64(ids));
  chunk.AddColumn(ColumnVector::FromString(names));
  return chunk;
}

Schema TwoColSchema() {
  return Schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
}

TEST(ZoneMapTest, ComputeMinMax) {
  ZoneMap zm = ZoneMap::Compute(ColumnVector::FromInt64({5, -2, 9, 3}));
  ASSERT_TRUE(zm.valid);
  EXPECT_EQ(zm.min.int64_value(), -2);
  EXPECT_EQ(zm.max.int64_value(), 9);
  EXPECT_FALSE(zm.has_nulls);
}

TEST(ZoneMapTest, NullTracking) {
  ColumnVector c = ColumnVector::FromInt64({1, 2});
  c.SetNull(0);
  ZoneMap zm = ZoneMap::Compute(c);
  EXPECT_TRUE(zm.has_nulls);
  EXPECT_EQ(zm.min.int64_value(), 2);
}

TEST(ZoneMapTest, MayMatchPrunes) {
  ZoneMap zm = ZoneMap::Compute(ColumnVector::FromInt64({10, 20, 30}));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kEq, Value::Int64(20)));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kEq, Value::Int64(5)));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kLt, Value::Int64(10)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kLe, Value::Int64(10)));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kGt, Value::Int64(30)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kGe, Value::Int64(30)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kNe, Value::Int64(20)));
}

TEST(ZoneMapTest, NeOnConstantZone) {
  ZoneMap zm = ZoneMap::Compute(ColumnVector::FromInt64({7, 7, 7}));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kNe, Value::Int64(7)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kNe, Value::Int64(8)));
}

TEST(ZoneMapTest, MergeWidens) {
  ZoneMap a = ZoneMap::Compute(ColumnVector::FromInt64({1, 2}));
  ZoneMap b = ZoneMap::Compute(ColumnVector::FromInt64({10, 20}));
  a.Merge(b);
  EXPECT_EQ(a.min.int64_value(), 1);
  EXPECT_EQ(a.max.int64_value(), 20);
}

// The zone map as a loop over boxed Values ordered by Value::Compare: the
// reference the typed ZoneMap::Compute must reproduce bound for bound.
ZoneMap ReferenceZoneMap(const ColumnVector& col) {
  ZoneMap zm;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsValid(i)) {
      zm.has_nulls = true;
      continue;
    }
    Value v = col.GetValue(i);
    if (!zm.valid) {
      zm.min = v;
      zm.max = v;
      zm.valid = true;
    } else {
      if (v.Compare(zm.min) < 0) zm.min = v;
      if (v.Compare(zm.max) > 0) zm.max = std::move(v);
    }
  }
  return zm;
}

// Equal type and nullness, and the same bits for a DOUBLE (so -0.0 and 0.0
// differ, and a NaN equals itself).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() == DataType::kDouble) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.Compare(b) == 0;
}

TEST(ZoneMapTest, TypedComputeMatchesTheValueLoop) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials = {-0.0, 0.0, kNaN, -1.5, 2.25};
  const std::vector<std::string> strings = {"", "\xc3\xa9", "Z", "a"};
  const std::vector<DataType> types = {
      DataType::kBool,   DataType::kInt32,  DataType::kInt64,
      DataType::kDouble, DataType::kString, DataType::kDate32};
  Random rng(20240917);
  int checked = 0;
  for (uint64_t round = 0; round < 60; ++round) {
    for (DataType type : types) {
      ColumnVector col(type);
      const size_t rows = rng.NextUint64(40);
      // Round 0 of every type is all-NULL; later rounds null ~1 row in 4.
      const double null_rate = round == 0 ? 1.0 : 0.25;
      for (size_t r = 0; r < rows; ++r) {
        if (rng.NextBool(null_rate)) {
          col.AppendNull();
          continue;
        }
        switch (type) {
          case DataType::kBool:
            col.AppendValue(Value::Bool(rng.NextBool()));
            break;
          case DataType::kInt32:
            col.AppendValue(Value::Int32(
                static_cast<int32_t>(rng.NextInt64(-50, 50))));
            break;
          case DataType::kDate32:
            col.AppendValue(Value::Date32(
                static_cast<int32_t>(rng.NextInt64(8000, 8100))));
            break;
          case DataType::kInt64:
            col.AppendValue(Value::Int64(rng.NextInt64(-1000, 1000)));
            break;
          case DataType::kDouble:
            col.AppendValue(Value::Double(
                rng.NextBool(0.5) ? specials[rng.NextUint64(specials.size())]
                                  : rng.NextDouble(-3.0, 3.0)));
            break;
          case DataType::kString:
            // Empty strings, and bytes above 0x7f (compared unsigned).
            col.AppendValue(Value::String(
                rng.NextBool(0.3) ? strings[rng.NextUint64(strings.size())]
                                  : rng.NextString(rng.NextUint64(4))));
            break;
        }
      }
      const ZoneMap want = ReferenceZoneMap(col);
      const ZoneMap got = ZoneMap::Compute(col);
      const std::string what =
          std::string(DataTypeToString(type)) + " round " +
          std::to_string(round);
      EXPECT_EQ(got.valid, want.valid) << what;
      EXPECT_EQ(got.has_nulls, want.has_nulls) << what;
      EXPECT_TRUE(SameValue(got.min, want.min))
          << what << ": min " << got.min.ToString() << " vs "
          << want.min.ToString();
      EXPECT_TRUE(SameValue(got.max, want.max))
          << what << ": max " << got.max.ToString() << " vs "
          << want.max.ToString();
      ++checked;
    }
  }
  EXPECT_EQ(checked, 360);
}

TEST(ZoneMapTest, TypedComputeKeepsTheFirstOfATieAndSkipsNaN) {
  // -0.0 and 0.0 compare equal: the first one seen is both bounds. A NaN
  // after the first value never replaces a bound.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const ZoneMap zeros =
      ZoneMap::Compute(ColumnVector::FromDouble({-0.0, 0.0}));
  EXPECT_TRUE(std::signbit(zeros.min.double_value()));
  EXPECT_TRUE(std::signbit(zeros.max.double_value()));
  const ZoneMap nan = ZoneMap::Compute(ColumnVector::FromDouble({1.0, kNaN}));
  EXPECT_EQ(nan.min.double_value(), 1.0);
  EXPECT_EQ(nan.max.double_value(), 1.0);
  const ZoneMap strings =
      ZoneMap::Compute(ColumnVector::FromString({"b", "", "ab"}));
  EXPECT_EQ(strings.min.string_value(), "");
  EXPECT_EQ(strings.max.string_value(), "b");
}

TEST(TableBuilderTest, BuildsRowGroups) {
  TableBuilder builder("t", TwoColSchema(), /*row_group_size=*/4);
  ASSERT_TRUE(builder.Append(MakeChunk({1, 2, 3}, {"a", "b", "c"})).ok());
  ASSERT_TRUE(builder.Append(MakeChunk({4, 5, 6}, {"d", "e", "f"})).ok());
  Table table = builder.Finish().ValueOrDie();
  EXPECT_EQ(table.num_rows(), 6u);
  EXPECT_EQ(table.num_row_groups(), 2u);
  EXPECT_EQ(table.row_group(0).num_rows(), 4u);
  EXPECT_EQ(table.row_group(1).num_rows(), 2u);
}

TEST(TableBuilderTest, RejectsSchemaMismatch) {
  TableBuilder builder("t", TwoColSchema());
  DataChunk bad;
  bad.AddColumn(ColumnVector::FromInt64({1}));
  EXPECT_TRUE(builder.Append(bad).IsInvalidArgument());

  DataChunk bad_type;
  bad_type.AddColumn(ColumnVector::FromDouble({1.0}));
  bad_type.AddColumn(ColumnVector::FromString({"x"}));
  EXPECT_TRUE(builder.Append(bad_type).IsInvalidArgument());
}

TEST(TableBuilderTest, ChunkAppendsBuildWhatRowAppendsBuild) {
  // 700-row chunks over 1000-row groups, so chunks straddle every group
  // boundary. Ids are NULL only before row 1500: the chunk holding rows
  // 1400-2099 carries a mask, yet group 2 has no NULL and must get none.
  // Names are NULL around each group boundary.
  constexpr size_t kRows = 3'500;
  constexpr size_t kGroupRows = 1'000;
  DataChunk all = DataChunk::EmptyFromSchema(TwoColSchema());
  for (size_t i = 0; i < kRows; ++i) {
    if (i < 1'500 && i % 97 == 0) {
      all.column(0).AppendNull();
    } else {
      all.column(0).AppendValue(Value::Int64(static_cast<int64_t>(i % 300)));
    }
    if (i % kGroupRows >= 990 || i % kGroupRows < 5) {
      all.column(1).AppendNull();
    } else {
      all.column(1).AppendValue(Value::String(std::to_string(1000 + i % 40)));
    }
  }
  TableBuilder by_chunk("t", TwoColSchema(), kGroupRows);
  for (size_t start = 0; start < kRows; start += 700) {
    ASSERT_TRUE(
        by_chunk.Append(all.Slice(start, std::min<size_t>(700, kRows - start)))
            .ok());
  }
  TableBuilder by_row("t", TwoColSchema(), kGroupRows);
  for (size_t r = 0; r < kRows; ++r) {
    DataChunk row = DataChunk::EmptyFromSchema(TwoColSchema());
    row.AppendRowFrom(all, r);
    ASSERT_TRUE(by_row.Append(row).ok());
  }
  const Table got = by_chunk.Finish().ValueOrDie();
  const Table want = by_row.Finish().ValueOrDie();
  ASSERT_EQ(got.num_row_groups(), want.num_row_groups());
  ASSERT_EQ(got.num_row_groups(), 4u);
  for (size_t g = 0; g < got.num_row_groups(); ++g) {
    const RowGroup& a = got.row_group(g);
    const RowGroup& b = want.row_group(g);
    ASSERT_EQ(a.num_rows(), b.num_rows()) << "group " << g;
    for (size_t c = 0; c < TwoColSchema().num_fields(); ++c) {
      SCOPED_TRACE(::testing::Message() << "group " << g << " column " << c);
      EXPECT_EQ(a.encoded_column(c).encoding, b.encoded_column(c).encoding);
      EXPECT_EQ(a.encoded_column(c).data, b.encoded_column(c).data);
      const ZoneMap& za = a.zone_map(c);
      const ZoneMap& zb = b.zone_map(c);
      EXPECT_EQ(za.valid, zb.valid);
      EXPECT_EQ(za.has_nulls, zb.has_nulls);
      EXPECT_EQ(za.min.ToString(), zb.min.ToString());
      EXPECT_EQ(za.max.ToString(), zb.max.ToString());
    }
  }
  EXPECT_TRUE(got.row_group(1).zone_map(0).has_nulls);
  EXPECT_FALSE(got.row_group(2).zone_map(0).has_nulls);
}

TEST(TableTest, RoundtripThroughChunks) {
  TableBuilder builder("t", TwoColSchema(), 1000);
  ASSERT_TRUE(builder.Append(MakeChunk({1, 2, 3}, {"a", "b", "c"})).ok());
  Table table = builder.Finish().ValueOrDie();
  auto chunks = table.ToChunks().ValueOrDie();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].num_rows(), 3u);
  EXPECT_EQ(chunks[0].GetValue(1, 1).string_value(), "b");
}

TEST(TableTest, TableZoneMapsMergeRowGroups) {
  TableBuilder builder("t", TwoColSchema(), 2);
  ASSERT_TRUE(
      builder.Append(MakeChunk({5, 1, 100, 7}, {"a", "b", "c", "d"})).ok());
  Table table = builder.Finish().ValueOrDie();
  EXPECT_EQ(table.table_zone_map(0).min.int64_value(), 1);
  EXPECT_EQ(table.table_zone_map(0).max.int64_value(), 100);
}

TEST(TableTest, RowGroupColumnPruningBytes) {
  TableBuilder builder("t", TwoColSchema(), 1000);
  std::vector<int64_t> ids;
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(i);
    names.push_back("row_" + std::to_string(i));
  }
  ASSERT_TRUE(builder.Append(MakeChunk(ids, names)).ok());
  Table table = builder.Finish().ValueOrDie();
  const RowGroup& rg = table.row_group(0);
  EXPECT_LT(rg.EncodedBytes({0}), rg.EncodedBytes());
  EXPECT_EQ(rg.EncodedBytes({0}) + rg.EncodedBytes({1}), rg.EncodedBytes());
}

TEST(TableTest, DecodeChunksSelectsColumns) {
  TableBuilder builder("t", TwoColSchema(), 1000);
  ASSERT_TRUE(builder.Append(MakeChunk({1, 2}, {"a", "b"})).ok());
  Table table = builder.Finish().ValueOrDie();
  auto chunks = table.row_group(0).DecodeChunks({1}).ValueOrDie();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].num_columns(), 1u);
  EXPECT_EQ(chunks[0].GetValue(0, 0).string_value(), "a");
}

TEST(ObjectStoreTest, PutGetRoundtrip) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {1, 2, 3}).ok());
  auto data = store.Get("k").ValueOrDie();
  EXPECT_EQ(data, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
}

TEST(ObjectStoreTest, RangedGet) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {0, 1, 2, 3, 4, 5}).ok());
  auto range = store.GetRange("k", 2, 3).ValueOrDie();
  EXPECT_EQ(range, (std::vector<uint8_t>{2, 3, 4}));
  EXPECT_TRUE(store.GetRange("k", 4, 10).status().IsOutOfRange());
}

TEST(ObjectStoreTest, StatsCountBytesAndRequests) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", std::vector<uint8_t>(100, 7)).ok());
  (void)store.Get("k");
  (void)store.GetRange("k", 0, 10);
  EXPECT_EQ(store.stats().put_requests, 1u);
  EXPECT_EQ(store.stats().get_requests, 2u);
  EXPECT_EQ(store.stats().bytes_written, 100u);
  EXPECT_EQ(store.stats().bytes_read, 110u);
  store.ResetStats();
  EXPECT_EQ(store.stats().get_requests, 0u);
}

TEST(ObjectStoreTest, ListByPrefix) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("tables/a/meta", {1}).ok());
  ASSERT_TRUE(store.Put("tables/a/rg0", {1}).ok());
  ASSERT_TRUE(store.Put("tables/b/meta", {1}).ok());
  auto keys = store.List("tables/a/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "tables/a/meta");
}

TEST(ObjectStoreTest, DeleteRemoves) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {1}).ok());
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_FALSE(store.Exists("k"));
  EXPECT_TRUE(store.Delete("k").IsNotFound());
}

Table MakeBigTable(size_t rows, size_t row_group_size = 1000) {
  TableBuilder builder("big", TwoColSchema(), row_group_size);
  Random rng(5);
  std::vector<int64_t> ids;
  std::vector<std::string> names;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(static_cast<int64_t>(i));
    names.push_back(rng.NextBool() ? "alpha" : "beta");
  }
  EXPECT_TRUE(builder.Append(MakeChunk(ids, names)).ok());
  return builder.Finish().ValueOrDie();
}

TEST(TableIoTest, WriteAndReadBack) {
  ObjectStore store;
  Table table = MakeBigTable(2500);
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  Table loaded = ReadTableFromStore(store, "big").ValueOrDie();
  EXPECT_EQ(loaded.num_rows(), 2500u);
  EXPECT_EQ(loaded.num_row_groups(), 3u);
  EXPECT_TRUE(loaded.schema() == table.schema());
  // Content equality on a sample.
  auto orig = table.ToChunks().ValueOrDie();
  auto back = loaded.ToChunks().ValueOrDie();
  ASSERT_EQ(orig.size(), back.size());
  EXPECT_EQ(orig[0].GetValue(5, 1).string_value(),
            back[0].GetValue(5, 1).string_value());
}

TEST(TableIoTest, ColumnGranularReadTouchesFewerBytes) {
  ObjectStore store;
  Table table = MakeBigTable(5000);
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  store.ResetStats();

  auto reader = StoredTableReader::Open(&store, "big").ValueOrDie();
  // Read only the narrow id column of row group 0.
  ASSERT_TRUE(reader.ReadColumn(0, 0).ok());
  const uint64_t id_only = store.stats().bytes_read;

  store.ResetStats();
  (void)store.Get("tables/big/rg0");
  const uint64_t whole_rg = store.stats().bytes_read;
  EXPECT_LT(id_only, whole_rg);
}

TEST(TableIoTest, StoredZoneMapsSurvive) {
  ObjectStore store;
  Table table = MakeBigTable(1000);
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  auto reader = StoredTableReader::Open(&store, "big").ValueOrDie();
  const ZoneMap& zm = reader.row_group_meta(0).zones[0];
  ASSERT_TRUE(zm.valid);
  EXPECT_EQ(zm.min.int64_value(), 0);
  EXPECT_EQ(zm.max.int64_value(), 999);
}

TEST(TableIoTest, OpenMissingTableIsNotFound) {
  ObjectStore store;
  EXPECT_TRUE(StoredTableReader::Open(&store, "nope").status().IsNotFound());
}

// ---------------------------------------------- decoded-size metadata ----

// What the recorded size must equal: the bytes a real decode produces.
uint64_t DecodeAndMeasure(const RowGroup& rg,
                          const std::vector<size_t>& indices) {
  const std::vector<DataChunk> chunks = rg.DecodeChunks(indices).ValueOrDie();
  uint64_t bytes = 0;
  for (const DataChunk& chunk : chunks) bytes += chunk.ByteSize();
  return bytes;
}

// Checks every row group of `table` over all columns, each single column,
// a reordered subset and the empty projection.
void ExpectDecodedBytesExact(const Table& table, const std::string& context) {
  const size_t n = table.schema().num_fields();
  std::vector<std::vector<size_t>> subsets = {{}};
  std::vector<size_t> all, odd_reversed;
  for (size_t c = 0; c < n; ++c) {
    all.push_back(c);
    subsets.push_back({c});
    if (c % 2 == 1) odd_reversed.insert(odd_reversed.begin(), c);
  }
  subsets.push_back(all);
  subsets.push_back(odd_reversed);
  ASSERT_GT(table.num_row_groups(), 0u) << context;
  for (size_t i = 0; i < table.num_row_groups(); ++i) {
    const RowGroup& rg = table.row_group(i);
    for (const std::vector<size_t>& subset : subsets) {
      EXPECT_EQ(rg.DecodedBytes(subset), DecodeAndMeasure(rg, subset))
          << context << " row group " << i << ", " << subset.size()
          << " column(s)";
    }
  }
}

LineitemSpec SmallLineitem() {
  LineitemSpec spec;
  spec.rows = 12'000;
  spec.row_group_size = 5'000;  // row groups end mid-chunk
  return spec;
}

TEST(DecodedBytesTest, TpchLikeTablesMatchDecode) {
  ExpectDecodedBytesExact(*MakeLineitemTable(SmallLineitem()).ValueOrDie(),
                          "lineitem");
  OrdersSpec orders;
  orders.rows = 6'000;
  orders.row_group_size = 4'096;
  ExpectDecodedBytesExact(*MakeOrdersTable(orders).ValueOrDie(), "orders");
  KvSpec kv;
  kv.rows = 9'000;
  kv.row_group_size = 3'000;
  ExpectDecodedBytesExact(*MakeKvTable(kv).ValueOrDie(), "kv");
}

TEST(DecodedBytesTest, NullableColumnsMatchDecode) {
  // Nulls only in the first chunk of each row group: every later chunk of
  // the group still carries a (clean) validity mask and pays for it.
  TableBuilder builder("t", TwoColSchema(), /*row_group_size=*/5'000);
  DataChunk chunk = DataChunk::EmptyFromSchema(TwoColSchema());
  for (int64_t i = 0; i < 12'000; ++i) {
    if (i % 5'000 < 7) {
      chunk.column(0).AppendNull();
      chunk.column(1).AppendNull();
    } else {
      chunk.column(0).AppendValue(Value::Int64(i));
      chunk.column(1).AppendValue(Value::String("name_" + std::to_string(i)));
    }
  }
  ASSERT_TRUE(builder.Append(chunk).ok());
  Table table = builder.Finish().ValueOrDie();
  ExpectDecodedBytesExact(table, "nullable");
  const RowGroup& rg = table.row_group(0);
  EXPECT_GT(rg.DecodedBytes({0}), uint64_t{8} * rg.num_rows());
}

TEST(DecodedBytesTest, AllValidSourceMaskIsNotCounted) {
  // A mask of all ones in the source is written to the wire, but the
  // decoder allocates none: the recorded size must follow the decoder.
  ColumnVector source = ColumnVector::FromInt64({1, 2, 3, 4});
  source.SetNull(3);
  ColumnVector all_valid = source.Gather(SelectionVector({0, 1, 2}));
  ASSERT_TRUE(all_valid.HasNulls());
  std::vector<EncodedColumn> columns;
  columns.push_back(EncodeColumn(all_valid, Encoding::kPlain).ValueOrDie());
  std::vector<ZoneMap> zones = {ZoneMap::Compute(all_valid)};
  RowGroup rg = RowGroup::Make(3, std::move(columns), zones).ValueOrDie();
  EXPECT_EQ(rg.DecodedBytes({0}), DecodeAndMeasure(rg, {0}));
  EXPECT_EQ(rg.DecodedBytes({0}), 24u);
}

TEST(DecodedBytesTest, StoreRoundTripKeepsSizes) {
  auto table = MakeLineitemTable(SmallLineitem()).ValueOrDie();
  ObjectStore store;
  ASSERT_TRUE(WriteTableToStore(*table, &store).ok());
  Table loaded = ReadTableFromStore(store, "lineitem").ValueOrDie();
  ExpectDecodedBytesExact(loaded, "store round trip");
  std::vector<size_t> all(table->schema().num_fields());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  ASSERT_EQ(loaded.num_row_groups(), table->num_row_groups());
  for (size_t i = 0; i < loaded.num_row_groups(); ++i) {
    EXPECT_EQ(loaded.row_group(i).DecodedBytes(all),
              table->row_group(i).DecodedBytes(all));
  }
}

TEST(DecodedBytesTest, ClusterShardsMatchDecode) {
  cluster::ClusterConfig config;
  config.num_nodes = 3;
  cluster::Cluster cl(config);
  auto lineitem = MakeLineitemTable(SmallLineitem()).ValueOrDie();
  ASSERT_TRUE(cl.RegisterSharded(lineitem).ok());
  for (int node = 0; node < cl.num_nodes(); ++node) {
    auto shard = cl.node(node).catalog().Lookup("lineitem").ValueOrDie();
    ExpectDecodedBytesExact(*shard, "shard " + std::to_string(node));
  }
}

TEST(DecodedBytesTest, ScanStatsNeedNoDecode) {
  auto table = MakeLineitemTable(SmallLineitem()).ValueOrDie();
  // Prunes on the generator's clustered order key.
  ExprPtr filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_orderkey"),
                             Expr::Lit(Value::Int64(2'000)));
  TableScanSource scan =
      TableScanSource::Make(table, {"l_comment", "l_quantity"}, filter)
          .ValueOrDie();
  const TableScanSource::ScanStats planned = scan.Stats();
  TableScanSource::ScanStats produced;
  std::vector<ScanBatch> batches = scan.Produce(&produced).ValueOrDie();
  uint64_t decoded = 0, rows = 0;
  for (const ScanBatch& batch : batches) {
    for (const ScanChunk& sc : batch.chunks) {
      decoded += sc.chunk.ByteSize();
      rows += sc.chunk.num_rows();
    }
  }
  EXPECT_EQ(planned.decoded_bytes, decoded);
  EXPECT_EQ(planned.rows_produced, rows);
  EXPECT_EQ(planned.row_groups_read(), batches.size());
  EXPECT_EQ(planned.row_groups_total, produced.row_groups_total);
  EXPECT_EQ(planned.row_groups_pruned, produced.row_groups_pruned);
  EXPECT_EQ(planned.rows_produced, produced.rows_produced);
  EXPECT_EQ(planned.encoded_bytes_read, produced.encoded_bytes_read);
  EXPECT_EQ(planned.decoded_bytes, produced.decoded_bytes);
}

TEST(DecodedBytesTest, DecodeChunksSplitsLongStringsWithNulls) {
  // 2*2048+1 rows of strings too long for the small-string buffer.
  const size_t rows = 2 * kVectorSize + 1;
  const Schema schema({{"s", DataType::kString}});
  ColumnVector col(DataType::kString);
  for (size_t i = 0; i < rows; ++i) {
    if (i % 97 == 3) {
      col.AppendNull();
    } else {
      col.AppendValue(Value::String("a long string value, row number " +
                                    std::to_string(i)));
    }
  }
  TableBuilder builder("strings", schema, /*row_group_size=*/rows);
  ASSERT_TRUE(builder.Append(DataChunk({col})).ok());
  Table table = builder.Finish().ValueOrDie();
  ASSERT_EQ(table.num_row_groups(), 1u);
  std::vector<DataChunk> chunks =
      table.row_group(0).DecodeChunks({0}).ValueOrDie();
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].num_rows(), kVectorSize);
  EXPECT_EQ(chunks[1].num_rows(), kVectorSize);
  EXPECT_EQ(chunks[2].num_rows(), 1u);
  size_t row = 0;
  for (const DataChunk& chunk : chunks) {
    ASSERT_TRUE(chunk.IsWellFormed());
    EXPECT_TRUE(chunk.column(0).HasNulls());
    for (size_t r = 0; r < chunk.num_rows(); ++r, ++row) {
      const ColumnVector& got = chunk.column(0);
      ASSERT_EQ(got.IsValid(r), col.IsValid(row)) << "row " << row;
      if (col.IsValid(row)) {
        EXPECT_EQ(got.strs()[r], col.strs()[row]) << "row " << row;
      }
    }
  }
  EXPECT_EQ(row, rows);
  EXPECT_EQ(table.row_group(0).DecodedBytes({0}),
            DecodeAndMeasure(table.row_group(0), {0}));
}

TEST(DecodedBytesTest, BadBytesAreAStatus) {
  // Row counts that disagree, and payloads the decoder would refuse, fail
  // RowGroup::Make instead of reaching a decode.
  ColumnVector ids = ColumnVector::FromInt64({1, 2, 3});
  const std::vector<ZoneMap> zones = {ZoneMap::Compute(ids)};
  std::vector<EncodedColumn> short_rows;
  short_rows.push_back(EncodeColumn(ids, Encoding::kPlain).ValueOrDie());
  Result<RowGroup> miscounted = RowGroup::Make(4, std::move(short_rows), zones);
  EXPECT_TRUE(miscounted.status().IsInvalidArgument());
  std::vector<EncodedColumn> truncated;
  truncated.push_back(EncodeColumn(ids, Encoding::kPlain).ValueOrDie());
  truncated[0].data.pop_back();
  Result<RowGroup> cut = RowGroup::Make(3, std::move(truncated), zones);
  EXPECT_TRUE(cut.status().IsOutOfRange());

  // The same through the store: a truncated row-group object.
  ObjectStore store;
  Table table = MakeBigTable(1'500);
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  std::vector<uint8_t> rg0 = store.Get("tables/big/rg0").ValueOrDie();
  rg0.resize(rg0.size() - 3);
  ASSERT_TRUE(store.Put("tables/big/rg0", std::move(rg0)).ok());
  EXPECT_FALSE(ReadTableFromStore(store, "big").ok());

  // A stored column type that disagrees with the schema. Metadata layout:
  // magic, table name, field count, (name, type) per field, row-group
  // count, then row group 0's row count and column 0's offset, length,
  // encoding and type.
  ObjectStore typed;
  ASSERT_TRUE(WriteTableToStore(table, &typed).ok());
  std::vector<uint8_t> meta = typed.Get("tables/big/meta").ValueOrDie();
  size_t pos = 4 + (4 + 3) + 4;
  for (const Field& f : table.schema().fields()) pos += 4 + f.name.size() + 1;
  pos += 4 + 4 + 8 + 8 + 1;
  ASSERT_EQ(meta[pos], static_cast<uint8_t>(DataType::kInt64));
  meta[pos] = static_cast<uint8_t>(DataType::kInt32);
  ASSERT_TRUE(typed.Put("tables/big/meta", std::move(meta)).ok());
  EXPECT_TRUE(ReadTableFromStore(typed, "big").status().IsIOError());
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  auto table = std::make_shared<Table>(MakeBigTable(10));
  ASSERT_TRUE(catalog.Register(table).ok());
  EXPECT_TRUE(catalog.Has("big"));
  EXPECT_EQ(catalog.Lookup("big").ValueOrDie()->num_rows(), 10u);
  EXPECT_TRUE(catalog.Lookup("other").status().IsNotFound());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
}

TEST(CatalogTest, RejectsNullAndUnnamed) {
  Catalog catalog;
  EXPECT_TRUE(catalog.Register(nullptr).IsInvalidArgument());
}

}  // namespace
}  // namespace dflow
