#include "dflow/workload/tpch_like.h"

#include <algorithm>

#include "dflow/common/random.h"
#include "dflow/vector/data_chunk.h"

namespace dflow {

namespace {

constexpr const char* kCommentWords[] = {
    "carefully", "final", "deposits", "sleep",  "quickly", "bold",
    "requests",  "haggle", "furiously", "ideas", "packages", "even",
};
constexpr size_t kNumCommentWords =
    sizeof(kCommentWords) / sizeof(kCommentWords[0]);

std::string MakeComment(Random* rng, bool special) {
  std::string comment;
  const int words = 3 + static_cast<int>(rng->NextUint64(3));
  for (int w = 0; w < words; ++w) {
    if (w > 0) comment += ' ';
    comment += kCommentWords[rng->NextUint64(kNumCommentWords)];
  }
  if (special) {
    comment += " special";
  }
  return comment;
}

}  // namespace

Result<std::shared_ptr<Table>> MakeLineitemTable(const LineitemSpec& spec) {
  Schema schema({{"l_orderkey", DataType::kInt64},
                 {"l_partkey", DataType::kInt64},
                 {"l_suppkey", DataType::kInt64},
                 {"l_quantity", DataType::kDouble},
                 {"l_extendedprice", DataType::kDouble},
                 {"l_discount", DataType::kDouble},
                 {"l_tax", DataType::kDouble},
                 {"l_returnflag", DataType::kString},
                 {"l_linestatus", DataType::kString},
                 {"l_shipdate", DataType::kDate32},
                 {"l_comment", DataType::kString}});
  TableBuilder builder(spec.name, schema, spec.row_group_size);
  Random rng(spec.seed);
  std::unique_ptr<ZipfGenerator> zipf;
  if (spec.orderkey_zipf_theta > 0.0) {
    zipf = std::make_unique<ZipfGenerator>(spec.num_orders,
                                           spec.orderkey_zipf_theta,
                                           spec.seed + 1);
  }
  uint64_t remaining = spec.rows;
  while (remaining > 0) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(remaining, kVectorSize));
    std::vector<int64_t> orderkey(n), partkey(n), suppkey(n);
    std::vector<double> quantity(n), extendedprice(n), discount(n), tax(n);
    std::vector<std::string> returnflag(n), linestatus(n), comment(n);
    std::vector<int32_t> shipdate(n);
    for (size_t i = 0; i < n; ++i) {
      orderkey[i] = zipf ? static_cast<int64_t>(zipf->Next())
                         : rng.NextInt64(0, spec.num_orders - 1);
      partkey[i] = rng.NextInt64(0, spec.num_parts - 1);
      suppkey[i] = rng.NextInt64(0, spec.num_suppliers - 1);
      quantity[i] = 1.0 + static_cast<double>(rng.NextUint64(50));
      extendedprice[i] = quantity[i] * rng.NextDouble(900.0, 105000.0) / 100.0;
      discount[i] = static_cast<double>(rng.NextUint64(11)) / 100.0;
      tax[i] = static_cast<double>(rng.NextUint64(9)) / 100.0;
      // One-letter codes are assigned as chars: GCC 12 reports a bogus
      // -Wrestrict on assigning a literal chosen by ?: to a std::string.
      returnflag[i].assign(1, "ANR"[rng.NextUint64(3)]);
      linestatus[i].assign(1, rng.NextBool() ? 'F' : 'O');
      shipdate[i] = kShipdateLo + static_cast<int32_t>(rng.NextUint64(
                                      kShipdateHi - kShipdateLo));
      comment[i] =
          MakeComment(&rng, rng.NextDouble() < spec.special_comment_fraction);
    }
    DataChunk chunk;
    chunk.AddColumn(ColumnVector::FromInt64(std::move(orderkey)));
    chunk.AddColumn(ColumnVector::FromInt64(std::move(partkey)));
    chunk.AddColumn(ColumnVector::FromInt64(std::move(suppkey)));
    chunk.AddColumn(ColumnVector::FromDouble(std::move(quantity)));
    chunk.AddColumn(ColumnVector::FromDouble(std::move(extendedprice)));
    chunk.AddColumn(ColumnVector::FromDouble(std::move(discount)));
    chunk.AddColumn(ColumnVector::FromDouble(std::move(tax)));
    chunk.AddColumn(ColumnVector::FromString(std::move(returnflag)));
    chunk.AddColumn(ColumnVector::FromString(std::move(linestatus)));
    chunk.AddColumn(ColumnVector::FromDate32(std::move(shipdate)));
    chunk.AddColumn(ColumnVector::FromString(std::move(comment)));
    DFLOW_RETURN_NOT_OK(builder.Append(chunk));
    remaining -= n;
  }
  DFLOW_ASSIGN_OR_RETURN(Table table, builder.Finish());
  return std::make_shared<Table>(std::move(table));
}

Result<std::shared_ptr<Table>> MakeOrdersTable(const OrdersSpec& spec) {
  Schema schema({{"o_orderkey", DataType::kInt64},
                 {"o_custkey", DataType::kInt64},
                 {"o_orderstatus", DataType::kString},
                 {"o_totalprice", DataType::kDouble},
                 {"o_orderdate", DataType::kDate32},
                 {"o_priority", DataType::kString}});
  TableBuilder builder(spec.name, schema, spec.row_group_size);
  Random rng(spec.seed);
  constexpr const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                         "4-NOT SPECIFIED", "5-LOW"};
  uint64_t produced = 0;
  while (produced < spec.rows) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(spec.rows - produced, kVectorSize));
    std::vector<int64_t> orderkey(n), custkey(n);
    std::vector<std::string> status(n), priority(n);
    std::vector<double> totalprice(n);
    std::vector<int32_t> orderdate(n);
    for (size_t i = 0; i < n; ++i) {
      orderkey[i] = static_cast<int64_t>(produced + i);
      custkey[i] = rng.NextInt64(0, spec.num_customers - 1);
      status[i].assign(1, "FOP"[rng.NextUint64(3)]);  // chars: see lineitem
      totalprice[i] = rng.NextDouble(1000.0, 500000.0);
      orderdate[i] = kShipdateLo + static_cast<int32_t>(rng.NextUint64(
                                       kShipdateHi - kShipdateLo));
      priority[i] = kPriorities[rng.NextUint64(5)];
    }
    DataChunk chunk;
    chunk.AddColumn(ColumnVector::FromInt64(std::move(orderkey)));
    chunk.AddColumn(ColumnVector::FromInt64(std::move(custkey)));
    chunk.AddColumn(ColumnVector::FromString(std::move(status)));
    chunk.AddColumn(ColumnVector::FromDouble(std::move(totalprice)));
    chunk.AddColumn(ColumnVector::FromDate32(std::move(orderdate)));
    chunk.AddColumn(ColumnVector::FromString(std::move(priority)));
    DFLOW_RETURN_NOT_OK(builder.Append(chunk));
    produced += n;
  }
  DFLOW_ASSIGN_OR_RETURN(Table table, builder.Finish());
  return std::make_shared<Table>(std::move(table));
}

Result<std::shared_ptr<Table>> MakeKvTable(const KvSpec& spec) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"payload", DataType::kString}});
  TableBuilder builder(spec.name, schema, spec.row_group_size);
  Random rng(spec.seed);
  std::unique_ptr<ZipfGenerator> zipf;
  if (spec.zipf_theta > 0.0) {
    zipf = std::make_unique<ZipfGenerator>(spec.key_space, spec.zipf_theta,
                                           spec.seed + 1);
  }
  uint64_t produced = 0;
  while (produced < spec.rows) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(spec.rows - produced, kVectorSize));
    std::vector<int64_t> ks(n), vs(n);
    std::vector<std::string> payloads(n);
    for (size_t i = 0; i < n; ++i) {
      ks[i] = zipf ? static_cast<int64_t>(zipf->Next())
                   : rng.NextInt64(0, spec.key_space - 1);
      vs[i] = rng.NextInt64(0, 1'000'000);
      payloads[i] = rng.NextString(spec.payload_len);
    }
    DataChunk chunk;
    chunk.AddColumn(ColumnVector::FromInt64(std::move(ks)));
    chunk.AddColumn(ColumnVector::FromInt64(std::move(vs)));
    chunk.AddColumn(ColumnVector::FromString(std::move(payloads)));
    DFLOW_RETURN_NOT_OK(builder.Append(chunk));
    produced += n;
  }
  DFLOW_ASSIGN_OR_RETURN(Table table, builder.Finish());
  return std::make_shared<Table>(std::move(table));
}

}  // namespace dflow
