#ifndef DFLOW_STORAGE_TABLE_H_
#define DFLOW_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/encode/encoding.h"
#include "dflow/storage/zone_map.h"
#include "dflow/types/schema.h"
#include "dflow/vector/data_chunk.h"

namespace dflow {

/// Default number of rows per row group.
inline constexpr size_t kDefaultRowGroupSize = 65536;

/// A horizontal partition of a table: each column encoded independently, with
/// a zone map per column. Row groups are the unit of storage-side pruning
/// and of scan parallelism.
class RowGroup {
 public:
  /// The one way to build a row group, from freshly encoded columns or from
  /// bytes read back from a store. Checks that every column has `num_rows`
  /// rows and a zone map, and records each column's decoded size by walking
  /// its encoding (DecodedByteSize). Bytes the decoder would refuse are a
  /// Status here, so a bad store object never reaches a decode.
  static Result<RowGroup> Make(uint32_t num_rows,
                               std::vector<EncodedColumn> columns,
                               std::vector<ZoneMap> zones);

  uint32_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const EncodedColumn& encoded_column(size_t i) const { return columns_[i]; }
  const ZoneMap& zone_map(size_t i) const { return zones_[i]; }

  /// Decodes the given columns into a chunk-sized batch sequence. `indices`
  /// selects and orders the output columns. One ColumnDecoder per column
  /// walks its bytes once, writing each kVectorSize-row span straight into
  /// that chunk's column: no full-column intermediate, no split.
  Result<std::vector<DataChunk>> DecodeChunks(
      const std::vector<size_t>& indices) const;

  /// Encoded (on-wire/at-rest) size of the selected columns.
  uint64_t EncodedBytes(const std::vector<size_t>& indices) const;
  uint64_t EncodedBytes() const;

  /// In-memory size of the selected columns once decoded: exactly the sum
  /// of DataChunk::ByteSize() over DecodeChunks(indices), from metadata.
  uint64_t DecodedBytes(const std::vector<size_t>& indices) const;

 private:
  RowGroup(uint32_t num_rows, std::vector<EncodedColumn> columns,
           std::vector<ZoneMap> zones, std::vector<uint64_t> decoded_bytes)
      : num_rows_(num_rows),
        columns_(std::move(columns)),
        zones_(std::move(zones)),
        decoded_bytes_(std::move(decoded_bytes)) {}

  uint32_t num_rows_ = 0;
  std::vector<EncodedColumn> columns_;
  std::vector<ZoneMap> zones_;
  std::vector<uint64_t> decoded_bytes_;  // per column
};

/// An immutable columnar table: schema + row groups. Build with TableBuilder.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema, std::vector<RowGroup> row_groups);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_row_groups() const { return row_groups_.size(); }
  const RowGroup& row_group(size_t i) const { return row_groups_[i]; }
  uint64_t num_rows() const { return num_rows_; }

  /// Table-level zone map for a column (merged across row groups).
  const ZoneMap& table_zone_map(size_t col) const { return table_zones_[col]; }

  /// Total encoded bytes (the table's at-rest footprint).
  uint64_t EncodedBytes() const;

  /// Decodes the entire table into chunks (test/debug convenience).
  Result<std::vector<DataChunk>> ToChunks() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<RowGroup> row_groups_;
  std::vector<ZoneMap> table_zones_;
  uint64_t num_rows_ = 0;
};

/// Accumulates chunks and cuts them into encoded row groups.
class TableBuilder {
 public:
  TableBuilder(std::string name, Schema schema,
               size_t row_group_size = kDefaultRowGroupSize);

  /// Appends a chunk; its columns must match the schema arity and types.
  Status Append(const DataChunk& chunk);

  /// Finalizes and returns the table. The builder is consumed.
  Result<Table> Finish();

 private:
  Status FlushRowGroup();

  std::string name_;
  Schema schema_;
  size_t row_group_size_;
  DataChunk pending_;
  std::vector<RowGroup> row_groups_;
};

}  // namespace dflow

#endif  // DFLOW_STORAGE_TABLE_H_
