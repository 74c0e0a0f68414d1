#include "dflow/storage/table.h"

#include <algorithm>

#include "dflow/common/logging.h"

namespace dflow {

Result<RowGroup> RowGroup::Make(uint32_t num_rows,
                                std::vector<EncodedColumn> columns,
                                std::vector<ZoneMap> zones) {
  if (zones.size() != columns.size()) {
    return Status::InvalidArgument("row group needs one zone map per column");
  }
  std::vector<uint64_t> decoded_bytes;
  decoded_bytes.reserve(columns.size());
  for (const EncodedColumn& col : columns) {
    if (col.num_rows != num_rows) {
      return Status::InvalidArgument("row group column has " +
                                     std::to_string(col.num_rows) +
                                     " rows, expected " +
                                     std::to_string(num_rows));
    }
    DFLOW_ASSIGN_OR_RETURN(uint64_t bytes, DecodedByteSize(col));
    decoded_bytes.push_back(bytes);
  }
  return RowGroup(num_rows, std::move(columns), std::move(zones),
                  std::move(decoded_bytes));
}

Result<std::vector<DataChunk>> RowGroup::DecodeChunks(
    const std::vector<size_t>& indices) const {
  std::vector<ColumnDecoder> decoders;
  decoders.reserve(indices.size());
  for (size_t idx : indices) {
    if (idx >= columns_.size()) {
      return Status::OutOfRange("column index out of range");
    }
    DFLOW_ASSIGN_OR_RETURN(ColumnDecoder decoder,
                           ColumnDecoder::Open(columns_[idx]));
    decoders.push_back(std::move(decoder));
  }
  std::vector<DataChunk> chunks;
  chunks.reserve((num_rows_ + kVectorSize - 1) / kVectorSize);
  for (size_t start = 0; start < num_rows_; start += kVectorSize) {
    const size_t count = std::min<size_t>(kVectorSize, num_rows_ - start);
    std::vector<ColumnVector> cols;
    cols.reserve(decoders.size());
    for (ColumnDecoder& decoder : decoders) {
      DFLOW_ASSIGN_OR_RETURN(ColumnVector col, decoder.Next(count));
      cols.push_back(std::move(col));
    }
    chunks.emplace_back(std::move(cols));
  }
  return chunks;
}

uint64_t RowGroup::EncodedBytes(const std::vector<size_t>& indices) const {
  uint64_t bytes = 0;
  for (size_t idx : indices) {
    DFLOW_CHECK_LT(idx, columns_.size());
    bytes += columns_[idx].ByteSize();
  }
  return bytes;
}

uint64_t RowGroup::DecodedBytes(const std::vector<size_t>& indices) const {
  uint64_t bytes = 0;
  for (size_t idx : indices) {
    DFLOW_CHECK_LT(idx, decoded_bytes_.size());
    bytes += decoded_bytes_[idx];
  }
  return bytes;
}

uint64_t RowGroup::EncodedBytes() const {
  uint64_t bytes = 0;
  for (const EncodedColumn& col : columns_) {
    bytes += col.ByteSize();
  }
  return bytes;
}

Table::Table(std::string name, Schema schema, std::vector<RowGroup> row_groups)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      row_groups_(std::move(row_groups)) {
  table_zones_.resize(schema_.num_fields());
  for (const RowGroup& rg : row_groups_) {
    num_rows_ += rg.num_rows();
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      table_zones_[c].Merge(rg.zone_map(c));
    }
  }
}

uint64_t Table::EncodedBytes() const {
  uint64_t bytes = 0;
  for (const RowGroup& rg : row_groups_) {
    bytes += rg.EncodedBytes();
  }
  return bytes;
}

Result<std::vector<DataChunk>> Table::ToChunks() const {
  std::vector<size_t> all(schema_.num_fields());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<DataChunk> out;
  for (const RowGroup& rg : row_groups_) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> chunks,
                           rg.DecodeChunks(all));
    for (DataChunk& chunk : chunks) out.push_back(std::move(chunk));
  }
  return out;
}

TableBuilder::TableBuilder(std::string name, Schema schema,
                           size_t row_group_size)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      row_group_size_(row_group_size),
      pending_(DataChunk::EmptyFromSchema(schema_)) {
  DFLOW_CHECK_GT(row_group_size_, 0u);
}

Status TableBuilder::Append(const DataChunk& chunk) {
  if (chunk.num_columns() != schema_.num_fields()) {
    return Status::InvalidArgument("chunk arity does not match schema");
  }
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    if (chunk.column(c).type() != schema_.field(c).type) {
      return Status::InvalidArgument(
          "chunk column type mismatch at column " + std::to_string(c));
    }
  }
  if (!chunk.IsWellFormed()) {
    return Status::InvalidArgument("chunk columns have unequal lengths");
  }
  // Copy up to the row-group boundary a column at a time, then flush.
  for (size_t r = 0; r < chunk.num_rows();) {
    const size_t count =
        std::min(chunk.num_rows() - r, row_group_size_ - pending_.num_rows());
    for (size_t c = 0; c < chunk.num_columns(); ++c) {
      pending_.column(c).AppendRange(chunk.column(c), r, count);
    }
    r += count;
    if (pending_.num_rows() >= row_group_size_) {
      DFLOW_RETURN_NOT_OK(FlushRowGroup());
    }
  }
  return Status::OK();
}

Status TableBuilder::FlushRowGroup() {
  if (pending_.num_rows() == 0) return Status::OK();
  std::vector<EncodedColumn> encoded;
  std::vector<ZoneMap> zones;
  encoded.reserve(pending_.num_columns());
  zones.reserve(pending_.num_columns());
  for (size_t c = 0; c < pending_.num_columns(); ++c) {
    const ColumnVector& col = pending_.column(c);
    const Encoding enc = ChooseEncoding(col);
    DFLOW_ASSIGN_OR_RETURN(EncodedColumn ec, EncodeColumn(col, enc));
    encoded.push_back(std::move(ec));
    zones.push_back(ZoneMap::Compute(col));
  }
  DFLOW_ASSIGN_OR_RETURN(
      RowGroup rg, RowGroup::Make(static_cast<uint32_t>(pending_.num_rows()),
                                  std::move(encoded), std::move(zones)));
  row_groups_.push_back(std::move(rg));
  pending_ = DataChunk::EmptyFromSchema(schema_);
  return Status::OK();
}

Result<Table> TableBuilder::Finish() {
  DFLOW_RETURN_NOT_OK(FlushRowGroup());
  return Table(std::move(name_), std::move(schema_), std::move(row_groups_));
}

}  // namespace dflow
