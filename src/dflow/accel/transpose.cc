#include "dflow/accel/transpose.h"

#include <cstring>

#include "dflow/common/logging.h"

namespace dflow {

namespace {

Status CheckFixedWidthSchema(const Schema& schema) {
  for (const Field& f : schema.fields()) {
    if (!IsFixedWidth(f.type)) {
      return Status::InvalidArgument("RowStore requires fixed-width columns; '" +
                                     f.name + "' is " +
                                     std::string(DataTypeToString(f.type)));
    }
  }
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("RowStore requires at least one column");
  }
  return Status::OK();
}

}  // namespace

Result<RowStore> RowStore::Empty(const Schema& schema) {
  DFLOW_RETURN_NOT_OK(CheckFixedWidthSchema(schema));
  RowStore store;
  store.schema_ = schema;
  uint32_t offset = 0;
  for (const Field& f : schema.fields()) {
    store.offsets_.push_back(offset);
    offset += FixedWidthBytes(f.type);
  }
  store.row_width_ = offset;
  return store;
}

Result<RowStore> RowStore::FromChunk(const Schema& schema,
                                     const DataChunk& chunk) {
  if (chunk.num_columns() != schema.num_fields()) {
    return Status::InvalidArgument("chunk arity does not match schema");
  }
  DFLOW_ASSIGN_OR_RETURN(RowStore store, Empty(schema));
  const size_t n = chunk.num_rows();
  store.bytes_.resize(n * store.row_width_);
  store.num_rows_ = n;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const ColumnVector& col = chunk.column(c);
    if (col.HasNulls()) {
      return Status::InvalidArgument("RowStore does not support NULLs");
    }
    const uint32_t width = FixedWidthBytes(schema.field(c).type);
    const uint32_t offset = store.offsets_[c];
    for (size_t r = 0; r < n; ++r) {
      uint8_t* dst = store.bytes_.data() + r * store.row_width_ + offset;
      switch (schema.field(c).type) {
        case DataType::kBool:
          dst[0] = col.bool_data()[r];
          break;
        case DataType::kInt32:
        case DataType::kDate32:
          std::memcpy(dst, &col.i32()[r], width);
          break;
        case DataType::kInt64:
          std::memcpy(dst, &col.i64()[r], width);
          break;
        case DataType::kDouble:
          std::memcpy(dst, &col.f64()[r], width);
          break;
        case DataType::kString:
          return Status::Internal("unreachable: string in fixed-width schema");
      }
    }
  }
  return store;
}

Status RowStore::AppendRow(const std::vector<Value>& values) {
  if (values.size() != schema_.num_fields()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  const size_t base = bytes_.size();
  bytes_.resize(base + row_width_);
  for (size_t c = 0; c < values.size(); ++c) {
    const Value& v = values[c];
    if (v.is_null()) {
      return Status::InvalidArgument("RowStore does not support NULLs");
    }
    if (v.type() != schema_.field(c).type) {
      return Status::InvalidArgument("row value type mismatch at column " +
                                     std::to_string(c));
    }
    uint8_t* dst = bytes_.data() + base + offsets_[c];
    switch (v.type()) {
      case DataType::kBool: {
        dst[0] = v.bool_value() ? 1 : 0;
        break;
      }
      case DataType::kInt32: {
        const int32_t x = v.int32_value();
        std::memcpy(dst, &x, sizeof(x));
        break;
      }
      case DataType::kDate32: {
        const int32_t x = v.date32_value();
        std::memcpy(dst, &x, sizeof(x));
        break;
      }
      case DataType::kInt64: {
        const int64_t x = v.int64_value();
        std::memcpy(dst, &x, sizeof(x));
        break;
      }
      case DataType::kDouble: {
        const double x = v.double_value();
        std::memcpy(dst, &x, sizeof(x));
        break;
      }
      case DataType::kString:
        return Status::Internal("unreachable");
    }
  }
  num_rows_ += 1;
  return Status::OK();
}

Result<DataChunk> RowStore::ToColumnar() const {
  std::vector<ColumnVector> cols;
  cols.reserve(schema_.num_fields());
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    DFLOW_ASSIGN_OR_RETURN(ColumnVector col, ReadColumn(c));
    cols.push_back(std::move(col));
  }
  return DataChunk(std::move(cols));
}

Result<ColumnVector> RowStore::ReadColumn(size_t column) const {
  if (column >= schema_.num_fields()) {
    return Status::OutOfRange("column index out of range");
  }
  const DataType type = schema_.field(column).type;
  const uint32_t offset = offsets_[column];
  ColumnVector col(type);
  col.Reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    const uint8_t* src = bytes_.data() + r * row_width_ + offset;
    switch (type) {
      case DataType::kBool:
        col.bool_data().push_back(src[0]);
        break;
      case DataType::kInt32:
      case DataType::kDate32: {
        int32_t x;
        std::memcpy(&x, src, sizeof(x));
        col.i32().push_back(x);
        break;
      }
      case DataType::kInt64: {
        int64_t x;
        std::memcpy(&x, src, sizeof(x));
        col.i64().push_back(x);
        break;
      }
      case DataType::kDouble: {
        double x;
        std::memcpy(&x, src, sizeof(x));
        col.f64().push_back(x);
        break;
      }
      case DataType::kString:
        return Status::Internal("unreachable");
    }
  }
  return col;
}

}  // namespace dflow
