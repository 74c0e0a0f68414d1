#include "dflow/storage/table_io.h"

#include "dflow/encode/byte_io.h"

namespace dflow {

namespace {

constexpr uint32_t kTableMetaMagic = 0xDF70AB1EU;

std::string MetaKey(const std::string& name) { return "tables/" + name + "/meta"; }

std::string RowGroupKey(const std::string& name, size_t i) {
  return "tables/" + name + "/rg" + std::to_string(i);
}

void WriteValue(const Value& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  w->PutU8(v.is_null() ? 1 : 0);
  if (v.is_null()) return;
  switch (v.type()) {
    case DataType::kBool:
      w->PutU8(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt32:
      w->PutI32(v.int32_value());
      break;
    case DataType::kDate32:
      w->PutI32(v.date32_value());
      break;
    case DataType::kInt64:
      w->PutI64(v.int64_value());
      break;
    case DataType::kDouble:
      w->PutDouble(v.double_value());
      break;
    case DataType::kString:
      w->PutString(v.string_value());
      break;
  }
}

Status ReadValue(ByteReader* r, Value* out) {
  uint8_t type_byte = 0, null_byte = 0;
  DFLOW_RETURN_NOT_OK(r->GetU8(&type_byte));
  DFLOW_RETURN_NOT_OK(r->GetU8(&null_byte));
  const DataType type = static_cast<DataType>(type_byte);
  if (null_byte) {
    *out = Value::Null(type);
    return Status::OK();
  }
  switch (type) {
    case DataType::kBool: {
      uint8_t v = 0;
      DFLOW_RETURN_NOT_OK(r->GetU8(&v));
      *out = Value::Bool(v != 0);
      return Status::OK();
    }
    case DataType::kInt32: {
      int32_t v = 0;
      DFLOW_RETURN_NOT_OK(r->GetI32(&v));
      *out = Value::Int32(v);
      return Status::OK();
    }
    case DataType::kDate32: {
      int32_t v = 0;
      DFLOW_RETURN_NOT_OK(r->GetI32(&v));
      *out = Value::Date32(v);
      return Status::OK();
    }
    case DataType::kInt64: {
      int64_t v = 0;
      DFLOW_RETURN_NOT_OK(r->GetI64(&v));
      *out = Value::Int64(v);
      return Status::OK();
    }
    case DataType::kDouble: {
      double v = 0;
      DFLOW_RETURN_NOT_OK(r->GetDouble(&v));
      *out = Value::Double(v);
      return Status::OK();
    }
    case DataType::kString: {
      std::string s;
      DFLOW_RETURN_NOT_OK(r->GetString(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
  }
  return Status::OutOfRange("corrupt Value type byte");
}

void WriteZoneMap(const ZoneMap& zm, ByteWriter* w) {
  w->PutU8(zm.valid ? 1 : 0);
  w->PutU8(zm.has_nulls ? 1 : 0);
  if (zm.valid) {
    WriteValue(zm.min, w);
    WriteValue(zm.max, w);
  }
}

Status ReadZoneMap(ByteReader* r, ZoneMap* zm) {
  uint8_t valid = 0, has_nulls = 0;
  DFLOW_RETURN_NOT_OK(r->GetU8(&valid));
  DFLOW_RETURN_NOT_OK(r->GetU8(&has_nulls));
  zm->valid = valid != 0;
  zm->has_nulls = has_nulls != 0;
  if (zm->valid) {
    DFLOW_RETURN_NOT_OK(ReadValue(r, &zm->min));
    DFLOW_RETURN_NOT_OK(ReadValue(r, &zm->max));
  }
  return Status::OK();
}

}  // namespace

Status WriteTableToStore(const Table& table, ObjectStore* store) {
  std::vector<uint8_t> meta;
  ByteWriter w(&meta);
  w.PutU32(kTableMetaMagic);
  w.PutString(table.name());
  w.PutU32(static_cast<uint32_t>(table.schema().num_fields()));
  for (const Field& f : table.schema().fields()) {
    w.PutString(f.name);
    w.PutU8(static_cast<uint8_t>(f.type));
  }
  w.PutU32(static_cast<uint32_t>(table.num_row_groups()));
  for (size_t i = 0; i < table.num_row_groups(); ++i) {
    const RowGroup& rg = table.row_group(i);
    w.PutU32(rg.num_rows());
    // Data object: concatenated column payloads; directory records ranges.
    std::vector<uint8_t> data;
    for (size_t c = 0; c < rg.num_columns(); ++c) {
      const EncodedColumn& ec = rg.encoded_column(c);
      w.PutU64(static_cast<uint64_t>(data.size()));          // offset
      w.PutU64(static_cast<uint64_t>(ec.data.size()));       // length
      w.PutU8(static_cast<uint8_t>(ec.encoding));
      w.PutU8(static_cast<uint8_t>(ec.type));
      WriteZoneMap(rg.zone_map(c), &w);
      data.insert(data.end(), ec.data.begin(), ec.data.end());
    }
    DFLOW_RETURN_NOT_OK(store->Put(RowGroupKey(table.name(), i), std::move(data)));
  }
  return store->Put(MetaKey(table.name()), std::move(meta));
}

Result<StoredTableReader> StoredTableReader::Open(const ObjectStore* store,
                                                  const std::string& name) {
  DFLOW_ASSIGN_OR_RETURN(std::vector<uint8_t> meta, store->Get(MetaKey(name)));
  ByteReader r(meta);
  uint32_t magic = 0;
  DFLOW_RETURN_NOT_OK(r.GetU32(&magic));
  if (magic != kTableMetaMagic) {
    return Status::IOError("bad table metadata magic for '" + name + "'");
  }
  StoredTableReader reader;
  reader.store_ = store;
  DFLOW_RETURN_NOT_OK(r.GetString(&reader.name_));
  uint32_t num_fields = 0;
  DFLOW_RETURN_NOT_OK(r.GetU32(&num_fields));
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint32_t i = 0; i < num_fields; ++i) {
    Field f;
    DFLOW_RETURN_NOT_OK(r.GetString(&f.name));
    uint8_t type_byte = 0;
    DFLOW_RETURN_NOT_OK(r.GetU8(&type_byte));
    f.type = static_cast<DataType>(type_byte);
    fields.push_back(std::move(f));
  }
  reader.schema_ = Schema(std::move(fields));
  uint32_t num_row_groups = 0;
  DFLOW_RETURN_NOT_OK(r.GetU32(&num_row_groups));
  reader.row_groups_.resize(num_row_groups);
  for (uint32_t i = 0; i < num_row_groups; ++i) {
    RowGroupMeta& rgm = reader.row_groups_[i];
    DFLOW_RETURN_NOT_OK(r.GetU32(&rgm.num_rows));
    rgm.columns.resize(num_fields);
    rgm.zones.resize(num_fields);
    for (uint32_t c = 0; c < num_fields; ++c) {
      ColumnLocation& loc = rgm.columns[c];
      DFLOW_RETURN_NOT_OK(r.GetU64(&loc.offset));
      DFLOW_RETURN_NOT_OK(r.GetU64(&loc.length));
      uint8_t enc = 0, type_byte = 0;
      DFLOW_RETURN_NOT_OK(r.GetU8(&enc));
      DFLOW_RETURN_NOT_OK(r.GetU8(&type_byte));
      loc.encoding = static_cast<Encoding>(enc);
      loc.type = static_cast<DataType>(type_byte);
      DFLOW_RETURN_NOT_OK(ReadZoneMap(&r, &rgm.zones[c]));
    }
  }
  return reader;
}

Result<EncodedColumn> StoredTableReader::ReadColumn(size_t row_group,
                                                    size_t column) const {
  if (row_group >= row_groups_.size()) {
    return Status::OutOfRange("row group index out of range");
  }
  const RowGroupMeta& rgm = row_groups_[row_group];
  if (column >= rgm.columns.size()) {
    return Status::OutOfRange("column index out of range");
  }
  const ColumnLocation& loc = rgm.columns[column];
  DFLOW_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      store_->GetRange(RowGroupKey(name_, row_group), loc.offset, loc.length));
  EncodedColumn ec;
  ec.type = loc.type;
  ec.encoding = loc.encoding;
  ec.num_rows = rgm.num_rows;
  ec.data = std::move(bytes);
  return ec;
}

Result<Table> ReadTableFromStore(const ObjectStore& store,
                                 const std::string& name) {
  DFLOW_ASSIGN_OR_RETURN(StoredTableReader reader,
                         StoredTableReader::Open(&store, name));
  std::vector<RowGroup> row_groups;
  row_groups.reserve(reader.num_row_groups());
  for (size_t i = 0; i < reader.num_row_groups(); ++i) {
    const auto& rgm = reader.row_group_meta(i);
    std::vector<EncodedColumn> columns;
    columns.reserve(rgm.columns.size());
    for (size_t c = 0; c < rgm.columns.size(); ++c) {
      DFLOW_ASSIGN_OR_RETURN(EncodedColumn ec, reader.ReadColumn(i, c));
      if (ec.type != reader.schema().field(c).type) {
        return Status::IOError("stored column type does not match schema in '" +
                               name + "'");
      }
      columns.push_back(std::move(ec));
    }
    DFLOW_ASSIGN_OR_RETURN(
        RowGroup rg, RowGroup::Make(rgm.num_rows, std::move(columns),
                                    rgm.zones));
    row_groups.push_back(std::move(rg));
  }
  return Table(reader.name(), reader.schema(), std::move(row_groups));
}

}  // namespace dflow
