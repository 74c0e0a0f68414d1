#ifndef DFLOW_STORAGE_TABLE_IO_H_
#define DFLOW_STORAGE_TABLE_IO_H_

#include <string>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/storage/object_store.h"
#include "dflow/storage/table.h"

namespace dflow {

/// Table <-> object-store persistence.
///
/// Layout (one table = one metadata object + one data object per row group):
///   tables/<name>/meta   schema, row-group directory, zone maps,
///                        per-column (offset, length, encoding) entries
///   tables/<name>/rg<i>  concatenated encoded column payloads
///
/// Because every column's byte range is in the directory, a reader can fetch
/// a single column of a single row group with one ranged GET — which is what
/// makes storage-side projection pushdown meaningful: unprojected columns
/// never leave the device.
Status WriteTableToStore(const Table& table, ObjectStore* store);

/// Reads the whole table back (metadata + all row groups).
Result<Table> ReadTableFromStore(const ObjectStore& store,
                                 const std::string& name);

/// Column-granular reader over a stored table. Opens the metadata once and
/// then serves ranged reads.
class StoredTableReader {
 public:
  /// Per-column location within a row-group data object.
  struct ColumnLocation {
    uint64_t offset = 0;
    uint64_t length = 0;
    Encoding encoding = Encoding::kPlain;
    DataType type = DataType::kInt64;
  };

  /// Row-group directory entry.
  struct RowGroupMeta {
    uint32_t num_rows = 0;
    std::vector<ColumnLocation> columns;
    std::vector<ZoneMap> zones;
  };

  static Result<StoredTableReader> Open(const ObjectStore* store,
                                        const std::string& name);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_row_groups() const { return row_groups_.size(); }
  const RowGroupMeta& row_group_meta(size_t i) const { return row_groups_[i]; }

  /// Fetches and returns one encoded column via a ranged GET.
  Result<EncodedColumn> ReadColumn(size_t row_group, size_t column) const;

 private:
  StoredTableReader() = default;

  const ObjectStore* store_ = nullptr;
  std::string name_;
  Schema schema_;
  std::vector<RowGroupMeta> row_groups_;
};

}  // namespace dflow

#endif  // DFLOW_STORAGE_TABLE_IO_H_
