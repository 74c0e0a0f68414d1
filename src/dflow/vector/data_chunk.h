#ifndef DFLOW_VECTOR_DATA_CHUNK_H_
#define DFLOW_VECTOR_DATA_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/types/schema.h"
#include "dflow/vector/column_vector.h"

namespace dflow {

/// Number of tuples in a full processing batch. Everything flowing between
/// operators, over links, and through accelerators is chopped into chunks of
/// at most this many rows.
inline constexpr size_t kVectorSize = 2048;

/// A horizontal batch of rows stored column-wise: the unit of data flow.
class DataChunk {
 public:
  DataChunk() = default;
  explicit DataChunk(std::vector<ColumnVector> columns)
      : columns_(std::move(columns)) {}

  /// An empty chunk with one empty column per schema field.
  static DataChunk EmptyFromSchema(const Schema& schema);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  bool empty() const { return num_rows() == 0; }

  ColumnVector& column(size_t i) { return columns_[i]; }
  const ColumnVector& column(size_t i) const { return columns_[i]; }
  std::vector<ColumnVector>& columns() { return columns_; }
  const std::vector<ColumnVector>& columns() const { return columns_; }

  void AddColumn(ColumnVector col) { columns_.push_back(std::move(col)); }

  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// Appends row `row` of `other` to this chunk (columns must line up).
  void AppendRowFrom(const DataChunk& other, size_t row);

  /// New chunk with only the selected rows (all columns gathered).
  DataChunk Gather(const SelectionVector& sel) const;

  /// New chunk with rows [start, start + count): the same chunk as a
  /// Gather of those rows, copied as one byte range per column.
  DataChunk Slice(size_t start, size_t count) const;

  /// New chunk with only the given columns, in the given order.
  DataChunk SelectColumns(const std::vector<size_t>& indices) const;

  /// Wire size: sum of column byte sizes.
  uint64_t ByteSize() const;

  /// Checks all columns have equal length; used by tests and debug paths.
  bool IsWellFormed() const;

  std::string ToString(size_t max_rows = 10) const;

 private:
  std::vector<ColumnVector> columns_;
};

/// One column of a ChunkView: row r of the view is row `sel[r]` of
/// `*column`, or row r itself when `sel` is null.
struct ViewColumn {
  const ColumnVector* column = nullptr;
  const SelectionVector* sel = nullptr;

  size_t row(size_t r) const { return sel == nullptr ? r : (*sel)[r]; }
};

/// Rows handed from one operator to the next without copying them: each
/// column reads a chunk's column in place through a selection, or a dense
/// column computed over the selected rows only. The fused kernel passes its
/// (chunk, selection) pair on in this form.
struct ChunkView {
  std::vector<ViewColumn> columns;
  size_t num_rows = 0;

  /// Every column of `chunk`, through `sel` (all rows when null).
  static ChunkView Of(const DataChunk& chunk,
                      const SelectionVector* sel = nullptr);

  /// The view's rows as a chunk: selected columns gathered, dense ones
  /// copied. Equal to gathering the selection out of the source chunk.
  DataChunk Materialize() const;
};

/// Content checksum over every column's data and validity, independent of
/// object identity. Computed at the sender and verified at the receiver by
/// the unreliable-fabric recovery layer — the same hash everywhere, like the
/// partitioning hash (see common/hash.h).
uint64_t ChecksumChunk(const DataChunk& chunk);

}  // namespace dflow

#endif  // DFLOW_VECTOR_DATA_CHUNK_H_
