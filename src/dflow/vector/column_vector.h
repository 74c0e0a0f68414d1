#ifndef DFLOW_VECTOR_COLUMN_VECTOR_H_
#define DFLOW_VECTOR_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dflow/types/data_type.h"
#include "dflow/types/value.h"

namespace dflow {

/// Indices of rows selected out of a chunk; the standard vectorized-filter
/// representation (DuckDB/Velox style).
class SelectionVector {
 public:
  SelectionVector() = default;
  explicit SelectionVector(std::vector<uint32_t> indices)
      : indices_(std::move(indices)) {}

  size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  uint32_t operator[](size_t i) const { return indices_[i]; }
  void Append(uint32_t idx) { indices_.push_back(idx); }
  void Clear() { indices_.clear(); }
  const std::vector<uint32_t>& indices() const { return indices_; }

 private:
  std::vector<uint32_t> indices_;
};

/// A typed column of values with optional null tracking.
///
/// Storage is one std::vector chosen by physical type:
///   kBool            -> uint8_t
///   kInt32, kDate32  -> int32_t
///   kInt64           -> int64_t
///   kDouble          -> double
///   kString          -> std::string
///
/// Validity is a byte-per-row mask, allocated lazily on the first null
/// (columns with no nulls pay nothing). ByteSize() reports the wire size of
/// the column — the quantity every data-movement experiment accounts in.
class ColumnVector {
 public:
  ColumnVector() : type_(DataType::kInt64) { InitStorage(); }
  explicit ColumnVector(DataType type) : type_(type) { InitStorage(); }

  ColumnVector(const ColumnVector&) = default;
  ColumnVector& operator=(const ColumnVector&) = default;
  ColumnVector(ColumnVector&&) = default;
  ColumnVector& operator=(ColumnVector&&) = default;

  /// Convenience factories for tests and generators.
  static ColumnVector FromInt32(std::vector<int32_t> values);
  static ColumnVector FromInt64(std::vector<int64_t> values);
  static ColumnVector FromDouble(std::vector<double> values);
  static ColumnVector FromString(std::vector<std::string> values);
  static ColumnVector FromBool(std::vector<uint8_t> values);
  static ColumnVector FromDate32(std::vector<int32_t> days);

  DataType type() const { return type_; }
  size_t size() const;

  /// Typed storage accessors. Calling the wrong one aborts.
  std::vector<uint8_t>& bool_data() { return std::get<std::vector<uint8_t>>(data_); }
  const std::vector<uint8_t>& bool_data() const {
    return std::get<std::vector<uint8_t>>(data_);
  }
  std::vector<int32_t>& i32() { return std::get<std::vector<int32_t>>(data_); }
  const std::vector<int32_t>& i32() const {
    return std::get<std::vector<int32_t>>(data_);
  }
  std::vector<int64_t>& i64() { return std::get<std::vector<int64_t>>(data_); }
  const std::vector<int64_t>& i64() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  std::vector<double>& f64() { return std::get<std::vector<double>>(data_); }
  const std::vector<double>& f64() const {
    return std::get<std::vector<double>>(data_);
  }
  std::vector<std::string>& strs() {
    return std::get<std::vector<std::string>>(data_);
  }
  const std::vector<std::string>& strs() const {
    return std::get<std::vector<std::string>>(data_);
  }

  /// Typed storage by element type (uint8_t, int32_t, int64_t, double or
  /// std::string); the wrong one aborts.
  template <typename T>
  std::vector<T>& data() {
    return std::get<std::vector<T>>(data_);
  }
  /// Calls `fn` with the typed storage vector; `fn` must accept each of the
  /// five storage types.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), data_);
  }

  /// Null handling. The mask is lazily allocated: HasNulls() is false until
  /// the first SetNull/AppendNull.
  bool HasNulls() const { return !validity_.empty(); }
  bool IsValid(size_t i) const { return validity_.empty() || validity_[i] != 0; }
  void SetNull(size_t i);

  /// Generic element access (slower than typed paths; used at boundaries).
  Value GetValue(size_t i) const;
  void AppendValue(const Value& v);
  void AppendNull();

  /// Appends `other[index]` to this column. Types must match.
  void AppendFrom(const ColumnVector& other, size_t index);

  /// Appends rows [start, start + count) of `other`: the same column as
  /// `count` AppendFrom calls, so this one gains a validity mask iff one of
  /// those rows is NULL. Types must match.
  void AppendRange(const ColumnVector& other, size_t start, size_t count);

  /// Appends rows rows[0], ..., rows[count - 1] of `other`, in that order:
  /// the same column as `count` AppendFrom calls, so a NULL row appends the
  /// type's default value and this one gains a validity mask iff one of
  /// those rows is NULL (Gather, by contrast, copies the source's mask and
  /// slots whole). Types must match.
  void AppendRows(const ColumnVector& other, const uint32_t* rows,
                  size_t count);

  /// Grows or shrinks to `n` rows; new rows are valid and hold the type's
  /// default value (0, 0.0, false, "").
  void Resize(size_t n);

  void Reserve(size_t n);
  void Clear();

  /// New column containing the selected rows, in selection order.
  ColumnVector Gather(const SelectionVector& sel) const;

  /// Moves rows [start, start + count) into a new column; those rows of
  /// this one are left valid but unspecified. Like Gather, the new column
  /// carries a validity mask iff this one does.
  ColumnVector TakeRange(size_t start, size_t count);

  /// Wire size in bytes: fixed width * rows, or string byte total plus a
  /// 4-byte length per row, plus the validity mask if present.
  uint64_t ByteSize() const;

 private:
  void InitStorage();
  void EnsureValidity();

  DataType type_;
  std::variant<std::vector<uint8_t>, std::vector<int32_t>,
               std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
  std::vector<uint8_t> validity_;  // empty == all valid
};

}  // namespace dflow

#endif  // DFLOW_VECTOR_COLUMN_VECTOR_H_
