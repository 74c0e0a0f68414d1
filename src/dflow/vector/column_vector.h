#ifndef DFLOW_VECTOR_COLUMN_VECTOR_H_
#define DFLOW_VECTOR_COLUMN_VECTOR_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
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

/// The storage of a STRING column: every row's bytes back to back in one
/// arena, and 64-bit offsets that never wrap (a sort buffer or an aggregate
/// key column has no row bound). Row i is bytes [offsets[i], offsets[i+1]).
/// Reading a row yields a std::string_view into the arena, valid until the
/// column next grows. An empty column allocates nothing: the leading 0
/// offset is written with the first row.
class StringColumn {
 public:
  using value_type = std::string_view;

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::string_view operator[](size_t i) const {
    return std::string_view(bytes_.data() + offsets_[i],
                            static_cast<size_t>(offsets_[i + 1] - offsets_[i]));
  }
  /// The arena: every row's bytes, in row order.
  const std::vector<char>& bytes() const { return bytes_; }
  /// Row i's bytes start at offsets()[i] and end at offsets()[i + 1]; the
  /// first is 0, and an empty column has none.
  const std::vector<uint64_t>& offsets() const { return offsets_; }

  void push_back(std::string_view s);
  /// Appends `count` rows, row i holding view(i), sizing the arena once.
  /// The views must not point into this column.
  template <typename ViewFn>
  void AppendViews(size_t count, ViewFn view);
  /// Appends the empty string (the type's default value).
  void emplace_back() { push_back(std::string_view()); }
  /// Appends rows [start, start + count) of `other` with one byte copy.
  void AppendRange(const StringColumn& other, size_t start, size_t count);
  /// Reserves offsets for `rows` rows in all.
  void reserve(size_t rows);
  /// Grows with empty strings or drops trailing rows.
  void resize(size_t n);
  void clear();

 private:
  void EnsureLeadingOffset() {
    if (offsets_.empty()) offsets_.push_back(0);
  }

  std::vector<char> bytes_;
  std::vector<uint64_t> offsets_;  // size() + 1 entries, or none
};

template <typename ViewFn>
void StringColumn::AppendViews(size_t count, ViewFn view) {
  if (count == 0) return;
  EnsureLeadingOffset();
  size_t bytes = 0;
  for (size_t i = 0; i < count; ++i) bytes += view(i).size();
  size_t end = bytes_.size();
  bytes_.resize(end + bytes);
  const size_t at = offsets_.size();
  offsets_.resize(at + count);
  char* out = bytes_.data();
  uint64_t* offsets = offsets_.data() + at;
  for (size_t i = 0; i < count; ++i) {
    const std::string_view s = view(i);
    if (!s.empty()) std::memcpy(out + end, s.data(), s.size());
    end += s.size();
    offsets[i] = end;
  }
}

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
  StringColumn& strs() { return std::get<StringColumn>(data_); }
  const StringColumn& strs() const { return std::get<StringColumn>(data_); }

  /// Fixed-width storage by element type (uint8_t, int32_t, int64_t or
  /// double); the wrong one aborts.
  template <typename T>
  std::vector<T>& data() {
    return std::get<std::vector<T>>(data_);
  }
  /// Calls `fn` with the typed storage; `fn` must accept each of the five
  /// storage types (four std::vectors and StringColumn).
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), data_);
  }

  /// Null handling. The mask is lazily allocated: HasNulls() is false until
  /// the first SetNull/AppendNull.
  bool HasNulls() const { return !validity_.empty(); }
  bool IsValid(size_t i) const { return validity_.empty() || validity_[i] != 0; }
  void SetNull(size_t i);
  /// Sets the mask from size() bytes of `valid` (nonzero: valid). The
  /// column then has a mask even when no byte is zero.
  void SetValidity(const uint8_t* valid);

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

  /// Rows [start, start + count) as a new column. Like Gather, the new
  /// column carries a validity mask iff this one does.
  ColumnVector TakeRange(size_t start, size_t count) const;

  /// Wire size in bytes: fixed width * rows, or string byte total plus a
  /// 4-byte length per row, plus the validity mask if present. O(1).
  uint64_t ByteSize() const;

 private:
  void InitStorage();
  void EnsureValidity();

  DataType type_;
  std::variant<std::vector<uint8_t>, std::vector<int32_t>,
               std::vector<int64_t>, std::vector<double>, StringColumn>
      data_;
  std::vector<uint8_t> validity_;  // empty == all valid
};

}  // namespace dflow

#endif  // DFLOW_VECTOR_COLUMN_VECTOR_H_
