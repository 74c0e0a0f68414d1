#include "dflow/vector/column_vector.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "dflow/common/logging.h"

namespace dflow {

namespace {
// Physical storage kind for each logical type.
enum class Phys { kU8, kI32, kI64, kF64, kStr };

Phys PhysOf(DataType type) {
  switch (type) {
    case DataType::kBool:
      return Phys::kU8;
    case DataType::kInt32:
    case DataType::kDate32:
      return Phys::kI32;
    case DataType::kInt64:
      return Phys::kI64;
    case DataType::kDouble:
      return Phys::kF64;
    case DataType::kString:
      return Phys::kStr;
  }
  return Phys::kI64;
}
}  // namespace

void StringColumn::push_back(std::string_view s) {
  EnsureLeadingOffset();
  const size_t at = bytes_.size();
  // `s` may view this arena (a column appending its own row), which the
  // resize below can move: copy from the offset, not the old pointer.
  const bool own = !s.empty() &&
                   !std::less<const char*>()(s.data(), bytes_.data()) &&
                   std::less<const char*>()(s.data(), bytes_.data() + at);
  const size_t from = own ? static_cast<size_t>(s.data() - bytes_.data()) : 0;
  bytes_.resize(at + s.size());
  if (!s.empty()) {
    std::memcpy(bytes_.data() + at, own ? bytes_.data() + from : s.data(),
                s.size());
  }
  offsets_.push_back(bytes_.size());
}

void StringColumn::AppendRange(const StringColumn& other, size_t start,
                               size_t count) {
  if (count == 0) return;
  DFLOW_CHECK(&other != this);
  EnsureLeadingOffset();
  const uint64_t first = other.offsets_[start];
  const uint64_t last = other.offsets_[start + count];
  const uint64_t base = bytes_.size();
  bytes_.insert(bytes_.end(), other.bytes_.begin() + first,
                other.bytes_.begin() + last);
  const size_t at = offsets_.size();
  offsets_.resize(at + count);
  for (size_t i = 0; i < count; ++i) {
    offsets_[at + i] = base + (other.offsets_[start + i + 1] - first);
  }
}

void StringColumn::reserve(size_t rows) {
  if (rows > 0) offsets_.reserve(rows + 1);
}

void StringColumn::resize(size_t n) {
  const size_t rows = size();
  if (n == rows) return;
  if (n < rows) {
    bytes_.resize(offsets_[n]);
    offsets_.resize(n == 0 ? 0 : n + 1);
    return;
  }
  EnsureLeadingOffset();
  offsets_.resize(n + 1, bytes_.size());
}

void StringColumn::clear() {
  bytes_.clear();
  offsets_.clear();
}

void ColumnVector::InitStorage() {
  switch (PhysOf(type_)) {
    case Phys::kU8:
      data_ = std::vector<uint8_t>();
      break;
    case Phys::kI32:
      data_ = std::vector<int32_t>();
      break;
    case Phys::kI64:
      data_ = std::vector<int64_t>();
      break;
    case Phys::kF64:
      data_ = std::vector<double>();
      break;
    case Phys::kStr:
      data_ = StringColumn();
      break;
  }
}

ColumnVector ColumnVector::FromInt32(std::vector<int32_t> values) {
  ColumnVector col(DataType::kInt32);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromInt64(std::vector<int64_t> values) {
  ColumnVector col(DataType::kInt64);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromDouble(std::vector<double> values) {
  ColumnVector col(DataType::kDouble);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromString(std::vector<std::string> values) {
  ColumnVector col(DataType::kString);
  col.strs().AppendViews(values.size(), [&](size_t i) -> std::string_view {
    return values[i];
  });
  return col;
}

ColumnVector ColumnVector::FromBool(std::vector<uint8_t> values) {
  ColumnVector col(DataType::kBool);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromDate32(std::vector<int32_t> days) {
  ColumnVector col(DataType::kDate32);
  col.data_ = std::move(days);
  return col;
}

size_t ColumnVector::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

void ColumnVector::EnsureValidity() {
  if (validity_.empty()) validity_.assign(size(), 1);
}

void ColumnVector::SetNull(size_t i) {
  DFLOW_CHECK_LT(i, size());
  EnsureValidity();
  validity_[i] = 0;
}

void ColumnVector::SetValidity(const uint8_t* valid) {
  validity_.resize(size());
  for (size_t i = 0; i < validity_.size(); ++i) validity_[i] = valid[i] != 0;
}

Value ColumnVector::GetValue(size_t i) const {
  DFLOW_CHECK_LT(i, size());
  if (!IsValid(i)) return Value::Null(type_);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bool_data()[i] != 0);
    case DataType::kInt32:
      return Value::Int32(i32()[i]);
    case DataType::kDate32:
      return Value::Date32(i32()[i]);
    case DataType::kInt64:
      return Value::Int64(i64()[i]);
    case DataType::kDouble:
      return Value::Double(f64()[i]);
    case DataType::kString:
      return Value::String(std::string(strs()[i]));
  }
  return Value();
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
      bool_data().push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt32:
      i32().push_back(v.int32_value());
      break;
    case DataType::kDate32:
      i32().push_back(v.date32_value());
      break;
    case DataType::kInt64:
      i64().push_back(v.int64_value());
      break;
    case DataType::kDouble:
      f64().push_back(v.double_value());
      break;
    case DataType::kString:
      strs().push_back(v.string_value());
      break;
  }
  if (!validity_.empty()) validity_.push_back(1);
}

void ColumnVector::AppendNull() {
  EnsureValidity();
  // Append a placeholder slot in the data storage.
  std::visit([](auto& v) { v.emplace_back(); }, data_);
  validity_.push_back(0);
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t index) {
  DFLOW_CHECK(type_ == other.type_);
  DFLOW_CHECK_LT(index, other.size());
  if (!other.IsValid(index)) {
    AppendNull();
    return;
  }
  switch (PhysOf(type_)) {
    case Phys::kU8:
      bool_data().push_back(other.bool_data()[index]);
      break;
    case Phys::kI32:
      i32().push_back(other.i32()[index]);
      break;
    case Phys::kI64:
      i64().push_back(other.i64()[index]);
      break;
    case Phys::kF64:
      f64().push_back(other.f64()[index]);
      break;
    case Phys::kStr:
      strs().push_back(other.strs()[index]);
      break;
  }
  if (!validity_.empty()) validity_.push_back(1);
}

void ColumnVector::AppendRange(const ColumnVector& other, size_t start,
                               size_t count) {
  DFLOW_CHECK(type_ == other.type_);
  DFLOW_CHECK_LE(start + count, other.size());
  const auto first = other.validity_.begin() + (other.HasNulls() ? start : 0);
  const bool any_null =
      other.HasNulls() && std::find(first, first + count, 0) != first + count;
  if (any_null) {
    // A NULL row appends the type's default value, as AppendFrom does:
    // copy the valid runs whole and write defaults between them.
    EnsureValidity();
    size_t r = start;
    while (r < start + count) {
      size_t end = r;
      const bool valid = other.validity_[r] != 0;
      while (end < start + count && (other.validity_[end] != 0) == valid) ++end;
      if (valid) {
        AppendRange(other, r, end - r);  // NULL-free: the byte copy below
      } else {
        for (size_t i = r; i < end; ++i) AppendNull();
      }
      r = end;
    }
    return;
  }
  const bool masked = !validity_.empty();
  std::visit(
      [&](auto& dst) {
        const auto& src = std::get<std::decay_t<decltype(dst)>>(other.data_);
        if constexpr (std::is_same_v<std::decay_t<decltype(dst)>,
                                     StringColumn>) {
          dst.AppendRange(src, start, count);
        } else {
          dst.insert(dst.end(), src.begin() + start,
                     src.begin() + start + count);
        }
      },
      data_);
  if (!masked) return;
  if (other.HasNulls()) {
    validity_.insert(validity_.end(), first, first + count);
  } else {
    validity_.resize(validity_.size() + count, 1);
  }
}

void ColumnVector::AppendRows(const ColumnVector& other, const uint32_t* rows,
                              size_t count) {
  DFLOW_CHECK(type_ == other.type_);
  bool any_null = false;
  for (size_t i = 0; i < count && other.HasNulls() && !any_null; ++i) {
    any_null = other.validity_[rows[i]] == 0;
  }
  const bool masked = any_null || !validity_.empty();
  if (any_null) EnsureValidity();
  // A NULL row appends the type's default value, as AppendNull does.
  auto is_null = [&](size_t i) {
    return any_null && other.validity_[rows[i]] == 0;
  };
  std::visit(
      [&](auto& dst) {
        using Storage = std::decay_t<decltype(dst)>;
        const auto& src = std::get<Storage>(other.data_);
        for (size_t i = 0; i < count; ++i) DFLOW_CHECK_LT(rows[i], src.size());
        if constexpr (std::is_same_v<Storage, StringColumn>) {
          DFLOW_CHECK(&src != &dst);
          dst.AppendViews(count, [&](size_t i) {
            return is_null(i) ? std::string_view() : src[rows[i]];
          });
        } else {
          if (dst.capacity() < dst.size() + count) {
            dst.reserve(std::max(dst.size() + count, 2 * dst.capacity()));
          }
          for (size_t i = 0; i < count; ++i) {
            dst.push_back(is_null(i) ? typename Storage::value_type{}
                                     : src[rows[i]]);
          }
        }
      },
      data_);
  if (!masked) return;
  for (size_t i = 0; i < count; ++i) {
    validity_.push_back(other.HasNulls() ? other.validity_[rows[i]] : 1);
  }
}

void ColumnVector::Resize(size_t n) {
  std::visit([n](auto& v) { v.resize(n); }, data_);
  if (!validity_.empty()) validity_.resize(n, 1);
}

void ColumnVector::Reserve(size_t n) {
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

void ColumnVector::Clear() {
  std::visit([](auto& v) { v.clear(); }, data_);
  validity_.clear();
}

ColumnVector ColumnVector::Gather(const SelectionVector& sel) const {
  ColumnVector out(type_);
  const bool has_nulls = HasNulls();
  std::visit(
      [&](const auto& src) {
        using Storage = std::decay_t<decltype(src)>;
        auto& dst = std::get<Storage>(out.data_);
        if constexpr (std::is_same_v<Storage, StringColumn>) {
          dst.AppendViews(sel.size(), [&](size_t i) { return src[sel[i]]; });
        } else {
          dst.resize(sel.size());
          for (size_t i = 0; i < sel.size(); ++i) dst[i] = src[sel[i]];
        }
      },
      data_);
  if (has_nulls) {
    out.validity_.resize(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      out.validity_[i] = validity_[sel[i]];
    }
  }
  return out;
}

uint64_t ColumnVector::ByteSize() const {
  uint64_t bytes = 0;
  if (type_ == DataType::kString) {
    // 4-byte length prefix per row on the wire.
    bytes = strs().bytes().size() + 4 * static_cast<uint64_t>(size());
  } else {
    bytes = static_cast<uint64_t>(size()) * FixedWidthBytes(type_);
  }
  if (HasNulls()) bytes += size();
  return bytes;
}

ColumnVector ColumnVector::TakeRange(size_t start, size_t count) const {
  DFLOW_CHECK_LE(start + count, size());
  ColumnVector out(type_);
  std::visit(
      [&](const auto& src) {
        using Storage = std::decay_t<decltype(src)>;
        auto& dst = std::get<Storage>(out.data_);
        if constexpr (std::is_same_v<Storage, StringColumn>) {
          dst.AppendRange(src, start, count);
        } else {
          dst.assign(src.begin() + start, src.begin() + start + count);
        }
      },
      data_);
  if (HasNulls()) {
    out.validity_.assign(validity_.begin() + start,
                         validity_.begin() + start + count);
  }
  return out;
}

}  // namespace dflow
