#include "dflow/vector/kernels.h"

#include <cmath>
#include <functional>

#include "dflow/common/hash.h"
#include "dflow/common/logging.h"
#include "dflow/common/string_util.h"

namespace dflow {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

namespace {

template <typename T>
bool ApplyCompare(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

// Calls fn(cmp) with `op` as a comparison functor, so loops over a column
// test the operator once, not per row.
template <typename Fn>
void WithCompare(CompareOp op, Fn fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn(std::equal_to<>{});
    case CompareOp::kNe:
      return fn(std::not_equal_to<>{});
    case CompareOp::kLt:
      return fn(std::less<>{});
    case CompareOp::kLe:
      return fn(std::less_equal<>{});
    case CompareOp::kGt:
      return fn(std::greater<>{});
    case CompareOp::kGe:
      return fn(std::greater_equal<>{});
  }
}

// Compares a typed column against a typed constant, honoring nulls, over
// every row or over the rows `sel` selects (mask entry i is row sel[i]).
// `get(row)` reads a row through a raw pointer: a store into the byte mask
// may alias anything, so a read through the vector would be reloaded for
// every row.
template <typename T, typename GetFn>
void CompareLoop(const ColumnVector& col, const SelectionVector* sel,
                 GetFn get, CompareOp op, const T& constant, Mask* mask) {
  const size_t n = sel == nullptr ? col.size() : sel->size();
  mask->assign(n, 0);
  uint8_t* out = mask->data();
  const uint32_t* rows = sel == nullptr ? nullptr : sel->indices().data();
  WithCompare(op, [&](auto cmp) {
    if (rows == nullptr) {
      for (size_t i = 0; i < n; ++i) out[i] = cmp(get(i), constant) ? 1 : 0;
    } else {
      for (size_t i = 0; i < n; ++i) {
        out[i] = cmp(get(rows[i]), constant) ? 1 : 0;
      }
    }
  });
  if (col.HasNulls()) {
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsValid(rows == nullptr ? i : rows[i])) out[i] = 0;
    }
  }
}

}  // namespace

Status CompareToConstant(const ColumnVector& col, CompareOp op,
                         const Value& constant, Mask* mask,
                         const SelectionVector* sel) {
  const size_t n = sel == nullptr ? col.size() : sel->size();
  if (constant.is_null()) {
    // SQL semantics: comparison with NULL is never true.
    mask->assign(n, 0);
    return Status::OK();
  }
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate32: {
      if (constant.type() == DataType::kString ||
          constant.type() == DataType::kBool) {
        return Status::InvalidArgument("cannot compare int column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const int32_t* d = col.i32().data();
      if (constant.type() == DataType::kDouble) {
        const double c = constant.AsDouble();
        CompareLoop<double>(
            col, sel, [d](size_t i) { return static_cast<double>(d[i]); }, op,
            c, mask);
      } else {
        const int64_t c = constant.AsInt64();
        CompareLoop<int64_t>(
            col, sel, [d](size_t i) { return static_cast<int64_t>(d[i]); },
            op, c, mask);
      }
      return Status::OK();
    }
    case DataType::kInt64: {
      if (constant.type() == DataType::kString ||
          constant.type() == DataType::kBool) {
        return Status::InvalidArgument("cannot compare int column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const int64_t* d = col.i64().data();
      if (constant.type() == DataType::kDouble) {
        const double c = constant.AsDouble();
        CompareLoop<double>(
            col, sel, [d](size_t i) { return static_cast<double>(d[i]); }, op,
            c, mask);
      } else {
        const int64_t c = constant.AsInt64();
        CompareLoop<int64_t>(
            col, sel, [d](size_t i) { return d[i]; }, op, c, mask);
      }
      return Status::OK();
    }
    case DataType::kDouble: {
      if (!IsNumeric(constant.type()) && constant.type() != DataType::kDate32) {
        return Status::InvalidArgument("cannot compare double column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const double* d = col.f64().data();
      const double c = constant.AsDouble();
      CompareLoop<double>(
          col, sel, [d](size_t i) { return d[i]; }, op, c, mask);
      return Status::OK();
    }
    case DataType::kString: {
      if (constant.type() != DataType::kString) {
        return Status::InvalidArgument("cannot compare string column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const StringColumn& d = col.strs();
      const std::string_view c = constant.string_value();
      CompareLoop<std::string_view>(col, sel, [&d](size_t i) { return d[i]; },
                                    op, c, mask);
      return Status::OK();
    }
    case DataType::kBool: {
      if (constant.type() != DataType::kBool) {
        return Status::InvalidArgument("cannot compare bool column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const uint8_t* d = col.bool_data().data();
      const uint8_t c = constant.bool_value() ? 1 : 0;
      CompareLoop<uint8_t>(
          col, sel, [d](size_t i) { return d[i]; }, op, c, mask);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status CompareColumns(const ColumnVector& a, CompareOp op,
                      const ColumnVector& b, Mask* mask) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("CompareColumns: length mismatch");
  }
  const size_t n = a.size();
  mask->assign(n, 0);
  auto valid = [&](size_t i) { return a.IsValid(i) && b.IsValid(i); };
  if (a.type() == DataType::kString || b.type() == DataType::kString) {
    if (a.type() != DataType::kString || b.type() != DataType::kString) {
      return Status::InvalidArgument("CompareColumns: string vs non-string");
    }
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = valid(i) && ApplyCompare(op, a.strs()[i], b.strs()[i]);
    }
    return Status::OK();
  }
  if (a.type() == DataType::kBool || b.type() == DataType::kBool) {
    if (a.type() != DataType::kBool || b.type() != DataType::kBool) {
      return Status::InvalidArgument("CompareColumns: bool vs non-bool");
    }
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] =
          valid(i) && ApplyCompare(op, a.bool_data()[i], b.bool_data()[i]);
    }
    return Status::OK();
  }
  // Numeric path: promote to double if either side is double, else int64.
  auto geti = [](const ColumnVector& c, size_t i) -> int64_t {
    switch (c.type()) {
      case DataType::kInt32:
      case DataType::kDate32:
        return c.i32()[i];
      case DataType::kInt64:
        return c.i64()[i];
      default:
        return 0;
    }
  };
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    auto getd = [&](const ColumnVector& c, size_t i) -> double {
      return c.type() == DataType::kDouble ? c.f64()[i]
                                           : static_cast<double>(geti(c, i));
    };
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = valid(i) && ApplyCompare(op, getd(a, i), getd(b, i));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = valid(i) && ApplyCompare(op, geti(a, i), geti(b, i));
    }
  }
  return Status::OK();
}

namespace {

// A LIKE pattern reduced to one string test. `literal` is the pattern with
// its leading and trailing '%' runs stripped; kGeneral keeps LikeMatch for
// patterns with '_' or an interior '%'.
struct LikeShape {
  enum Kind { kEquals, kPrefix, kSuffix, kContains, kGeneral } kind;
  std::string_view literal;
};

LikeShape ClassifyLike(std::string_view pattern) {
  if (pattern.find('_') != std::string_view::npos) {
    return {LikeShape::kGeneral, pattern};
  }
  const size_t begin = pattern.find_first_not_of('%');
  if (begin == std::string_view::npos) {
    // "" matches only the empty string; "%", "%%", ... match everything.
    return {pattern.empty() ? LikeShape::kEquals : LikeShape::kContains, ""};
  }
  const size_t end = pattern.find_last_not_of('%') + 1;
  const std::string_view literal = pattern.substr(begin, end - begin);
  if (literal.find('%') != std::string_view::npos) {
    return {LikeShape::kGeneral, pattern};
  }
  const bool leading = begin > 0;
  const bool trailing = end < pattern.size();
  if (leading && trailing) return {LikeShape::kContains, literal};
  if (leading) return {LikeShape::kSuffix, literal};
  if (trailing) return {LikeShape::kPrefix, literal};
  return {LikeShape::kEquals, literal};
}

bool MatchesShape(const LikeShape& shape, std::string_view value) {
  const std::string_view lit = shape.literal;
  switch (shape.kind) {
    case LikeShape::kEquals:
      return value == lit;
    case LikeShape::kPrefix:
      return value.size() >= lit.size() &&
             value.compare(0, lit.size(), lit) == 0;
    case LikeShape::kSuffix:
      return value.size() >= lit.size() &&
             value.compare(value.size() - lit.size(), lit.size(), lit) == 0;
    case LikeShape::kContains:
      return value.find(lit) != std::string_view::npos;
    case LikeShape::kGeneral:
      return LikeMatch(value, lit);
  }
  return false;
}

}  // namespace

Status ComputeLikeMask(const ColumnVector& col, std::string_view pattern,
                       Mask* mask, const SelectionVector* sel) {
  if (col.type() != DataType::kString) {
    return Status::InvalidArgument("LIKE requires a string column");
  }
  const size_t n = sel == nullptr ? col.size() : sel->size();
  mask->assign(n, 0);
  const StringColumn& d = col.strs();
  // Classified once per call; LikeMatch stays the reference matcher.
  const LikeShape shape = ClassifyLike(pattern);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = sel == nullptr ? i : (*sel)[i];
    (*mask)[i] = col.IsValid(row) && MatchesShape(shape, d[row]) ? 1 : 0;
  }
  return Status::OK();
}

void AndMasks(const Mask& other, Mask* mask) {
  DFLOW_CHECK_EQ(other.size(), mask->size());
  uint8_t* m = mask->data();
  const uint8_t* o = other.data();
  for (size_t i = 0; i < mask->size(); ++i) m[i] &= o[i];
}

void OrMasks(const Mask& other, Mask* mask) {
  DFLOW_CHECK_EQ(other.size(), mask->size());
  uint8_t* m = mask->data();
  const uint8_t* o = other.data();
  for (size_t i = 0; i < mask->size(); ++i) m[i] |= o[i];
}

void NotMask(Mask* mask) {
  uint8_t* m = mask->data();
  for (size_t i = 0; i < mask->size(); ++i) m[i] = m[i] ? 0 : 1;
}

SelectionVector MaskToSelection(const Mask& mask) {
  // Branch-free: write every index, advance past the kept ones.
  std::vector<uint32_t> indices(mask.size());
  size_t kept = 0;
  for (size_t i = 0; i < mask.size(); ++i) {
    indices[kept] = static_cast<uint32_t>(i);
    kept += mask[i] ? 1 : 0;
  }
  indices.resize(kept);
  return SelectionVector(std::move(indices));
}

size_t MaskPopCount(const Mask& mask) {
  size_t count = 0;
  for (uint8_t m : mask) count += m ? 1 : 0;
  return count;
}

namespace {

template <typename T>
T ApplyArith(ArithOp op, T a, T b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      return a / b;
  }
  return T{};
}

// Reads a numeric column element as double or int64.
double GetNumericAsDouble(const ColumnVector& c, size_t i) {
  switch (c.type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      return c.i32()[i];
    case DataType::kInt64:
      return static_cast<double>(c.i64()[i]);
    case DataType::kDouble:
      return c.f64()[i];
    default:
      return 0.0;
  }
}

int64_t GetNumericAsInt64(const ColumnVector& c, size_t i) {
  switch (c.type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      return c.i32()[i];
    case DataType::kInt64:
      return c.i64()[i];
    default:
      return 0;
  }
}

}  // namespace

Status Arithmetic(const ColumnVector& a, ArithOp op, const ColumnVector& b,
                  ColumnVector* out) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("Arithmetic: length mismatch");
  }
  if (!IsNumeric(a.type()) || !IsNumeric(b.type())) {
    return Status::InvalidArgument("Arithmetic requires numeric columns");
  }
  const size_t n = a.size();
  const bool any_null = a.HasNulls() || b.HasNulls();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    ColumnVector result(DataType::kDouble);
    auto& d = result.f64();
    d.resize(n);
    for (size_t i = 0; i < n; ++i) {
      d[i] = ApplyArith(op, GetNumericAsDouble(a, i), GetNumericAsDouble(b, i));
    }
    if (any_null) {
      for (size_t i = 0; i < n; ++i) {
        if (!a.IsValid(i) || !b.IsValid(i)) result.SetNull(i);
      }
    }
    *out = std::move(result);
    return Status::OK();
  }
  ColumnVector result(DataType::kInt64);
  auto& d = result.i64();
  d.resize(n);
  std::vector<size_t> div_zero;
  for (size_t i = 0; i < n; ++i) {
    const int64_t rhs = GetNumericAsInt64(b, i);
    if (op == ArithOp::kDiv && rhs == 0) {
      d[i] = 0;
      div_zero.push_back(i);
      continue;
    }
    d[i] = ApplyArith(op, GetNumericAsInt64(a, i), rhs);
  }
  for (size_t i : div_zero) result.SetNull(i);
  if (any_null) {
    for (size_t i = 0; i < n; ++i) {
      if (!a.IsValid(i) || !b.IsValid(i)) result.SetNull(i);
    }
  }
  *out = std::move(result);
  return Status::OK();
}

Status ArithmeticConst(const ColumnVector& col, ArithOp op,
                       const Value& constant, ColumnVector* out) {
  if (!IsNumeric(col.type()) || constant.is_null() ||
      !IsNumeric(constant.type())) {
    return Status::InvalidArgument(
        "ArithmeticConst requires numeric column and non-null numeric "
        "constant");
  }
  // Broadcast the constant into a column and reuse the column-column path.
  // Chunk sizes are small (<= kVectorSize) so the copy is cheap and keeps a
  // single arithmetic implementation.
  const size_t n = col.size();
  ColumnVector broadcast(constant.type() == DataType::kDouble
                             ? DataType::kDouble
                             : DataType::kInt64);
  if (constant.type() == DataType::kDouble) {
    broadcast.f64().assign(n, constant.double_value());
  } else {
    broadcast.i64().assign(n, constant.AsInt64());
  }
  return Arithmetic(col, op, broadcast, out);
}

Status HashColumn(const ColumnVector& col, std::vector<uint64_t>* hashes,
                  const SelectionVector* sel) {
  const size_t n = sel == nullptr ? col.size() : sel->size();
  constexpr uint64_t kNullHash = 0x7ull;
  const bool combine = !hashes->empty();
  if (combine && hashes->size() != n) {
    return Status::InvalidArgument("HashColumn: hash vector length mismatch");
  }
  if (!combine) hashes->assign(n, 0);
  // Entry i hashes `hash_row(row)` for row = sel[i] (or i); NULL rows hash
  // to the sentinel.
  auto fill = [&](auto hash_row) {
    for (size_t i = 0; i < n; ++i) {
      const size_t row = sel == nullptr ? i : (*sel)[i];
      const uint64_t h = col.IsValid(row) ? hash_row(row) : kNullHash;
      (*hashes)[i] = combine ? HashCombine((*hashes)[i], h) : h;
    }
  };
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate32: {
      const auto& d = col.i32();
      fill([&](size_t r) {
        return HashInt64(static_cast<uint64_t>(static_cast<int64_t>(d[r])));
      });
      break;
    }
    case DataType::kInt64: {
      const auto& d = col.i64();
      fill([&](size_t r) { return HashInt64(static_cast<uint64_t>(d[r])); });
      break;
    }
    case DataType::kDouble: {
      const auto& d = col.f64();
      fill([&](size_t r) { return HashDouble(d[r]); });
      break;
    }
    case DataType::kString: {
      const auto& d = col.strs();
      fill([&](size_t r) { return HashString(d[r]); });
      break;
    }
    case DataType::kBool: {
      const auto& d = col.bool_data();
      fill([&](size_t r) { return HashInt64(d[r]); });
      break;
    }
  }
  return Status::OK();
}

}  // namespace dflow
