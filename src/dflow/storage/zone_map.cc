#include "dflow/storage/zone_map.h"

#include <type_traits>
#include <vector>

namespace dflow {

ZoneMap ZoneMap::Compute(const ColumnVector& col) {
  ZoneMap zm;
  // Min and max over the typed storage; only the two bounds are boxed. The
  // compares follow Value::Compare (bools as 0/1, strings bytewise), and a
  // bound moves only on a strict < or >, so the first value of a tie stays
  // (-0.0 against 0.0) and a NaN never replaces a bound.
  size_t min_row = 0;
  size_t max_row = 0;
  col.Visit([&](const auto& data) {
    auto key = [&data](size_t i) {
      if constexpr (std::is_same_v<std::decay_t<decltype(data)>,
                                   std::vector<uint8_t>>) {
        return data[i] != 0;
      } else {
        return data[i];
      }
    };
    for (size_t i = 0; i < data.size(); ++i) {
      if (!col.IsValid(i)) {
        zm.has_nulls = true;
        continue;
      }
      if (!zm.valid) {
        min_row = max_row = i;
        zm.valid = true;
        continue;
      }
      const auto v = key(i);
      if (v < key(min_row)) min_row = i;
      if (v > key(max_row)) max_row = i;
    }
  });
  if (zm.valid) {
    zm.min = col.GetValue(min_row);
    zm.max = col.GetValue(max_row);
  }
  return zm;
}

bool ZoneMap::MayMatch(CompareOp op, const Value& constant) const {
  if (!valid) return has_nulls;  // all-null zones can't match any comparison
  if (constant.is_null()) return false;
  switch (op) {
    case CompareOp::kEq:
      return min.Compare(constant) <= 0 && max.Compare(constant) >= 0;
    case CompareOp::kNe:
      // Only prunable when every value equals the constant.
      return !(min.Compare(constant) == 0 && max.Compare(constant) == 0);
    case CompareOp::kLt:
      return min.Compare(constant) < 0;
    case CompareOp::kLe:
      return min.Compare(constant) <= 0;
    case CompareOp::kGt:
      return max.Compare(constant) > 0;
    case CompareOp::kGe:
      return max.Compare(constant) >= 0;
  }
  return true;
}

void ZoneMap::Merge(const ZoneMap& other) {
  has_nulls = has_nulls || other.has_nulls;
  if (!other.valid) return;
  if (!valid) {
    *this = other;
    return;
  }
  if (other.min.Compare(min) < 0) min = other.min;
  if (other.max.Compare(max) > 0) max = other.max;
}

}  // namespace dflow
