#include "dflow/exec/aggregate.h"

#include <algorithm>
#include <type_traits>

#include "dflow/vector/kernels.h"

namespace dflow {

std::string_view AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

std::vector<AggSpec> MakeMergeSpecs(const std::vector<AggSpec>& specs) {
  std::vector<AggSpec> merged;
  merged.reserve(specs.size());
  for (const AggSpec& s : specs) {
    AggSpec m = s;
    m.input = s.output_name;  // read the partial column by its emitted name
    // COUNT keeps its function: a kFinal-mode COUNT *sums* the partial
    // counts (see UpdateGroups) but still finalizes the empty input to 0,
    // which SUM would not (SUM of nothing is NULL).
    merged.push_back(std::move(m));
  }
  return merged;
}

Result<OperatorPtr> HashAggregateOperator::Make(
    const Schema& input_schema, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& specs, AggMode mode, size_t max_groups) {
  if (specs.empty()) {
    return Status::InvalidArgument("aggregate requires at least one function");
  }
  if (mode != AggMode::kPartial && max_groups != 0) {
    return Status::InvalidArgument(
        "bounded group tables only apply to kPartial mode");
  }
  auto op = std::unique_ptr<HashAggregateOperator>(new HashAggregateOperator());
  op->mode_ = mode;
  op->max_groups_ = max_groups;
  op->specs_ = specs;

  std::vector<Field> out_fields;
  for (const std::string& g : group_by) {
    DFLOW_ASSIGN_OR_RETURN(size_t idx, input_schema.FieldIndex(g));
    op->group_cols_.push_back(idx);
    op->keys_.emplace_back(input_schema.field(idx).type);
    out_fields.push_back(input_schema.field(idx));
  }
  for (const AggSpec& s : specs) {
    int64_t input_idx = -1;
    DataType out_type = DataType::kInt64;
    if (s.func == AggFunc::kCount && s.input.empty()) {
      out_type = DataType::kInt64;
    } else {
      if (s.input.empty()) {
        return Status::InvalidArgument(
            std::string(AggFuncToString(s.func)) + " requires an input column");
      }
      DFLOW_ASSIGN_OR_RETURN(size_t idx, input_schema.FieldIndex(s.input));
      input_idx = static_cast<int64_t>(idx);
      const DataType in_type = input_schema.field(idx).type;
      switch (s.func) {
        case AggFunc::kCount:
          if (mode == AggMode::kFinal && in_type == DataType::kString) {
            return Status::InvalidArgument(
                "a COUNT merge sums partial counts, not a STRING column");
          }
          out_type = DataType::kInt64;
          break;
        case AggFunc::kSum:
          if (!IsNumeric(in_type)) {
            return Status::InvalidArgument("SUM requires a numeric column");
          }
          out_type =
              in_type == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          out_type = in_type;
          break;
      }
    }
    op->agg_cols_.push_back(input_idx);
    op->agg_output_types_.push_back(out_type);
    op->aggs_.push_back(AggState{{}, {}, ColumnVector(out_type), {}});
    out_fields.push_back(Field{s.output_name, out_type});
  }
  op->output_schema_ = Schema(std::move(out_fields));
  op->input_schema_ = input_schema;
  return OperatorPtr(op.release());
}

std::string HashAggregateOperator::name() const {
  std::string n = "hash_agg[";
  switch (mode_) {
    case AggMode::kComplete:
      n += "complete";
      break;
    case AggMode::kPartial:
      n += "partial";
      break;
    case AggMode::kFinal:
      n += "final";
      break;
  }
  if (max_groups_ > 0) n += ", bounded=" + std::to_string(max_groups_);
  return n + "]";
}

OperatorTraits HashAggregateOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kAggregate;
  t.streaming = mode_ == AggMode::kPartial && max_groups_ > 0;
  t.stateless = false;
  t.bounded_state = max_groups_ > 0;
  t.reduction_hint = 0.1;
  return t;
}

namespace {

/// True iff row i of `a` and row j of `b` compare equal under
/// Value::Compare. Both columns have the same type.
bool KeyEquals(const ColumnVector& a, size_t i, const ColumnVector& b,
               size_t j) {
  const bool a_valid = a.IsValid(i);
  const bool b_valid = b.IsValid(j);
  if (!a_valid || !b_valid) return a_valid == b_valid;
  switch (a.type()) {
    case DataType::kBool:
      return a.bool_data()[i] == b.bool_data()[j];
    case DataType::kInt32:
    case DataType::kDate32:
      return a.i32()[i] == b.i32()[j];
    case DataType::kInt64:
      return a.i64()[i] == b.i64()[j];
    case DataType::kDouble: {
      const double x = a.f64()[i];
      const double y = b.f64()[j];
      return !(x < y) && !(x > y);  // NaN compares equal to everything
    }
    case DataType::kString:
      return a.strs()[i] == b.strs()[j];
  }
  return false;
}

/// Calls fn(group, row) for view rows [begin, end) whose `col` value is not
/// NULL (SQL: aggregates skip NULLs), in row order.
template <typename Fn>
void ForEachValid(const ViewColumn& col, const std::vector<uint32_t>& gids,
                  size_t begin, size_t end, Fn fn) {
  const ColumnVector& c = *col.column;
  for (size_t r = begin; r < end; ++r) {
    const size_t row = col.row(r);
    if (c.IsValid(row)) fn(gids[r], row);
  }
}

}  // namespace

Status HashAggregateOperator::Push(DataChunk input,
                                   std::vector<DataChunk>* out) {
  RecordIn(input);
  return Consume(ChunkView::Of(input), out);
}

Status HashAggregateOperator::Consume(const ChunkView& input,
                                      std::vector<DataChunk>* out) {
  auto check = [&](size_t idx) -> Status {
    if (idx >= input.columns.size() ||
        input.columns[idx].column->type() != input_schema_.field(idx).type) {
      return Status::InvalidArgument("aggregate input does not match " +
                                     input_schema_.ToString());
    }
    return Status::OK();
  };
  for (size_t idx : group_cols_) DFLOW_RETURN_NOT_OK(check(idx));
  for (int64_t idx : agg_cols_) {
    if (idx >= 0) DFLOW_RETURN_NOT_OK(check(static_cast<size_t>(idx)));
  }
  const size_t n = input.num_rows;
  if (n == 0) return Status::OK();
  std::vector<uint32_t> gids(n, 0);
  if (group_cols_.empty()) {
    // One group; a bounded table holds at least one, so it never evicts.
    if (hashes_.empty()) AddGroup(0, input, 0);
    Accumulate(input, gids, 0, n);
    return Status::OK();
  }
  std::vector<uint64_t> hashes;
  for (size_t k : group_cols_) {
    const ViewColumn& col = input.columns[k];
    DFLOW_RETURN_NOT_OK(HashColumn(*col.column, &hashes, col.sel));
  }
  size_t begin = 0;  // first row not yet accumulated
  for (size_t r = 0; r < n; ++r) {
    uint32_t g = FindGroup(hashes[r], input, r);
    if (g == kNoGroup) {
      // Bounded partial tables evict the OLDEST HALF of their groups before
      // admitting a group that would exceed the budget. Evicting only part
      // of the table (rather than flushing everything) keeps recently-hot
      // groups resident, which is what makes bounded pre-aggregation
      // effective under skew — the accelerator equivalent of an LRU-ish
      // cache. The rows before this one are accumulated first, so the
      // evicted partials include them.
      if (max_groups_ > 0 && hashes_.size() >= max_groups_) {
        Accumulate(input, gids, begin, r);
        begin = r;
        EmitOldest(std::max<size_t>(1, hashes_.size() / 2), out);
        ++partial_flushes_;
      }
      g = AddGroup(hashes[r], input, r);
    }
    gids[r] = g;
  }
  Accumulate(input, gids, begin, n);
  return Status::OK();
}

uint32_t HashAggregateOperator::FindGroup(uint64_t hash,
                                          const ChunkView& input,
                                          size_t row) const {
  if (directory_.empty()) return kNoGroup;
  const size_t mask = directory_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t entry = directory_[slot];
    if (entry == 0) return kNoGroup;
    const uint32_t g = entry - 1;
    if (hashes_[g] != hash) continue;
    bool equal = true;
    for (size_t k = 0; k < group_cols_.size() && equal; ++k) {
      const ViewColumn& col = input.columns[group_cols_[k]];
      equal = KeyEquals(keys_[k], g, *col.column, col.row(row));
    }
    if (equal) return g;
  }
}

uint32_t HashAggregateOperator::AddGroup(uint64_t hash,
                                         const ChunkView& input, size_t row) {
  const auto g = static_cast<uint32_t>(hashes_.size());
  for (size_t k = 0; k < group_cols_.size(); ++k) {
    const ViewColumn& col = input.columns[group_cols_[k]];
    keys_[k].AppendFrom(*col.column, col.row(row));
  }
  hashes_.push_back(hash);
  // Load factor at most 1/2. A group's slot follows every earlier group of
  // its probe run, so same-hash groups are probed in insertion order.
  if (hashes_.size() * 2 > directory_.size()) {
    RebuildDirectory(std::max<size_t>(16, directory_.size() * 2));
  } else {
    const size_t mask = directory_.size() - 1;
    size_t slot = hash & mask;
    while (directory_[slot] != 0) slot = (slot + 1) & mask;
    directory_[slot] = g + 1;
  }
  return g;
}

void HashAggregateOperator::RebuildDirectory(size_t capacity) {
  directory_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t g = 0; g < hashes_.size(); ++g) {
    size_t slot = hashes_[g] & mask;
    while (directory_[slot] != 0) slot = (slot + 1) & mask;
    directory_[slot] = static_cast<uint32_t>(g + 1);
  }
}

void HashAggregateOperator::SizeAccumulators() {
  const size_t groups = hashes_.size();
  for (AggState& acc : aggs_) {
    acc.count.resize(groups, 0);
    acc.seen.resize(groups, 0);
    if (acc.value.type() == DataType::kString) {
      acc.strings.resize(groups);
    } else {
      acc.value.Resize(groups);
    }
  }
}

void HashAggregateOperator::Accumulate(const ChunkView& input,
                                       const std::vector<uint32_t>& gids,
                                       size_t begin, size_t end) {
  SizeAccumulators();
  for (size_t s = 0; s < specs_.size(); ++s) {
    AggState& acc = aggs_[s];
    const AggFunc func = specs_[s].func;
    if (agg_cols_[s] < 0) {  // COUNT(*)
      for (size_t r = begin; r < end; ++r) ++acc.count[gids[r]];
      continue;
    }
    const ViewColumn& in = input.columns[static_cast<size_t>(agg_cols_[s])];
    in.column->Visit([&](const auto& data) {
      using T = typename std::decay_t<decltype(data)>::value_type;
      if (func == AggFunc::kCount) {
        // Final stage: the input column holds partial counts to sum up.
        // Earlier stages: count the (non-NULL) rows themselves.
        ForEachValid(in, gids, begin, end, [&](uint32_t g, size_t row) {
          if constexpr (std::is_arithmetic_v<T>) {
            if (mode_ == AggMode::kFinal) {
              acc.count[g] += static_cast<int64_t>(data[row]);
              return;
            }
          }
          ++acc.count[g];
        });
      } else if (func == AggFunc::kSum) {
        if constexpr (std::is_arithmetic_v<T>) {
          if constexpr (std::is_same_v<T, double>) {
            std::vector<double>& sum = acc.value.data<double>();
            ForEachValid(in, gids, begin, end, [&](uint32_t g, size_t row) {
              sum[g] += data[row];
              acc.seen[g] = 1;
            });
          } else {
            std::vector<int64_t>& sum = acc.value.data<int64_t>();
            ForEachValid(in, gids, begin, end, [&](uint32_t g, size_t row) {
              sum[g] += static_cast<int64_t>(data[row]);
              acc.seen[g] = 1;
            });
          }
        }
      } else {
        // MIN/MAX: the first non-NULL value, then each strictly smaller
        // (larger) one, as Value::Compare orders them.
        auto& best = [&]() -> auto& {
          if constexpr (std::is_same_v<T, std::string_view>) {
            return acc.strings;
          } else {
            return acc.value.data<T>();
          }
        }();
        const bool min = func == AggFunc::kMin;
        ForEachValid(in, gids, begin, end, [&](uint32_t g, size_t row) {
          const T v = data[row];
          if (!acc.seen[g] || (min ? v < best[g] : best[g] < v)) best[g] = v;
          acc.seen[g] = 1;
        });
      }
    });
  }
}

void HashAggregateOperator::EmitOldest(size_t count,
                                       std::vector<DataChunk>* out) {
  SizeAccumulators();  // groups no row has reached yet
  const size_t groups = hashes_.size();
  for (size_t start = 0; start < count; start += kVectorSize) {
    const size_t rows = std::min(kVectorSize, count - start);
    std::vector<ColumnVector> cols;
    for (const ColumnVector& key : keys_) {
      cols.emplace_back(key.type());
      cols.back().AppendRange(key, start, rows);
    }
    for (size_t s = 0; s < specs_.size(); ++s) {
      const AggState& acc = aggs_[s];
      if (specs_[s].func == AggFunc::kCount) {
        cols.push_back(ColumnVector::FromInt64(
            {acc.count.begin() + start, acc.count.begin() + start + rows}));
        continue;
      }
      ColumnVector col(agg_output_types_[s]);
      if (col.type() == DataType::kString) {
        col.strs().AppendViews(rows, [&](size_t i) -> std::string_view {
          return acc.strings[start + i];
        });
      } else {
        col.AppendRange(acc.value, start, rows);
      }
      for (size_t i = 0; i < rows; ++i) {
        if (!acc.seen[start + i]) col.SetNull(i);  // no non-NULL input
      }
      cols.push_back(std::move(col));
    }
    DataChunk chunk(std::move(cols));
    RecordOut(chunk);
    out->push_back(std::move(chunk));
  }
  // Keep the newest groups; rebuild the directory over them.
  for (ColumnVector& key : keys_) key = key.TakeRange(count, groups - count);
  hashes_.erase(hashes_.begin(), hashes_.begin() + count);
  for (AggState& acc : aggs_) {
    acc.count.erase(acc.count.begin(), acc.count.begin() + count);
    acc.seen.erase(acc.seen.begin(), acc.seen.begin() + count);
    if (acc.value.type() == DataType::kString) {
      acc.strings.erase(acc.strings.begin(), acc.strings.begin() + count);
    } else {
      acc.value = acc.value.TakeRange(count, groups - count);
    }
  }
  RebuildDirectory(directory_.size());
}

Status HashAggregateOperator::Finish(std::vector<DataChunk>* out) {
  // Scalar aggregates (no GROUP BY) emit one row even over empty input —
  // COUNT(*) of nothing is 0 — but only at the complete/final stage.
  if (hashes_.empty() && group_cols_.empty() && mode_ != AggMode::kPartial) {
    AddGroup(0, ChunkView{}, 0);
  }
  EmitOldest(hashes_.size(), out);
  return Status::OK();
}

}  // namespace dflow
