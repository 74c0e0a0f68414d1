#include "dflow/exec/misc_ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dflow/common/logging.h"

namespace dflow {

CountOperator::CountOperator()
    : schema_(Schema({{"count", DataType::kInt64}})) {}

OperatorTraits CountOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kCount;
  t.streaming = true;
  t.stateless = false;
  t.bounded_state = true;  // 8 bytes
  t.reduction_hint = 0.0;  // discards everything until Finish
  return t;
}

Status CountOperator::Push(DataChunk input,
                           std::vector<DataChunk>* out) {
  (void)out;
  RecordIn(input);
  count_ += static_cast<int64_t>(input.num_rows());
  return Status::OK();
}

Status CountOperator::Finish(std::vector<DataChunk>* out) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({count_}));
  RecordOut(chunk);
  out->push_back(std::move(chunk));
  return Status::OK();
}

LimitOperator::LimitOperator(Schema schema, uint64_t limit)
    : schema_(std::move(schema)), limit_(limit) {}

OperatorTraits LimitOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kMemcpy;
  t.streaming = true;
  t.stateless = false;
  t.bounded_state = true;  // a single counter
  t.reduction_hint = 0.5;
  return t;
}

Status LimitOperator::Push(DataChunk input,
                           std::vector<DataChunk>* out) {
  RecordIn(input);
  if (seen_ >= limit_) return Status::OK();
  const uint64_t take =
      std::min<uint64_t>(input.num_rows(), limit_ - seen_);
  seen_ += take;
  if (take == input.num_rows()) {
    out->push_back(std::move(input));
  } else {
    SelectionVector sel;
    for (uint64_t i = 0; i < take; ++i) sel.Append(static_cast<uint32_t>(i));
    out->push_back(input.Gather(sel));
  }
  RecordOut(out->back());
  return Status::OK();
}

Result<OperatorPtr> SortOperator::Make(Schema schema,
                                       const std::string& sort_col,
                                       bool descending, uint64_t limit) {
  DFLOW_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(sort_col));
  return OperatorPtr(new SortOperator(std::move(schema), idx, descending,
                                      limit));
}

OperatorTraits SortOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kSort;
  t.streaming = false;
  t.stateless = false;
  t.bounded_state = false;
  t.reduction_hint = limit_ > 0 ? 0.1 : 1.0;
  return t;
}

namespace {

/// Calls fn(less) with a strict "row a sorts before row b" over `key`: the
/// order of Value::Compare (NULL first), reversed when `descending`, read
/// from the typed column.
template <typename Fn>
void WithRowOrder(const ColumnVector& key, bool descending, Fn fn) {
  key.Visit([&](const auto& data) {
    auto less = [&](uint32_t a, uint32_t b) {
      const bool a_valid = key.IsValid(a);
      const bool b_valid = key.IsValid(b);
      int cmp = 0;
      if (!a_valid || !b_valid) {
        cmp = static_cast<int>(a_valid) - static_cast<int>(b_valid);
      } else if (data[a] < data[b]) {
        cmp = -1;
      } else if (data[b] < data[a]) {
        cmp = 1;
      }
      return descending ? cmp > 0 : cmp < 0;
    };
    fn(less);
  });
}

}  // namespace

Status SortOperator::Push(DataChunk input,
                          std::vector<DataChunk>* out) {
  (void)out;
  RecordIn(input);
  if (input.num_columns() != buffer_.num_columns()) {
    return Status::InvalidArgument("sort input does not match " +
                                   schema_.ToString());
  }
  const size_t rows = input.num_rows();
  for (size_t c = 0; c < input.num_columns(); ++c) {
    buffer_.column(c).AppendRange(input.column(c), 0, rows);
  }
  // A NaN key compares equal to every value, so "the first n" is only
  // well defined over the whole input: such a sort keeps every row.
  const ColumnVector& key = input.column(sort_col_);
  if (key.type() == DataType::kDouble) {
    for (size_t r = 0; r < rows && !key_has_nan_; ++r) {
      key_has_nan_ = key.IsValid(r) && std::isnan(key.f64()[r]);
    }
  }
  if (limit_ > 0 && !key_has_nan_ &&
      buffer_.num_rows() >= limit_ + std::max<uint64_t>(limit_, kVectorSize)) {
    // Keep only the top `limit_` rows so far, in arrival order: a row with
    // `limit_` rows ahead of it (ties go to the earlier arrival) is not in
    // the first `limit_` of the stable sort of any longer input either.
    std::vector<uint32_t> order(buffer_.num_rows());
    std::iota(order.begin(), order.end(), 0);
    WithRowOrder(buffer_.column(sort_col_), descending_, [&](auto less) {
      std::nth_element(order.begin(), order.begin() + limit_, order.end(),
                       [&](uint32_t a, uint32_t b) {
                         return less(a, b) || (!less(b, a) && a < b);
                       });
    });
    order.resize(limit_);
    std::sort(order.begin(), order.end());
    buffer_ = buffer_.Gather(SelectionVector(std::move(order)));
  }
  return Status::OK();
}

Status SortOperator::Finish(std::vector<DataChunk>* out) {
  std::vector<uint32_t> order(buffer_.num_rows());
  std::iota(order.begin(), order.end(), 0);
  WithRowOrder(buffer_.column(sort_col_), descending_, [&](auto less) {
    std::stable_sort(order.begin(), order.end(), less);
  });
  uint64_t n = order.size();
  if (limit_ > 0) n = std::min<uint64_t>(n, limit_);
  for (uint64_t start = 0; start < n; start += kVectorSize) {
    const uint64_t count = std::min<uint64_t>(kVectorSize, n - start);
    SelectionVector sel(std::vector<uint32_t>(
        order.begin() + start, order.begin() + start + count));
    out->push_back(buffer_.Gather(sel));
    RecordOut(out->back());
  }
  return Status::OK();
}

OperatorTraits DecodeOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kDecode;
  t.streaming = true;
  t.stateless = true;
  t.reduction_hint = 1.0;  // wire grows, data identical
  return t;
}

Status DecodeOperator::Push(DataChunk input,
                            std::vector<DataChunk>* out) {
  RecordIn(input);
  out->push_back(std::move(input));
  RecordOut(out->back());
  return Status::OK();
}

OperatorTraits EncodeOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kEncode;
  t.streaming = true;
  t.stateless = true;
  t.reduction_hint = 0.6;
  return t;
}

Status EncodeOperator::Push(DataChunk input,
                            std::vector<DataChunk>* out) {
  RecordIn(input);
  out->push_back(std::move(input));
  RecordOut(out->back());
  return Status::OK();
}

uint64_t EncodeOperator::OutputWireBytes(const DataChunk& output) const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : output.columns()) {
    const Encoding enc = ChooseEncoding(col);
    Result<EncodedColumn> encoded = EncodeColumn(col, enc);
    bytes += encoded.ok() ? encoded.ValueOrDie().ByteSize() : col.ByteSize();
  }
  return bytes;
}

}  // namespace dflow
