#include "dflow/volcano/iterators.h"

#include <algorithm>

#include "dflow/common/hash.h"
#include "dflow/common/logging.h"
#include "dflow/common/string_util.h"

namespace dflow::volcano {

namespace {

// Approximate in-memory size of a row for state accounting.
uint64_t RowBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) {
    bytes += 16;
    if (!v.is_null() && v.type() == DataType::kString) {
      bytes += v.string_value().size();
    }
  }
  return bytes;
}

uint64_t HashValue(const Value& v) {
  if (v.is_null()) return 0x7;
  switch (v.type()) {
    case DataType::kBool:
      return HashInt64(v.bool_value() ? 1 : 0);
    case DataType::kInt32:
      return HashInt64(static_cast<uint64_t>(
          static_cast<int64_t>(v.int32_value())));
    case DataType::kDate32:
      return HashInt64(static_cast<uint64_t>(
          static_cast<int64_t>(v.date32_value())));
    case DataType::kInt64:
      return HashInt64(static_cast<uint64_t>(v.int64_value()));
    case DataType::kDouble:
      return HashDouble(v.double_value());
    case DataType::kString:
      return HashString(v.string_value());
  }
  return 0;
}

}  // namespace

Result<Value> EvalOnRow(const Expr& expr, const Row& row) {
  switch (expr.kind()) {
    case Expr::Kind::kColumnRef:
      if (!expr.is_resolved()) {
        return Status::InvalidArgument("unresolved column in row evaluation");
      }
      if (expr.column_index() >= row.size()) {
        return Status::OutOfRange("column index beyond row arity");
      }
      return row[expr.column_index()];
    case Expr::Kind::kLiteral:
      return expr.value();
    case Expr::Kind::kCompare: {
      DFLOW_ASSIGN_OR_RETURN(Value l, EvalOnRow(*expr.children()[0], row));
      DFLOW_ASSIGN_OR_RETURN(Value r, EvalOnRow(*expr.children()[1], row));
      if (l.is_null() || r.is_null()) return Value::Bool(false);
      const int cmp = l.Compare(r);
      switch (expr.compare_op()) {
        case CompareOp::kEq:
          return Value::Bool(cmp == 0);
        case CompareOp::kNe:
          return Value::Bool(cmp != 0);
        case CompareOp::kLt:
          return Value::Bool(cmp < 0);
        case CompareOp::kLe:
          return Value::Bool(cmp <= 0);
        case CompareOp::kGt:
          return Value::Bool(cmp > 0);
        case CompareOp::kGe:
          return Value::Bool(cmp >= 0);
      }
      return Status::Internal("unreachable");
    }
    case Expr::Kind::kArith: {
      DFLOW_ASSIGN_OR_RETURN(Value l, EvalOnRow(*expr.children()[0], row));
      DFLOW_ASSIGN_OR_RETURN(Value r, EvalOnRow(*expr.children()[1], row));
      if (l.is_null() || r.is_null()) return Value::Null(DataType::kDouble);
      if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
        return Status::InvalidArgument("arithmetic on non-numeric values");
      }
      const bool as_double =
          l.type() == DataType::kDouble || r.type() == DataType::kDouble;
      if (as_double) {
        const double a = l.AsDouble();
        const double b = r.AsDouble();
        switch (expr.arith_op()) {
          case ArithOp::kAdd:
            return Value::Double(a + b);
          case ArithOp::kSub:
            return Value::Double(a - b);
          case ArithOp::kMul:
            return Value::Double(a * b);
          case ArithOp::kDiv:
            return Value::Double(a / b);
        }
      }
      const int64_t a = l.AsInt64();
      const int64_t b = r.AsInt64();
      switch (expr.arith_op()) {
        case ArithOp::kAdd:
          return Value::Int64(a + b);
        case ArithOp::kSub:
          return Value::Int64(a - b);
        case ArithOp::kMul:
          return Value::Int64(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Value::Null(DataType::kInt64);
          return Value::Int64(a / b);
      }
      return Status::Internal("unreachable");
    }
    case Expr::Kind::kLike: {
      DFLOW_ASSIGN_OR_RETURN(Value input, EvalOnRow(*expr.children()[0], row));
      if (input.is_null()) return Value::Bool(false);
      if (input.type() != DataType::kString) {
        return Status::InvalidArgument("LIKE requires a string");
      }
      return Value::Bool(LikeMatch(input.string_value(), expr.pattern()));
    }
    case Expr::Kind::kAnd: {
      for (const ExprPtr& c : expr.children()) {
        DFLOW_ASSIGN_OR_RETURN(Value v, EvalOnRow(*c, row));
        if (v.is_null() || !v.bool_value()) return Value::Bool(false);
      }
      return Value::Bool(true);
    }
    case Expr::Kind::kOr: {
      for (const ExprPtr& c : expr.children()) {
        DFLOW_ASSIGN_OR_RETURN(Value v, EvalOnRow(*c, row));
        if (!v.is_null() && v.bool_value()) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case Expr::Kind::kNot: {
      DFLOW_ASSIGN_OR_RETURN(Value v, EvalOnRow(*expr.children()[0], row));
      if (v.is_null()) return Value::Bool(true);  // mask semantics: !0
      return Value::Bool(!v.bool_value());
    }
  }
  return Status::Internal("unreachable");
}

// ------------------------------------------------------------- seq scan ----

SeqScanIterator::SeqScanIterator(const HeapFile* file, VolcanoContext* ctx)
    : file_(file), ctx_(ctx) {
  DFLOW_CHECK(file != nullptr);
  DFLOW_CHECK(ctx != nullptr);
}

Status SeqScanIterator::Open() {
  page_ = 0;
  row_in_page_ = 0;
  current_rows_.clear();
  return Status::OK();
}

Result<bool> SeqScanIterator::Next(Row* row) {
  while (row_in_page_ >= current_rows_.size()) {
    if (page_ >= file_->num_pages()) return false;
    DFLOW_ASSIGN_OR_RETURN(const std::vector<Row>* rows,
                           ctx_->pool->GetPage(file_, page_));
    current_rows_ = *rows;  // copy out: the frame may be evicted
    ctx_->meter->ChargeCpu(file_->page(page_).byte_size(),
                           sim::CostClass::kScan);
    ++page_;
    row_in_page_ = 0;
  }
  *row = current_rows_[row_in_page_++];
  ctx_->meter->ChargeRows(1);
  return true;
}

// --------------------------------------------------------------- filter ----

FilterIterator::FilterIterator(RowIteratorPtr child, ExprPtr predicate,
                               VolcanoContext* ctx)
    : child_(std::move(child)), predicate_(std::move(predicate)), ctx_(ctx) {}

Status FilterIterator::Open() { return child_->Open(); }

Result<bool> FilterIterator::Next(Row* row) {
  while (true) {
    DFLOW_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    ctx_->meter->ChargeRows(1);
    DFLOW_ASSIGN_OR_RETURN(Value pass, EvalOnRow(*predicate_, *row));
    if (!pass.is_null() && pass.bool_value()) return true;
  }
}

// -------------------------------------------------------------- project ----

Result<RowIteratorPtr> ProjectIterator::Make(RowIteratorPtr child,
                                             std::vector<ExprPtr> exprs,
                                             std::vector<std::string> names,
                                             VolcanoContext* ctx) {
  if (exprs.size() != names.size() || exprs.empty()) {
    return Status::InvalidArgument("project arity mismatch");
  }
  std::vector<Field> fields;
  for (size_t i = 0; i < exprs.size(); ++i) {
    DFLOW_ASSIGN_OR_RETURN(DataType type,
                           exprs[i]->OutputType(child->schema()));
    fields.push_back(Field{names[i], type});
  }
  return RowIteratorPtr(new ProjectIterator(
      std::move(child), std::move(exprs), Schema(std::move(fields)), ctx));
}

Status ProjectIterator::Open() { return child_->Open(); }

Result<bool> ProjectIterator::Next(Row* row) {
  Row input;
  DFLOW_ASSIGN_OR_RETURN(bool has, child_->Next(&input));
  if (!has) return false;
  ctx_->meter->ChargeRows(1);
  row->clear();
  row->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    DFLOW_ASSIGN_OR_RETURN(Value v, EvalOnRow(*e, input));
    row->push_back(std::move(v));
  }
  return true;
}

// ------------------------------------------------------------ hash join ----

HashJoinIterator::HashJoinIterator(RowIteratorPtr build, RowIteratorPtr probe,
                                   size_t build_key, size_t probe_key,
                                   VolcanoContext* ctx)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_key_(build_key),
      probe_key_(probe_key),
      ctx_(ctx) {
  std::vector<Field> fields = probe_->schema().fields();
  for (const Field& f : build_->schema().fields()) {
    Field out = f;
    if (probe_->schema().HasField(out.name)) out.name = "b_" + out.name;
    fields.push_back(std::move(out));
  }
  schema_ = Schema(std::move(fields));
}

Status HashJoinIterator::Open() {
  DFLOW_RETURN_NOT_OK(build_->Open());
  uint64_t state_bytes = 0;
  Row row;
  while (true) {
    DFLOW_ASSIGN_OR_RETURN(bool has, build_->Next(&row));
    if (!has) break;
    const Value& key = row[build_key_];
    const uint64_t bytes = RowBytes(row);
    state_bytes += bytes + 32;
    ctx_->meter->ChargeCpu(bytes, sim::CostClass::kJoinBuild);
    ctx_->meter->ChargeRows(1);
    if (!key.is_null()) {
      table_[HashValue(key)].push_back(build_rows_.size());
    }
    build_rows_.push_back(std::move(row));
  }
  ctx_->NoteOperatorState(state_bytes);
  match_pos_ = 0;
  current_matches_.clear();
  return probe_->Open();
}

Result<bool> HashJoinIterator::Next(Row* row) {
  while (true) {
    if (match_pos_ < current_matches_.size()) {
      const Row& build_row = build_rows_[current_matches_[match_pos_++]];
      *row = current_probe_;
      row->insert(row->end(), build_row.begin(), build_row.end());
      return true;
    }
    DFLOW_ASSIGN_OR_RETURN(bool has, probe_->Next(&current_probe_));
    if (!has) return false;
    ctx_->meter->ChargeCpu(RowBytes(current_probe_),
                           sim::CostClass::kJoinProbe);
    ctx_->meter->ChargeRows(1);
    current_matches_.clear();
    match_pos_ = 0;
    const Value& key = current_probe_[probe_key_];
    if (key.is_null()) continue;
    auto it = table_.find(HashValue(key));
    if (it == table_.end()) continue;
    for (size_t idx : it->second) {
      if (build_rows_[idx][build_key_].Compare(key) == 0) {
        current_matches_.push_back(idx);
      }
    }
  }
}

// ------------------------------------------------------------- hash agg ----

Result<RowIteratorPtr> HashAggIterator::Make(
    RowIteratorPtr child, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& specs, VolcanoContext* ctx) {
  DFLOW_ASSIGN_OR_RETURN(
      OperatorPtr agg,
      HashAggregateOperator::Make(child->schema(), group_by, specs,
                                  AggMode::kComplete));
  return RowIteratorPtr(
      new HashAggIterator(std::move(child), std::move(agg), ctx));
}

const Schema& HashAggIterator::schema() const {
  return agg_->output_schema();
}

Status HashAggIterator::Open() {
  DFLOW_RETURN_NOT_OK(child_->Open());
  // Batch input rows into chunks so the aggregation logic is shared with
  // the vectorized engine; the CPU is still charged tuple-at-a-time.
  DataChunk batch = DataChunk::EmptyFromSchema(child_->schema());
  std::vector<DataChunk> sink;
  Row row;
  uint64_t state_rows = 0;
  auto flush = [&]() -> Status {
    if (batch.num_rows() == 0) return Status::OK();
    ctx_->meter->ChargeCpu(batch.ByteSize(), sim::CostClass::kAggregate);
    DFLOW_RETURN_NOT_OK(agg_->Push(std::move(batch), &sink));
    batch = DataChunk::EmptyFromSchema(child_->schema());
    return Status::OK();
  };
  while (true) {
    DFLOW_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    ctx_->meter->ChargeRows(1);
    DataChunk one;
    ++state_rows;
    for (size_t c = 0; c < row.size(); ++c) {
      batch.column(c).AppendValue(row[c]);
    }
    if (batch.num_rows() >= kVectorSize) {
      DFLOW_RETURN_NOT_OK(flush());
    }
  }
  DFLOW_RETURN_NOT_OK(flush());
  DFLOW_RETURN_NOT_OK(agg_->Finish(&sink));
  for (const DataChunk& chunk : sink) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      Row out;
      out.reserve(chunk.num_columns());
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        out.push_back(chunk.GetValue(r, c));
      }
      results_.push_back(std::move(out));
    }
  }
  uint64_t state_bytes = 0;
  for (const Row& r : results_) state_bytes += RowBytes(r) + 32;
  ctx_->NoteOperatorState(state_bytes);
  pos_ = 0;
  return Status::OK();
}

Result<bool> HashAggIterator::Next(Row* row) {
  if (pos_ >= results_.size()) return false;
  *row = results_[pos_++];
  return true;
}

// ----------------------------------------------------------------- sort ----

Result<RowIteratorPtr> SortIterator::Make(RowIteratorPtr child,
                                          const std::string& sort_col,
                                          bool descending, uint64_t limit,
                                          VolcanoContext* ctx) {
  DFLOW_ASSIGN_OR_RETURN(size_t idx, child->schema().FieldIndex(sort_col));
  return RowIteratorPtr(
      new SortIterator(std::move(child), idx, descending, limit, ctx));
}

Status SortIterator::Open() {
  DFLOW_RETURN_NOT_OK(child_->Open());
  Row row;
  uint64_t state_bytes = 0;
  while (true) {
    DFLOW_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    state_bytes += RowBytes(row);
    ctx_->meter->ChargeCpu(RowBytes(row), sim::CostClass::kSort);
    ctx_->meter->ChargeRows(1);
    rows_.push_back(std::move(row));
  }
  ctx_->NoteOperatorState(state_bytes);
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     const int cmp = a[sort_col_].Compare(b[sort_col_]);
                     return descending_ ? cmp > 0 : cmp < 0;
                   });
  if (limit_ > 0 && rows_.size() > limit_) rows_.resize(limit_);
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortIterator::Next(Row* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

// ---------------------------------------------------------------- limit ----

Result<bool> LimitIterator::Next(Row* row) {
  if (emitted_ >= limit_) return false;
  DFLOW_ASSIGN_OR_RETURN(bool has, child_->Next(row));
  if (!has) return false;
  ++emitted_;
  return true;
}

Result<std::vector<Row>> DrainIterator(RowIterator* it) {
  DFLOW_RETURN_NOT_OK(it->Open());
  std::vector<Row> rows;
  Row row;
  while (true) {
    DFLOW_ASSIGN_OR_RETURN(bool has, it->Next(&row));
    if (!has) break;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace dflow::volcano
