#include "dflow/exec/project.h"

#include <algorithm>

namespace dflow {

Result<OperatorPtr> ProjectOperator::Make(std::vector<ExprPtr> exprs,
                                          std::vector<std::string> names,
                                          const Schema& input_schema) {
  if (exprs.empty() || exprs.size() != names.size()) {
    return Status::InvalidArgument(
        "project requires matching expression and name lists");
  }
  std::vector<Field> fields;
  fields.reserve(exprs.size());
  uint32_t out_width = 0;
  uint32_t in_width = 0;
  for (const Field& f : input_schema.fields()) {
    in_width += IsFixedWidth(f.type) ? FixedWidthBytes(f.type) : 16;
  }
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i] == nullptr || !exprs[i]->is_resolved()) {
      return Status::InvalidArgument("project expression " +
                                     std::to_string(i) + " is unresolved");
    }
    DFLOW_ASSIGN_OR_RETURN(DataType type, exprs[i]->OutputType(input_schema));
    fields.push_back(Field{names[i], type});
    out_width += IsFixedWidth(type) ? FixedWidthBytes(type) : 16;
  }
  const double hint =
      in_width == 0 ? 1.0
                    : std::min(1.0, static_cast<double>(out_width) /
                                        static_cast<double>(in_width));
  return OperatorPtr(new ProjectOperator(
      std::move(exprs), Schema(std::move(fields)), input_schema, hint));
}

OperatorTraits ProjectOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kProject;
  t.streaming = true;
  t.stateless = true;
  t.reduction_hint = reduction_hint_;
  return t;
}

Status ProjectOperator::Push(DataChunk input,
                             std::vector<DataChunk>* out) {
  RecordIn(input);
  std::vector<ColumnVector> cols;
  cols.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    DFLOW_ASSIGN_OR_RETURN(ColumnVector col, e->Evaluate(input));
    cols.push_back(std::move(col));
  }
  out->emplace_back(std::move(cols));
  RecordOut(out->back());
  return Status::OK();
}

Status ProjectOperator::ProjectView(const DataChunk& input,
                                    const SelectionVector* sel,
                                    std::vector<ColumnVector>* computed,
                                    ChunkView* view) const {
  computed->clear();
  computed->reserve(exprs_.size());  // no reallocation: the view points in
  view->columns.clear();
  view->num_rows = sel == nullptr ? input.num_rows() : sel->size();
  for (const ExprPtr& e : exprs_) {
    if (e->kind() == Expr::Kind::kColumnRef &&
        e->column_index() < input.num_columns()) {
      view->columns.push_back(
          ViewColumn{&input.column(e->column_index()), sel});
      continue;
    }
    DFLOW_ASSIGN_OR_RETURN(ColumnVector col, e->Evaluate(input, sel));
    computed->push_back(std::move(col));
    view->columns.push_back(ViewColumn{&computed->back(), nullptr});
  }
  return Status::OK();
}

}  // namespace dflow
