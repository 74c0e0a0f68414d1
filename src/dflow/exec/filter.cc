#include "dflow/exec/filter.h"

#include "dflow/exec/test_hooks.h"

namespace dflow {

Result<OperatorPtr> FilterOperator::Make(ExprPtr predicate,
                                         Schema input_schema,
                                         double selectivity_hint) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("filter requires a predicate");
  }
  if (!predicate->is_resolved()) {
    return Status::InvalidArgument("filter predicate is unresolved: " +
                                   predicate->ToString());
  }
  if (!predicate->IsPredicate()) {
    return Status::InvalidArgument("filter expression is not boolean: " +
                                   predicate->ToString());
  }
  return OperatorPtr(new FilterOperator(std::move(predicate),
                                        std::move(input_schema),
                                        selectivity_hint));
}

std::string FilterOperator::name() const {
  return "filter[" + predicate_->ToString() + "]";
}

OperatorTraits FilterOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kFilter;
  t.streaming = true;
  t.stateless = true;
  t.reduction_hint = selectivity_hint_;
  return t;
}

Status FilterOperator::Select(const DataChunk& input,
                              SelectionVector* sel) const {
  Mask mask;
  DFLOW_RETURN_NOT_OK(predicate_->EvaluatePredicate(input, &mask));
  *sel = MaskToSelection(mask);
  if (test_hooks::g_filter_drop_first_row && !sel->empty()) {
    std::vector<uint32_t> rest(sel->indices().begin() + 1,
                               sel->indices().end());
    *sel = SelectionVector(std::move(rest));
  }
  return Status::OK();
}

Status FilterOperator::Push(DataChunk input,
                            std::vector<DataChunk>* out) {
  RecordIn(input);
  SelectionVector sel;
  DFLOW_RETURN_NOT_OK(Select(input, &sel));
  if (sel.empty()) return Status::OK();
  if (sel.size() == input.num_rows()) {
    out->push_back(std::move(input));
  } else {
    out->push_back(input.Gather(sel));
  }
  RecordOut(out->back());
  return Status::OK();
}

}  // namespace dflow
