#include "dflow/compile/fuse.h"

#include <utility>

namespace dflow::compile {

namespace {
bool Fusible(OpCode code) {
  switch (code) {
    case OpCode::kFilter:
    case OpCode::kProject:
    case OpCode::kPartialAgg:
      return true;
    default:
      return false;
  }
}
}  // namespace

std::vector<FusedGroup> PlanFusion(const std::vector<ProgramOp>& ops) {
  std::vector<FusedGroup> groups;
  size_t i = 0;
  while (i < ops.size()) {
    if (!Fusible(ops[i].code)) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < ops.size() && Fusible(ops[j].code) &&
           ops[j].site == ops[i].site) {
      ++j;
    }
    if (j - i >= 2) {
      groups.push_back(FusedGroup{static_cast<uint32_t>(i),
                                  static_cast<uint32_t>(j - i)});
    }
    i = j;
  }
  return groups;
}

FusedOperator::FusedOperator(std::vector<OperatorPtr> inner)
    : inner_(std::move(inner)) {
  name_ = "fused(";
  for (size_t i = 0; i < inner_.size(); ++i) {
    if (i > 0) name_ += "+";
    name_ += inner_[i]->name();
  }
  name_ += ")";
  // Combined traits: the fused kernel is charged as one stage of the first
  // member's cost class (the per-chunk charges of the rest are what fusion
  // amortizes away); data-reduction estimates multiply along the chain, and
  // the state flags are the conjunction/disjunction placement legality
  // needs — the kernel is only as streaming/stateless as its weakest link.
  traits_ = inner_.front()->traits();
  for (size_t i = 1; i < inner_.size(); ++i) {
    const OperatorTraits t = inner_[i]->traits();
    traits_.streaming = traits_.streaming && t.streaming;
    traits_.stateless = traits_.stateless && t.stateless;
    traits_.bounded_state = traits_.bounded_state || t.bounded_state;
    traits_.reduction_hint *= t.reduction_hint;
  }
}

Result<OperatorPtr> FusedOperator::Make(std::vector<OperatorPtr> inner) {
  if (inner.empty()) {
    return Status::InvalidArgument("fused kernel needs at least one operator");
  }
  FilterOperator* filter = nullptr;
  ProjectOperator* project = nullptr;
  HashAggregateOperator* aggregate = nullptr;
  int last_role = -1;  // filter 0, project 1, aggregate 2
  for (const OperatorPtr& op : inner) {
    int role = -1;
    if (auto* f = dynamic_cast<FilterOperator*>(op.get())) {
      filter = f;
      role = 0;
    } else if (auto* p = dynamic_cast<ProjectOperator*>(op.get())) {
      project = p;
      role = 1;
    } else if (auto* a = dynamic_cast<HashAggregateOperator*>(op.get())) {
      aggregate = a;
      role = 2;
    }
    if (role <= last_role) {
      return Status::InvalidArgument(
          "fused kernel runs filter, project, aggregate in that order; got " +
          (op == nullptr ? std::string("null") : op->name()));
    }
    last_role = role;
  }
  auto* fused = new FusedOperator(std::move(inner));
  fused->filter_ = filter;
  fused->project_ = project;
  fused->aggregate_ = aggregate;
  return OperatorPtr(fused);
}

Status FusedOperator::Push(DataChunk input,
                           std::vector<DataChunk>* out) {
  RecordIn(input);
  SelectionVector sel;
  const SelectionVector* selected = nullptr;  // null: every row
  if (filter_ != nullptr) {
    DFLOW_RETURN_NOT_OK(filter_->Select(input, &sel));
    if (sel.empty()) return Status::OK();
    if (sel.size() < input.num_rows()) selected = &sel;
  }
  std::vector<ColumnVector> computed;
  ChunkView view;
  if (project_ != nullptr) {
    DFLOW_RETURN_NOT_OK(
        project_->ProjectView(input, selected, &computed, &view));
  } else {
    view = ChunkView::Of(input, selected);
  }
  const size_t first_out = out->size();
  if (aggregate_ != nullptr) {
    DFLOW_RETURN_NOT_OK(aggregate_->Consume(view, out));
  } else {
    out->push_back(view.Materialize());
  }
  for (size_t i = first_out; i < out->size(); ++i) RecordOut((*out)[i]);
  return Status::OK();
}

Status FusedOperator::Finish(std::vector<DataChunk>* out) {
  // Only an aggregate holds state, and it is the last member: its flush is
  // the kernel's.
  const size_t first_out = out->size();
  if (aggregate_ != nullptr) DFLOW_RETURN_NOT_OK(aggregate_->Finish(out));
  for (size_t i = first_out; i < out->size(); ++i) RecordOut((*out)[i]);
  return Status::OK();
}

}  // namespace dflow::compile
