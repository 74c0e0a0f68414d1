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
  for (const OperatorPtr& op : inner) {
    if (op == nullptr) {
      return Status::InvalidArgument("fused kernel member is null");
    }
  }
  return OperatorPtr(new FusedOperator(std::move(inner)));
}

Status FusedOperator::RunFrom(size_t from, const DataChunk& chunk,
                              std::vector<DataChunk>* out) {
  if (from == inner_.size()) {
    RecordOut(chunk);
    out->push_back(chunk);
    return Status::OK();
  }
  std::vector<DataChunk> produced;
  DFLOW_RETURN_NOT_OK(inner_[from]->Push(chunk, &produced));
  for (const DataChunk& c : produced) {
    DFLOW_RETURN_NOT_OK(RunFrom(from + 1, c, out));
  }
  return Status::OK();
}

Status FusedOperator::Push(const DataChunk& input,
                           std::vector<DataChunk>* out) {
  RecordIn(input);
  return RunFrom(0, input, out);
}

Status FusedOperator::Finish(std::vector<DataChunk>* out) {
  // Flush in chain order: operator i's end-of-stream output streams through
  // the members after it *before* they flush — the same order separate
  // stages would observe as EOS propagates down the pipeline.
  for (size_t i = 0; i < inner_.size(); ++i) {
    std::vector<DataChunk> flushed;
    DFLOW_RETURN_NOT_OK(inner_[i]->Finish(&flushed));
    for (const DataChunk& c : flushed) {
      DFLOW_RETURN_NOT_OK(RunFrom(i + 1, c, out));
    }
  }
  return Status::OK();
}

}  // namespace dflow::compile
