#ifndef DFLOW_COMPILE_FUSE_H_
#define DFLOW_COMPILE_FUSE_H_

#include <string>
#include <vector>

#include "dflow/compile/program.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/operator.h"
#include "dflow/exec/project.h"

namespace dflow::compile {

/// The fusion pass: finds every maximal run of >= 2 adjacent ops that are
/// (a) placed at the same site and (b) fusible kinds — filter, project,
/// partial (pre-)aggregate. Those are exactly the streaming stages whose
/// per-chunk scheduling overhead fusion amortizes; stateful barriers
/// (final aggregate, sort), stream-shape changers (decode, encode), and
/// cross-site hops stay unfused so placement and recovery semantics are
/// untouched. Legality rules are catalogued in DESIGN.md §10.
std::vector<FusedGroup> PlanFusion(const std::vector<ProgramOp>& ops);

/// A fused kernel: a filter, a projection and an aggregate — each optional,
/// in that order — run as one graph stage (one scheduling quantum, one
/// credit hop, one device charge per chunk) and in one pass over each
/// chunk. The filter's predicate yields a selection vector; a projection
/// that is a plain column reference becomes a view of the input column
/// through it, and a computed projection is evaluated over the selected
/// rows only; the aggregate consumes the (chunk, selection) pair. Rows are
/// gathered only when the last member emits them, and then only the
/// surviving rows of the output columns. The output is chunk-for-chunk the
/// output of the member chain run back to back, which stays the reference
/// (DESIGN.md §10).
class FusedOperator : public Operator {
 public:
  /// `inner`: one to three of FilterOperator, ProjectOperator,
  /// HashAggregateOperator, in that order, none twice; ownership transfers.
  static Result<OperatorPtr> Make(std::vector<OperatorPtr> inner);

  std::string name() const override { return name_; }
  const Schema& output_schema() const override {
    return inner_.back()->output_schema();
  }
  const Schema* input_schema() const override {
    return inner_.front()->input_schema();
  }
  OperatorTraits traits() const override { return traits_; }
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;
  Status Finish(std::vector<DataChunk>* out) override;
  uint64_t OutputWireBytes(const DataChunk& output) const override {
    return inner_.back()->OutputWireBytes(output);
  }

 private:
  explicit FusedOperator(std::vector<OperatorPtr> inner);

  std::vector<OperatorPtr> inner_;
  // The members by role, each null when absent; they point into inner_.
  FilterOperator* filter_ = nullptr;
  ProjectOperator* project_ = nullptr;
  HashAggregateOperator* aggregate_ = nullptr;
  std::string name_;
  OperatorTraits traits_;
};

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_FUSE_H_
