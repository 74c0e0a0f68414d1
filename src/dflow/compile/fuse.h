#ifndef DFLOW_COMPILE_FUSE_H_
#define DFLOW_COMPILE_FUSE_H_

#include <string>
#include <vector>

#include "dflow/compile/program.h"
#include "dflow/exec/operator.h"

namespace dflow::compile {

/// The fusion pass: finds every maximal run of >= 2 adjacent ops that are
/// (a) placed at the same site and (b) fusible kinds — filter, project,
/// partial (pre-)aggregate. Those are exactly the streaming stages whose
/// per-chunk scheduling overhead fusion amortizes; stateful barriers
/// (final aggregate, sort), stream-shape changers (decode, encode), and
/// cross-site hops stay unfused so placement and recovery semantics are
/// untouched. Legality rules are catalogued in DESIGN.md §10.
std::vector<FusedGroup> PlanFusion(const std::vector<ProgramOp>& ops);

/// A fused kernel: the inner operators execute back-to-back inside one
/// graph stage — one scheduling quantum, one credit hop, one device charge
/// per chunk — with chunk-for-chunk identical output to the unfused chain
/// (each inner operator sees exactly the Push/Finish sequence it would have
/// seen across separate stages, in the same order).
class FusedOperator : public Operator {
 public:
  /// `inner` must be non-empty; ownership transfers.
  static Result<OperatorPtr> Make(std::vector<OperatorPtr> inner);

  std::string name() const override { return name_; }
  const Schema& output_schema() const override {
    return inner_.back()->output_schema();
  }
  const Schema* input_schema() const override {
    return inner_.front()->input_schema();
  }
  OperatorTraits traits() const override { return traits_; }
  Status Push(const DataChunk& input, std::vector<DataChunk>* out) override;
  Status Finish(std::vector<DataChunk>* out) override;
  uint64_t OutputWireBytes(const DataChunk& output) const override {
    return inner_.back()->OutputWireBytes(output);
  }

 private:
  explicit FusedOperator(std::vector<OperatorPtr> inner);

  /// Pushes `chunk` through inner operators [from, end), appending the
  /// survivors to `out`.
  Status RunFrom(size_t from, const DataChunk& chunk,
                 std::vector<DataChunk>* out);

  std::vector<OperatorPtr> inner_;
  std::string name_;
  OperatorTraits traits_;
};

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_FUSE_H_
