#ifndef DFLOW_EXEC_FILTER_H_
#define DFLOW_EXEC_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "dflow/exec/operator.h"
#include "dflow/plan/expr.h"

namespace dflow {

/// Streaming, stateless selection: emits the rows of each input chunk that
/// satisfy a resolved boolean predicate. The canonical storage/NIC pushdown
/// operator (Figure 2).
class FilterOperator : public Operator {
 public:
  /// `predicate` must be resolved against `input_schema` and boolean-typed.
  static Result<OperatorPtr> Make(ExprPtr predicate, Schema input_schema,
                                  double selectivity_hint = 0.5);

  std::string name() const override;
  const Schema& output_schema() const override { return schema_; }
  /// Selection is schema-preserving: input layout == output layout.
  const Schema* input_schema() const override { return &schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;

  /// The rows of `input` the predicate keeps, in order. Push and the fused
  /// kernel both select through here.
  Status Select(const DataChunk& input, SelectionVector* sel) const;

 private:
  FilterOperator(ExprPtr predicate, Schema schema, double selectivity_hint)
      : predicate_(std::move(predicate)),
        schema_(std::move(schema)),
        selectivity_hint_(selectivity_hint) {}

  ExprPtr predicate_;
  Schema schema_;
  double selectivity_hint_;
};

}  // namespace dflow

#endif  // DFLOW_EXEC_FILTER_H_
