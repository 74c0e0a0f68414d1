#ifndef DFLOW_EXEC_PROJECT_H_
#define DFLOW_EXEC_PROJECT_H_

#include <string>
#include <vector>

#include "dflow/exec/operator.h"
#include "dflow/plan/expr.h"

namespace dflow {

/// Streaming, stateless projection: evaluates one resolved expression per
/// output column. Pure column selection (all expressions are column refs)
/// is the storage-pushdown projection of Figure 2; computed expressions
/// (discount math etc.) are the general case.
class ProjectOperator : public Operator {
 public:
  /// `exprs[i]` produces output column `names[i]`. All must be resolved
  /// against `input_schema`.
  static Result<OperatorPtr> Make(std::vector<ExprPtr> exprs,
                                  std::vector<std::string> names,
                                  const Schema& input_schema);

  std::string name() const override { return "project"; }
  const Schema& output_schema() const override { return schema_; }
  const Schema* input_schema() const override { return &input_schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;

  /// The fused kernel's projection of the rows `sel` selects (all rows when
  /// null), without copying them: an output that is a plain column
  /// reference becomes a view of that input column through `sel`; a
  /// computed one is evaluated over the selected rows only, into
  /// `*computed`, which must outlive `*view`.
  Status ProjectView(const DataChunk& input, const SelectionVector* sel,
                     std::vector<ColumnVector>* computed,
                     ChunkView* view) const;

 private:
  ProjectOperator(std::vector<ExprPtr> exprs, Schema schema,
                  Schema input_schema, double reduction_hint)
      : exprs_(std::move(exprs)),
        schema_(std::move(schema)),
        input_schema_(std::move(input_schema)),
        reduction_hint_(reduction_hint) {}

  std::vector<ExprPtr> exprs_;
  Schema schema_;
  Schema input_schema_;
  double reduction_hint_;
};

}  // namespace dflow

#endif  // DFLOW_EXEC_PROJECT_H_
