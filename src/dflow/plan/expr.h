#ifndef DFLOW_PLAN_EXPR_H_
#define DFLOW_PLAN_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/types/schema.h"
#include "dflow/types/value.h"
#include "dflow/vector/data_chunk.h"
#include "dflow/vector/kernels.h"

namespace dflow {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Scalar expression tree: column references, literals, comparisons,
/// arithmetic, LIKE, and boolean combinators.
///
/// Expressions are built name-based (Col("l_quantity")) and resolved against
/// an input schema before execution (Resolve), which rewrites references to
/// positional indices. Only resolved expressions can be evaluated — the
/// planner resolves once; operators evaluate per chunk.
class Expr {
 public:
  enum class Kind {
    kColumnRef,
    kLiteral,
    kCompare,
    kArith,
    kLike,
    kAnd,
    kOr,
    kNot,
  };

  // -------------------------------------------------------- construction --
  /// Reference by name (unresolved).
  static ExprPtr Col(std::string name);
  /// Reference by position (resolved).
  static ExprPtr ColAt(size_t index);
  static ExprPtr Lit(Value value);
  static ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right);
  static ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);
  static ExprPtr Like(ExprPtr input, std::string pattern);
  static ExprPtr And(std::vector<ExprPtr> children);
  static ExprPtr Or(std::vector<ExprPtr> children);
  static ExprPtr Not(ExprPtr child);

  // --------------------------------------------------------- introspection --
  Kind kind() const { return kind_; }
  bool is_resolved() const;
  /// For kColumnRef.
  size_t column_index() const { return column_index_; }
  const std::string& column_name() const { return column_name_; }
  /// For kLiteral.
  const Value& value() const { return value_; }
  /// For kCompare / kArith.
  CompareOp compare_op() const { return compare_op_; }
  ArithOp arith_op() const { return arith_op_; }
  /// For kLike.
  const std::string& pattern() const { return pattern_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// True when this is `column <op> literal` (zone-map-prunable shape).
  bool IsColumnConstantCompare() const;

  /// Adds every referenced column index to `out` (must be resolved).
  void CollectColumnIndices(std::vector<size_t>* out) const;

  /// True if the expression evaluates to a boolean (usable as a predicate).
  bool IsPredicate() const;

  // ------------------------------------------------------------ resolution --
  /// Returns a copy with all name references resolved to indices in
  /// `schema`. Errors on unknown names.
  static Result<ExprPtr> Resolve(const ExprPtr& expr, const Schema& schema);

  /// Output type of a (resolved) value expression against `schema`.
  Result<DataType> OutputType(const Schema& schema) const;

  // ------------------------------------------------------------ evaluation --
  /// Evaluates a value expression over a chunk, or over only the rows `sel`
  /// selects (in selection order) when it is non-null: equal to evaluating
  /// over the gathered rows. Must be resolved.
  Result<ColumnVector> Evaluate(const DataChunk& chunk,
                                const SelectionVector* sel = nullptr) const;

  /// Evaluates a predicate over a chunk into a byte mask. Must be resolved.
  /// An AND runs its conjuncts cheapest first, each over only the rows the
  /// earlier ones kept; the mask equals evaluating every conjunct over the
  /// whole chunk, and so does the Status.
  Status EvaluatePredicate(const DataChunk& chunk, Mask* mask) const;

  std::string ToString() const;

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  /// EvaluatePredicate over only the rows `sel` selects (every row when
  /// null): mask entry i is row sel[i].
  Status EvaluatePredicate(const DataChunk& chunk, const SelectionVector* sel,
                           Mask* mask) const;

  /// The column a value expression denotes: a column reference without a
  /// selection reads the chunk's own column in place; anything else is
  /// evaluated into `*scratch`.
  Result<const ColumnVector*> Operand(const DataChunk& chunk,
                                      const SelectionVector* sel,
                                      ColumnVector* scratch) const;

  Kind kind_;
  // kColumnRef
  std::string column_name_;
  size_t column_index_ = kUnresolved;
  // kLiteral
  Value value_;
  // kCompare / kArith / kLike
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  std::string pattern_;
  std::vector<ExprPtr> children_;

  static constexpr size_t kUnresolved = static_cast<size_t>(-1);
};

/// Convenience: conjunction of column-vs-constant range predicates, e.g.
/// BETWEEN. Returns Cmp(ge) AND Cmp(lt).
ExprPtr Between(std::string column, Value lo_inclusive, Value hi_exclusive);

}  // namespace dflow

#endif  // DFLOW_PLAN_EXPR_H_
