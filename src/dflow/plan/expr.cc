#include "dflow/plan/expr.h"

#include <algorithm>
#include <sstream>

#include "dflow/common/logging.h"

namespace dflow {

namespace {

/// Relative cost of evaluating a predicate per row, for ordering an AND's
/// conjuncts cheapest first: literals, then a column against a constant,
/// then other compares and arithmetic, then LIKE. A combinator costs what
/// its dearest child does.
int PredicateCost(const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      return 0;
    case Expr::Kind::kColumnRef:
      return 1;
    case Expr::Kind::kCompare:
      return e.IsColumnConstantCompare() ? 1 : 2;
    case Expr::Kind::kArith:
      return 2;
    case Expr::Kind::kLike:
      return 3;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
    case Expr::Kind::kNot: {
      int cost = 0;
      for (const ExprPtr& c : e.children()) {
        cost = std::max(cost, PredicateCost(*c));
      }
      return cost;
    }
  }
  return 3;
}

}  // namespace

ExprPtr Expr::Col(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kColumnRef));
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::ColAt(size_t index) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kColumnRef));
  e->column_index_ = index;
  return e;
}

ExprPtr Expr::Lit(Value value) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kLiteral));
  e->value_ = std::move(value);
  return e;
}

ExprPtr Expr::Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kCompare));
  e->compare_op_ = op;
  e->children_ = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kArith));
  e->arith_op_ = op;
  e->children_ = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Expr::Like(ExprPtr input, std::string pattern) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kLike));
  e->pattern_ = std::move(pattern);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::And(std::vector<ExprPtr> children) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAnd));
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Or(std::vector<ExprPtr> children) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kOr));
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kNot));
  e->children_ = {std::move(child)};
  return e;
}

bool Expr::is_resolved() const {
  if (kind_ == Kind::kColumnRef) return column_index_ != kUnresolved;
  for (const ExprPtr& c : children_) {
    if (!c->is_resolved()) return false;
  }
  return true;
}

bool Expr::IsColumnConstantCompare() const {
  return kind_ == Kind::kCompare &&
         children_[0]->kind_ == Kind::kColumnRef &&
         children_[1]->kind_ == Kind::kLiteral;
}

void Expr::CollectColumnIndices(std::vector<size_t>* out) const {
  if (kind_ == Kind::kColumnRef) {
    DFLOW_CHECK(column_index_ != kUnresolved);
    out->push_back(column_index_);
    return;
  }
  for (const ExprPtr& c : children_) {
    c->CollectColumnIndices(out);
  }
}

bool Expr::IsPredicate() const {
  switch (kind_) {
    case Kind::kCompare:
    case Kind::kLike:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      return true;
    case Kind::kLiteral:
      return value_.type() == DataType::kBool;
    case Kind::kColumnRef:
      return false;  // would need schema; treated as value expr
    case Kind::kArith:
      return false;
  }
  return false;
}

Result<ExprPtr> Expr::Resolve(const ExprPtr& expr, const Schema& schema) {
  switch (expr->kind_) {
    case Kind::kColumnRef: {
      if (expr->column_index_ != kUnresolved) {
        if (expr->column_index_ >= schema.num_fields()) {
          return Status::InvalidArgument("column index out of schema range");
        }
        return expr;
      }
      DFLOW_ASSIGN_OR_RETURN(size_t idx,
                             schema.FieldIndex(expr->column_name_));
      auto e = std::shared_ptr<Expr>(new Expr(Kind::kColumnRef));
      e->column_name_ = expr->column_name_;
      e->column_index_ = idx;
      return ExprPtr(e);
    }
    case Kind::kLiteral:
      return expr;
    default: {
      auto e = std::shared_ptr<Expr>(new Expr(expr->kind_));
      e->compare_op_ = expr->compare_op_;
      e->arith_op_ = expr->arith_op_;
      e->pattern_ = expr->pattern_;
      e->value_ = expr->value_;
      e->children_.reserve(expr->children_.size());
      for (const ExprPtr& c : expr->children_) {
        DFLOW_ASSIGN_OR_RETURN(ExprPtr rc, Resolve(c, schema));
        e->children_.push_back(std::move(rc));
      }
      return ExprPtr(e);
    }
  }
}

Result<DataType> Expr::OutputType(const Schema& schema) const {
  switch (kind_) {
    case Kind::kColumnRef:
      if (column_index_ == kUnresolved) {
        return Status::InvalidArgument("unresolved column reference");
      }
      return schema.field(column_index_).type;
    case Kind::kLiteral:
      return value_.type();
    case Kind::kCompare:
    case Kind::kLike:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      return DataType::kBool;
    case Kind::kArith: {
      DFLOW_ASSIGN_OR_RETURN(DataType lt, children_[0]->OutputType(schema));
      DFLOW_ASSIGN_OR_RETURN(DataType rt, children_[1]->OutputType(schema));
      if (lt == DataType::kDouble || rt == DataType::kDouble) {
        return DataType::kDouble;
      }
      return DataType::kInt64;
    }
  }
  return Status::Internal("unreachable");
}

Result<const ColumnVector*> Expr::Operand(const DataChunk& chunk,
                                          const SelectionVector* sel,
                                          ColumnVector* scratch) const {
  if (kind_ == Kind::kColumnRef && sel == nullptr) {
    if (column_index_ == kUnresolved) {
      return Status::InvalidArgument("unresolved column reference '" +
                                     column_name_ + "'");
    }
    if (column_index_ >= chunk.num_columns()) {
      return Status::OutOfRange("column index beyond chunk arity");
    }
    return &chunk.column(column_index_);
  }
  DFLOW_ASSIGN_OR_RETURN(*scratch, Evaluate(chunk, sel));
  return scratch;
}

Result<ColumnVector> Expr::Evaluate(const DataChunk& chunk,
                                    const SelectionVector* sel) const {
  switch (kind_) {
    case Kind::kColumnRef: {
      ColumnVector unused;
      DFLOW_ASSIGN_OR_RETURN(const ColumnVector* col,
                             Operand(chunk, nullptr, &unused));
      return sel == nullptr ? *col : col->Gather(*sel);
    }
    case Kind::kLiteral: {
      const size_t rows = sel == nullptr ? chunk.num_rows() : sel->size();
      ColumnVector col(value_.type());
      for (size_t i = 0; i < rows; ++i) col.AppendValue(value_);
      return col;
    }
    case Kind::kArith: {
      // Literal operands use the constant fast path.
      const ExprPtr& l = children_[0];
      const ExprPtr& r = children_[1];
      ColumnVector ls, rs, out;
      DFLOW_ASSIGN_OR_RETURN(const ColumnVector* lv, l->Operand(chunk, sel, &ls));
      if (r->kind_ == Kind::kLiteral) {
        DFLOW_RETURN_NOT_OK(ArithmeticConst(*lv, arith_op_, r->value_, &out));
        return out;
      }
      DFLOW_ASSIGN_OR_RETURN(const ColumnVector* rv, r->Operand(chunk, sel, &rs));
      DFLOW_RETURN_NOT_OK(Arithmetic(*lv, arith_op_, *rv, &out));
      return out;
    }
    case Kind::kCompare:
    case Kind::kLike:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      Mask mask;
      DFLOW_RETURN_NOT_OK(EvaluatePredicate(chunk, sel, &mask));
      return ColumnVector::FromBool(std::move(mask));
    }
  }
  return Status::Internal("unreachable");
}

Status Expr::EvaluatePredicate(const DataChunk& chunk, Mask* mask) const {
  return EvaluatePredicate(chunk, nullptr, mask);
}

Status Expr::EvaluatePredicate(const DataChunk& chunk,
                               const SelectionVector* sel, Mask* mask) const {
  const size_t rows = sel == nullptr ? chunk.num_rows() : sel->size();
  switch (kind_) {
    case Kind::kCompare: {
      const ExprPtr& l = children_[0];
      const ExprPtr& r = children_[1];
      ColumnVector ls, rs;
      if (r->kind_ == Kind::kLiteral) {
        // A column is compared in place, through the selection.
        const SelectionVector* in_place =
            l->kind_ == Kind::kColumnRef ? sel : nullptr;
        DFLOW_ASSIGN_OR_RETURN(
            const ColumnVector* lv,
            l->Operand(chunk, in_place == nullptr ? sel : nullptr, &ls));
        return CompareToConstant(*lv, compare_op_, r->value_, mask, in_place);
      }
      DFLOW_ASSIGN_OR_RETURN(const ColumnVector* lv,
                             l->Operand(chunk, sel, &ls));
      DFLOW_ASSIGN_OR_RETURN(const ColumnVector* rv,
                             r->Operand(chunk, sel, &rs));
      return CompareColumns(*lv, compare_op_, *rv, mask);
    }
    case Kind::kLike: {
      const ExprPtr& input = children_[0];
      const SelectionVector* in_place =
          input->kind_ == Kind::kColumnRef ? sel : nullptr;
      ColumnVector scratch;
      DFLOW_ASSIGN_OR_RETURN(
          const ColumnVector* col,
          input->Operand(chunk, in_place == nullptr ? sel : nullptr,
                         &scratch));
      return ComputeLikeMask(*col, pattern_, mask, in_place);
    }
    case Kind::kAnd: {
      if (children_.empty()) {
        return Status::InvalidArgument("AND requires children");
      }
      // Cheapest conjunct first; each later one runs only on the rows the
      // earlier ones kept. Stable, so equal costs keep their written order.
      std::vector<const Expr*> order;
      for (const ExprPtr& c : children_) order.push_back(c.get());
      std::stable_sort(order.begin(), order.end(),
                       [](const Expr* a, const Expr* b) {
                         return PredicateCost(*a) < PredicateCost(*b);
                       });
      Status st = order[0]->EvaluatePredicate(chunk, sel, mask);
      SelectionVector kept;
      Mask part;
      for (size_t k = 1; k < order.size() && st.ok(); ++k) {
        kept.Clear();
        for (size_t i = 0; i < rows; ++i) {
          if ((*mask)[i]) kept.Append(sel == nullptr ? i : (*sel)[i]);
        }
        if (kept.size() == rows) {
          st = order[k]->EvaluatePredicate(chunk, sel, &part);
          if (st.ok()) AndMasks(part, mask);
          continue;
        }
        // Even over no rows the conjunct runs, so it still type-checks.
        st = order[k]->EvaluatePredicate(chunk, &kept, &part);
        if (!st.ok()) break;
        for (size_t i = 0, j = 0; i < rows; ++i) {
          if ((*mask)[i]) (*mask)[i] = part[j++];
        }
      }
      if (st.ok()) return st;
      // Errors depend on types, never on rows: report the one the first
      // failing conjunct in written order gives.
      for (const ExprPtr& c : children_) {
        DFLOW_RETURN_NOT_OK(c->EvaluatePredicate(chunk, sel, &part));
      }
      return st;
    }
    case Kind::kOr: {
      if (children_.empty()) {
        return Status::InvalidArgument("OR requires children");
      }
      DFLOW_RETURN_NOT_OK(children_[0]->EvaluatePredicate(chunk, sel, mask));
      for (size_t i = 1; i < children_.size(); ++i) {
        Mask other;
        DFLOW_RETURN_NOT_OK(
            children_[i]->EvaluatePredicate(chunk, sel, &other));
        OrMasks(other, mask);
      }
      return Status::OK();
    }
    case Kind::kNot: {
      DFLOW_RETURN_NOT_OK(children_[0]->EvaluatePredicate(chunk, sel, mask));
      NotMask(mask);
      return Status::OK();
    }
    case Kind::kLiteral: {
      if (value_.type() != DataType::kBool || value_.is_null()) {
        return Status::InvalidArgument("literal predicate must be BOOL");
      }
      mask->assign(rows, value_.bool_value() ? 1 : 0);
      return Status::OK();
    }
    case Kind::kColumnRef: {
      ColumnVector unused;
      DFLOW_ASSIGN_OR_RETURN(const ColumnVector* col,
                             Operand(chunk, nullptr, &unused));
      if (col->type() != DataType::kBool) {
        return Status::InvalidArgument("column predicate must be BOOL");
      }
      mask->assign(rows, 0);
      for (size_t i = 0; i < rows; ++i) {
        const size_t row = sel == nullptr ? i : (*sel)[i];
        (*mask)[i] = col->IsValid(row) && col->bool_data()[row] ? 1 : 0;
      }
      return Status::OK();
    }
    case Kind::kArith:
      return Status::InvalidArgument("arithmetic expression is not a predicate");
  }
  return Status::Internal("unreachable");
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kColumnRef:
      if (!column_name_.empty()) {
        os << column_name_;
      } else {
        os << "$" << column_index_;
      }
      break;
    case Kind::kLiteral:
      os << value_.ToString();
      break;
    case Kind::kCompare:
      os << "(" << children_[0]->ToString() << " "
         << CompareOpToString(compare_op_) << " " << children_[1]->ToString()
         << ")";
      break;
    case Kind::kArith:
      os << "(" << children_[0]->ToString() << " "
         << ArithOpToString(arith_op_) << " " << children_[1]->ToString()
         << ")";
      break;
    case Kind::kLike:
      os << "(" << children_[0]->ToString() << " LIKE '" << pattern_ << "')";
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      const char* sep = kind_ == Kind::kAnd ? " AND " : " OR ";
      os << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << sep;
        os << children_[i]->ToString();
      }
      os << ")";
      break;
    }
    case Kind::kNot:
      os << "NOT " << children_[0]->ToString();
      break;
  }
  return os.str();
}

ExprPtr Between(std::string column, Value lo_inclusive, Value hi_exclusive) {
  return Expr::And({Expr::Cmp(CompareOp::kGe, Expr::Col(column),
                              Expr::Lit(std::move(lo_inclusive))),
                    Expr::Cmp(CompareOp::kLt, Expr::Col(std::move(column)),
                              Expr::Lit(std::move(hi_exclusive)))});
}

}  // namespace dflow
