#include "dflow/compile/program.h"

#include <sstream>
#include <utility>

#include "dflow/common/hash.h"
#include "dflow/plan/fingerprint.h"

namespace dflow::compile {

std::string_view OpCodeToString(OpCode code) {
  switch (code) {
    case OpCode::kDecode:
      return "DECODE";
    case OpCode::kFilter:
      return "FILTER";
    case OpCode::kProject:
      return "PROJECT";
    case OpCode::kPartialAgg:
      return "PARTIAL_AGG";
    case OpCode::kFinalAgg:
      return "FINAL_AGG";
    case OpCode::kCompleteAgg:
      return "COMPLETE_AGG";
    case OpCode::kCount:
      return "COUNT";
    case OpCode::kSort:
      return "SORT";
    case OpCode::kLimit:
      return "LIMIT";
    case OpCode::kEncode:
      return "ENCODE";
    case OpCode::kReDecode:
      return "REDECODE";
    case OpCode::kPartition:
      return "PARTITION";
    case OpCode::kBuild:
      return "BUILD";
    case OpCode::kProbe:
      return "PROBE";
  }
  return "UNKNOWN";
}

namespace {

/// Renders one literal with its type tag, e.g. "date32:9496". NULLs carry
/// only the type so the pool stays unambiguous.
std::string LiteralToString(const Value& v) {
  std::string out(DataTypeToString(v.type()));
  out += ":";
  out += v.is_null() ? "null" : v.ToString();
  return out;
}

/// Renders a resolved expression with literals replaced by their parameter
/// slots ("lit[3]"), matching `slots` in pre-order — the bytecode view of
/// the expression, separating plan shape from the bound constants.
void AppendExprWithSlots(const Expr& e, const std::vector<uint32_t>& slots,
                         size_t* next_slot, std::ostream& os) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      os << "lit[" << slots[(*next_slot)++] << "]";
      return;
    case Expr::Kind::kColumnRef:
      os << "col[" << e.column_index() << "]";
      return;
    default:
      break;
  }
  // Structural nodes: render operator name then children in order.
  switch (e.kind()) {
    case Expr::Kind::kCompare:
      os << "cmp" << static_cast<int>(e.compare_op());
      break;
    case Expr::Kind::kArith:
      os << "arith" << static_cast<int>(e.arith_op());
      break;
    case Expr::Kind::kLike:
      os << "like'" << e.pattern() << "'";
      break;
    case Expr::Kind::kAnd:
      os << "and";
      break;
    case Expr::Kind::kOr:
      os << "or";
      break;
    case Expr::Kind::kNot:
      os << "not";
      break;
    default:
      break;
  }
  os << "(";
  for (size_t i = 0; i < e.children().size(); ++i) {
    if (i > 0) os << ",";
    AppendExprWithSlots(*e.children()[i], slots, next_slot, os);
  }
  os << ")";
}

}  // namespace

std::shared_ptr<const DflowProgram> DflowProgram::Builder::Build() && {
  auto program = std::shared_ptr<DflowProgram>(new DflowProgram());
  program->spec_ = std::move(spec);
  program->table_ = std::move(table);
  program->scan_columns_ = std::move(scan_columns);
  program->scan_schema_ = std::move(scan_schema);
  program->filter_ = std::move(filter);
  program->projections_ = std::move(projections);
  program->ops_ = std::move(ops);
  program->fused_groups_ = std::move(fused_groups);
  program->literals_ = std::move(literals);
  program->placement_ = std::move(placement);
  program->credits_ = credits;
  program->node_ = node;
  program->demand_ = demand;
  program->verify_stamp_ = std::move(verify_stamp);
  program->plan_fingerprint_ = plan_fingerprint;
  program->fabric_epoch_ = fabric_epoch;
  program->verifier_version_ = verifier_version;
  program->fingerprint_ = HashString(program->SerializeToString());
  return program;
}

std::string DflowProgram::SerializeToString() const {
  std::ostringstream os;
  os << "dflow-program v1\n";
  os << "plan_fingerprint " << plan_fingerprint_ << "\n";
  os << "verifier_version " << verifier_version_ << "\n";
  // The fabric epoch is deliberately NOT serialized: the artifact encodes
  // the plan, not when it was compiled — two compiles of the same plan in
  // different epochs must stay byte-identical (epoch freshness is the
  // cache key's job).
  os << "table " << spec_.table << "\n";
  os << "scan";
  for (const std::string& c : scan_columns_) os << " " << c;
  os << "\n";
  os << "placement " << placement_.name;
  for (Site s : placement_.sites) os << " " << SiteToString(s);
  os << "\n";
  os << "credits " << credits_ << "\n";
  os << "literals " << literals_.size() << "\n";
  for (size_t i = 0; i < literals_.size(); ++i) {
    os << "  lit[" << i << "] " << LiteralToString(literals_[i]) << "\n";
  }
  os << "ops " << ops_.size() << "\n";
  for (size_t i = 0; i < ops_.size(); ++i) {
    const ProgramOp& op = ops_[i];
    os << "  [" << i << "] " << OpCodeToString(op.code) << " @"
       << SiteToString(op.site);
    if (op.code == OpCode::kFilter && filter_ != nullptr) {
      size_t next = 0;
      os << " pred=";
      AppendExprWithSlots(*filter_, op.literal_slots, &next, os);
    } else if (op.code == OpCode::kProject) {
      size_t next = 0;
      os << " exprs=";
      for (size_t p = 0; p < projections_.size(); ++p) {
        if (p > 0) os << ";";
        AppendExprWithSlots(*projections_[p], op.literal_slots, &next, os);
      }
    }
    os << " -> " << op.output_schema.ToString() << "\n";
  }
  os << "fused " << fused_groups_.size() << "\n";
  for (const FusedGroup& g : fused_groups_) {
    os << "  [" << g.first << ".." << (g.first + g.count - 1) << "]\n";
  }
  os << "demand makespan_ns=" << static_cast<uint64_t>(demand_.makespan_ns)
     << " network_bytes=" << demand_.network_bytes
     << " interconnect_bytes=" << demand_.interconnect_bytes
     << " membus_bytes=" << demand_.membus_bytes << "\n";
  os << "verify errors=" << verify_stamp_.num_errors()
     << " warnings=" << verify_stamp_.num_warnings() << "\n";
  return os.str();
}

}  // namespace dflow::compile
