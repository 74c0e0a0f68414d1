#ifndef DFLOW_COMPILE_COMPILER_H_
#define DFLOW_COMPILE_COMPILER_H_

#include <cstdint>

#include "dflow/common/result.h"
#include "dflow/compile/program.h"
#include "dflow/exec/operator.h"

// The plan compiler's entry points are Engine methods (Engine::CompilePlan,
// Engine::CompileVariant, Engine::Compile, Engine::ExecuteProgram,
// Engine::BuildProgramPipeline — see engine.h), and every simulated and
// parallel Execute entry point lowers through the same private
// Engine::LowerProgram, every partitioned join through Engine::LowerJoin.
// Their implementation lives in this subsystem (compiler.cc) because
// lowering needs the engine's private query preparation. This header
// carries the one opcode -> operator table (its join case sits beside it
// in compiler.cc) and the compiler's modeled cost constants, shared by the
// serving loop's cache accounting and the bench gates.

namespace dflow::compile {

/// Instantiates the live operator for one op of `program` against the
/// schema entering it (`*current`, updated to the op's output schema). The
/// dataflow graph builder and the real-parallel executor both dispatch on
/// opcodes through this one table.
Result<OperatorPtr> InstantiateOp(const DflowProgram& program,
                                  const ProgramOp& op, Schema* current);

/// Modeled virtual-time cost of planning and compilation, in nanoseconds.
/// These are *accounting* constants, not simulation events: admission
/// timing on the fabric is unchanged, but every admission adds the costs it
/// actually incurred to the service report's cache counters, which is what
/// makes "warm-path planning cost ~ 0" a gateable, deterministic number.
/// Magnitudes are loosely calibrated to a query-optimizer profile: parsing
/// + resolution tens of microseconds, per-variant costing microseconds,
/// verification per graph element, cache lookup sub-microsecond.
inline constexpr uint64_t kPlanPrepareCostNs = 20'000;
/// Scan sizing: the optimizer reads encoded/decoded byte counts from
/// row-group metadata.
inline constexpr uint64_t kPlanScanSizingCostNs = 50'000;
inline constexpr uint64_t kPlanPerVariantCostNs = 5'000;
inline constexpr uint64_t kLowerPerOpCostNs = 1'000;
inline constexpr uint64_t kVerifyPerStageCostNs = 2'000;
inline constexpr uint64_t kVerifyPerEdgeCostNs = 1'000;
inline constexpr uint64_t kCacheLookupCostNs = 500;

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_COMPILER_H_
