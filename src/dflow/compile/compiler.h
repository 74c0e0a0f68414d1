#ifndef DFLOW_COMPILE_COMPILER_H_
#define DFLOW_COMPILE_COMPILER_H_

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
// carries the entry to the one opcode -> operator table, which also types
// the program's schema table at lowering (its join case sits beside it in
// compiler.cc). Planning charges no simulated time: what it costs is host
// time, measured by bench/e2e.

namespace dflow::compile {

/// Instantiates the live operator for one op of `program` against the
/// schema entering it (`*current`, updated to the op's output schema). The
/// dataflow graph builder and the real-parallel executor both dispatch on
/// opcodes through this one table.
Result<OperatorPtr> InstantiateOp(const DflowProgram& program,
                                  const ProgramOp& op, Schema* current);

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_COMPILER_H_
