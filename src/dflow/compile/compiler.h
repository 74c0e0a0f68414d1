#ifndef DFLOW_COMPILE_COMPILER_H_
#define DFLOW_COMPILE_COMPILER_H_

#include <optional>
#include <utility>
#include <vector>

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
// compiler.cc), and the one partition split of a lowered program, which
// both partitioned executors (kParallel's morsel pipeline and the cluster
// router) map onto their own layers. Planning charges no simulated time:
// what it costs is host time, measured by bench/e2e.

namespace dflow::compile {

/// Instantiates the live operator for one op of `program` against the
/// schema entering it (`*current`, updated to the op's output schema). The
/// dataflow graph builder and the partition split both dispatch on opcodes
/// through this one table.
Result<OperatorPtr> InstantiateOp(const DflowProgram& program,
                                  const ProgramOp& op, Schema* current);

/// The split of a CPU-only query program into work that runs once per
/// partition (a morsel, a cluster node's shard), a merge over the
/// partitions' outputs, and a final output step:
///
///   stream half     FILTER, PROJECT
///   partition half  COUNT | an unbounded kPartial half of COMPLETE_AGG
///   merge half      a SUM of the counts | the kFinal aggregate
///   output half     SORT, LIMIT
///
/// DECODE is skipped: it is identity on data and models a wire size the
/// partitioned executors do not have. The unbounded partial never flushes
/// early, so a merge sees exactly one partial state per (partition, group).
/// Every Make* call returns fresh operators, so each partition runs private
/// state; the split itself is immutable and shares the program.
class PartitionSplit {
 public:
  /// Reads the program's opcodes once. Any opcode outside the four halves
  /// (a placement that keeps work off the CPU) is Status::Internal.
  static Result<PartitionSplit> Make(ProgramPtr program);

  /// The stream half, in program order; empty when the query has none.
  Result<std::vector<OperatorPtr>> MakeStream() const;
  /// The partition half over partition_schema(); null when the query
  /// neither counts nor aggregates.
  Result<OperatorPtr> MakePartition() const;
  /// The merge half over the partition half's output; null when there is
  /// no partition half.
  Result<OperatorPtr> MakeMerge() const;
  /// The output half over the merged rows; empty when the query has none.
  Result<std::vector<OperatorPtr>> MakeOutput() const;

  /// The schema entering the partition half: the stream half's output.
  const Schema& partition_schema() const { return partition_schema_; }
  /// True when the partition half is a COUNT.
  bool counts() const;

 private:
  explicit PartitionSplit(ProgramPtr program)
      : program_(std::move(program)) {}

  /// Instantiates program ops `indices`, each against its entry schema.
  Result<std::vector<OperatorPtr>> MakeOps(
      const std::vector<size_t>& indices) const;

  ProgramPtr program_;
  std::vector<size_t> stream_;
  std::optional<size_t> partition_;  // the COUNT or COMPLETE_AGG op
  std::vector<size_t> output_;
  Schema partition_schema_;
  Schema merge_schema_;  // the partition half's output
};

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_COMPILER_H_
