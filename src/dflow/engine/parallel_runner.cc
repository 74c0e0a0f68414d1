// ExecMode::kParallel: Engine entry points for the morsel-driven real-
// thread executor, plus the DflowProgram -> ParallelPipelineSpec lowering.
//
// The simulator stays the oracle: these paths must produce byte-identical
// canonical results (DiffRunner's real-parallel lane enforces it against
// the Volcano reference for every fuzzed plan).

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dflow/compile/compiler.h"
#include "dflow/compile/fuse.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/parallel/parallel_join.h"
#include "dflow/exec/scan.h"

namespace dflow {

namespace {

using compile::OpCode;
using compile::ProgramOp;

/// One operator of the worker chain, instantiated afresh per morsel.
using OpFactory = std::function<Result<OperatorPtr>()>;

/// Lowers a CPU-only program to the real-parallel executor's three-layer
/// pipeline shape (see parallel::ParallelPipelineSpec) by dispatching on
/// its opcodes:
///
///   worker chain   FILTER, PROJECT, the per-morsel half of COUNT (a count)
///                  and of COMPLETE_AGG (an unbounded partial aggregate)
///   merge chain    the merge half: a SUM of the counts | the final agg
///   output chain   SORT, LIMIT
///
/// with canonical ordering enabled whenever the query lacks an ORDER BY.
/// DECODE is skipped: it is identity on data and models a wire size the
/// real executor doesn't have. Any other opcode (a placement that keeps
/// work off the CPU) is Status::Internal. A worker chain without a COUNT
/// runs as one compile::FusedOperator, the kernel the simulated graphs run
/// for their fused groups.
Result<parallel::ParallelPipelineSpec> BuildParallelPipelineSpec(
    const compile::ProgramPtr& program) {
  const QuerySpec& spec = program->spec();
  // Worker factories share the immutable program; its resolved expressions
  // are const-evaluated, which is thread-safe.
  parallel::ParallelPipelineSpec pipeline;
  std::vector<OpFactory> worker;
  bool fuse_worker = true;
  Schema input = program->scan_schema();
  auto instantiate = [&program, &input](const ProgramOp& op) -> OpFactory {
    return [program, op, input]() {
      Schema current = input;
      return compile::InstantiateOp(*program, op, &current);
    };
  };
  for (const ProgramOp& op : program->ops()) {
    switch (op.code) {
      case OpCode::kDecode:
        break;  // identity on data; models a wire size this executor lacks
      case OpCode::kFilter:
      case OpCode::kProject:
        worker.push_back(instantiate(op));
        break;
      case OpCode::kCount: {
        // Each morsel's CountOperator emits one row (possibly zero); the
        // sum of the per-morsel counts is the global COUNT(*).
        worker.push_back(instantiate(op));
        fuse_worker = false;
        std::vector<AggSpec> sum_counts{{AggFunc::kSum, "count", "count"}};
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr sum,
            HashAggregateOperator::Make(op.output_schema, {}, sum_counts,
                                        AggMode::kComplete));
        pipeline.merge_chain.push_back(std::move(sum));
        break;
      }
      case OpCode::kCompleteAgg: {
        // Unbounded per-morsel pre-aggregation (max_groups = 0): it never
        // flushes early, so the merge sees exactly one partial state per
        // (morsel, group), in morsel order.
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr partial,
            HashAggregateOperator::Make(input, spec.group_by, spec.aggregates,
                                        AggMode::kPartial));
        worker.push_back([program, input]() {
          return HashAggregateOperator::Make(
              input, program->spec().group_by, program->spec().aggregates,
              AggMode::kPartial);
        });
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr final_agg,
            HashAggregateOperator::Make(partial->output_schema(), spec.group_by,
                                        MakeMergeSpecs(spec.aggregates),
                                        AggMode::kFinal));
        pipeline.merge_chain.push_back(std::move(final_agg));
        break;
      }
      case OpCode::kSort:
      case OpCode::kLimit: {
        DFLOW_ASSIGN_OR_RETURN(OperatorPtr stage, instantiate(op)());
        pipeline.output_chain.push_back(std::move(stage));
        break;
      }
      default:
        return Status::Internal(
            "parallel executor cannot run opcode " +
            std::string(compile::OpCodeToString(op.code)));
    }
    input = op.output_schema;
  }

  pipeline.make_worker_chain = [worker = std::move(worker), fuse_worker]()
      -> Result<std::vector<OperatorPtr>> {
    std::vector<OperatorPtr> ops;
    for (const OpFactory& make : worker) {
      DFLOW_ASSIGN_OR_RETURN(OperatorPtr op, make());
      ops.push_back(std::move(op));
    }
    if (!fuse_worker || ops.empty()) return ops;
    DFLOW_ASSIGN_OR_RETURN(OperatorPtr fused,
                           compile::FusedOperator::Make(std::move(ops)));
    std::vector<OperatorPtr> kernel;
    kernel.push_back(std::move(fused));
    return kernel;
  };
  // Without a total order from the query itself, canonically order the
  // merged rows so downstream stages (and the client) see a stream that
  // never depends on scheduling.
  pipeline.canonical_order = !spec.order_by.has_value();
  return pipeline;
}

/// ExecOptions::parallel_workers as a thread count, checked before any
/// thread starts.
Result<uint32_t> WorkerCount(const ExecOptions& options) {
  if (options.parallel_workers > kMaxParallelWorkers) {
    return Status::InvalidArgument(
        "parallel_workers " + std::to_string(options.parallel_workers) +
        " exceeds the cap of " + std::to_string(kMaxParallelWorkers));
  }
  return std::max(1u, options.parallel_workers);
}

}  // namespace

Result<QueryResult> Engine::ExecuteParallel(const QuerySpec& spec,
                                            const ExecOptions& options) {
  DFLOW_ASSIGN_OR_RETURN(const uint32_t workers, WorkerCount(options));
  // The CPU-only placement comes from Prepare alone (no sizing decode), and
  // there is no graph to verify: the executor dispatches on the opcodes.
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  DFLOW_ASSIGN_OR_RETURN(
      Placement cpu_only,
      ResolvePlacement(prepared, PlacementChoice::kCpuOnly, options.node));
  ExecOptions unverified = options;
  unverified.verify = verify::VerifyMode::kOff;
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      LowerProgram(spec, prepared, cpu_only, unverified, spec.table));
  DFLOW_ASSIGN_OR_RETURN(TableScanSource scan, ScanOf(*program));
  DFLOW_ASSIGN_OR_RETURN(parallel::ParallelPipelineSpec pipeline,
                         BuildParallelPipelineSpec(program));
  QueryResult result;
  DFLOW_ASSIGN_OR_RETURN(
      result.chunks,
      parallel::RunMorselPipeline(scan, std::move(pipeline), workers,
                                  &result.parallel));
  result.report.variant = "real-parallel:w" + std::to_string(workers);
  result.report.sim_ns = 0;  // no simulated time in this mode
  uint64_t rows = 0;
  for (const DataChunk& c : result.chunks) rows += c.num_rows();
  result.report.result_rows = rows;
  result.report.scan = scan.Stats();
  return result;
}

Result<JoinRunResult> Engine::ExecuteParallelJoin(
    const compile::JoinProgram& program, const ExecOptions& options) {
  DFLOW_ASSIGN_OR_RETURN(const uint32_t workers, WorkerCount(options));
  // The probe filter also prunes probe row groups by zone map; the
  // surviving rows get it row-wise inside the probe tasks.
  DFLOW_ASSIGN_OR_RETURN(TableScanSource build_scan, ScanOf(program.build));
  DFLOW_ASSIGN_OR_RETURN(TableScanSource probe_scan, ScanOf(program.probe));
  // One partition per simulated node, so the per-partition counts line up
  // with the per-node sink counts.
  const parallel::ParallelJoinInputs inputs{
      &build_scan,       &probe_scan,        program.build.key,
      program.probe.key, program.partitions, program.probe.filter};
  JoinRunResult result;
  DFLOW_ASSIGN_OR_RETURN(
      result.node_counts,
      parallel::RunParallelHashJoin(inputs, workers, &result.parallel));
  for (int64_t count : result.node_counts) result.total_rows += count;
  result.report.variant = "real-parallel-join:w" + std::to_string(workers);
  result.report.sim_ns = 0;
  result.report.result_rows = static_cast<uint64_t>(result.total_rows);
  result.report.scan = probe_scan.Stats();
  return result;
}

}  // namespace dflow
