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
#include "dflow/engine/engine.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/parallel/parallel_join.h"
#include "dflow/exec/scan.h"

namespace dflow {

namespace {

using compile::OpCode;
using compile::ProgramOp;

/// One operator of a chain, instantiated afresh per chain.
using OpFactory = std::function<Result<OperatorPtr>()>;

parallel::ChainFactory MakeChain(std::vector<OpFactory> factories) {
  return [factories]() -> Result<std::vector<OperatorPtr>> {
    std::vector<OperatorPtr> ops;
    for (const OpFactory& make : factories) {
      DFLOW_ASSIGN_OR_RETURN(OperatorPtr op, make());
      ops.push_back(std::move(op));
    }
    return ops;
  };
}

/// Lowers a CPU-only program to the real-parallel executor's three-layer
/// pipeline shape (see parallel::ParallelPipelineSpec) by dispatching on
/// its opcodes:
///
///   worker chain   FILTER, PROJECT, the worker half of COUNT (a count) and
///                  of COMPLETE_AGG (an unbounded partial aggregate)
///   merge chain    the merge half: a SUM of the counts | the final agg
///   output chain   SORT, LIMIT
///
/// with canonical ordering enabled whenever the query lacks an ORDER BY.
/// DECODE is skipped: it is identity on data and models a wire size the
/// real executor doesn't have. Any other opcode (a placement that keeps
/// work off the CPU) is Status::Internal.
Result<parallel::ParallelPipelineSpec> BuildParallelPipelineSpec(
    const compile::ProgramPtr& program) {
  const QuerySpec& spec = program->spec();
  // Factories share the immutable program; its resolved expressions are
  // const-evaluated, which is thread-safe.
  std::vector<OpFactory> worker, merge, output;
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
        // Each worker's CountOperator emits one row (possibly zero); the
        // sum of the per-worker counts is the global COUNT(*).
        worker.push_back(instantiate(op));
        const Schema counted = op.output_schema;
        merge.push_back([counted]() {
          std::vector<AggSpec> sum_counts{{AggFunc::kSum, "count", "count"}};
          return HashAggregateOperator::Make(counted, {}, sum_counts,
                                             AggMode::kComplete);
        });
        break;
      }
      case OpCode::kCompleteAgg: {
        // Unbounded worker-local pre-aggregation (max_groups = 0): the
        // worker never flushes early, so the merge sees exactly one partial
        // state per (worker, group).
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr partial,
            HashAggregateOperator::Make(input, spec.group_by, spec.aggregates,
                                        AggMode::kPartial));
        const Schema partial_schema = partial->output_schema();
        worker.push_back([program, input]() {
          return HashAggregateOperator::Make(
              input, program->spec().group_by, program->spec().aggregates,
              AggMode::kPartial);
        });
        merge.push_back([program, partial_schema]() {
          return HashAggregateOperator::Make(
              partial_schema, program->spec().group_by,
              MakeMergeSpecs(program->spec().aggregates), AggMode::kFinal);
        });
        break;
      }
      case OpCode::kSort:
      case OpCode::kLimit:
        output.push_back(instantiate(op));
        break;
      default:
        return Status::Internal(
            "parallel executor cannot run opcode " +
            std::string(compile::OpCodeToString(op.code)));
    }
    input = op.output_schema;
  }

  parallel::ParallelPipelineSpec pipeline;
  pipeline.make_worker_chain = MakeChain(std::move(worker));
  if (!merge.empty()) pipeline.make_merge_chain = MakeChain(std::move(merge));
  if (!output.empty()) {
    pipeline.make_output_chain = MakeChain(std::move(output));
  }
  // Without a total order from the query itself, canonically order the
  // merged rows so downstream stages (and the client) see a stream that
  // never depends on scheduling.
  pipeline.canonical_order = !spec.order_by.has_value();
  return pipeline;
}

}  // namespace

Result<QueryResult> Engine::ExecuteParallel(const QuerySpec& spec,
                                            const ExecOptions& options) {
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
      LowerProgram(spec, prepared, cpu_only, compile::FuseMode::kOff,
                   unverified, spec.table));
  TableScanSource::ScanStats scan_stats;
  DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches,
                         DecodeScan(*program, &scan_stats));
  std::vector<DataChunk> inputs;
  for (ScanBatch& b : batches) {
    for (ScanChunk& sc : b.chunks) inputs.push_back(std::move(sc.chunk));
  }

  DFLOW_ASSIGN_OR_RETURN(parallel::ParallelPipelineSpec pipeline,
                         BuildParallelPipelineSpec(program));
  parallel::ParallelExecOptions popt;
  popt.workers = std::max(1u, options.parallel_workers);
  popt.morsel_rows = options.morsel_rows;
  popt.queue_capacity = options.credits;

  QueryResult result;
  DFLOW_ASSIGN_OR_RETURN(
      result.chunks,
      parallel::RunMorselPipeline(inputs, pipeline, popt, &result.parallel));
  result.report.variant = "real-parallel:w" + std::to_string(popt.workers);
  result.report.sim_ns = 0;  // no simulated time in this mode
  uint64_t rows = 0;
  for (const DataChunk& c : result.chunks) rows += c.num_rows();
  result.report.result_rows = rows;
  result.report.scan = scan_stats;
  return result;
}

Result<JoinRunResult> Engine::ExecuteParallelJoin(const JoinSpec& spec,
                                                  const ExecOptions& options) {
  if (spec.num_nodes < 1) {
    return Status::InvalidArgument("join needs >= 1 partition");
  }
  DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> build_table,
                         catalog_.Lookup(spec.build_table));
  DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> probe_table,
                         catalog_.Lookup(spec.probe_table));

  parallel::ParallelJoinInputs inputs;
  inputs.build_schema = build_table->schema();
  inputs.probe_schema = probe_table->schema();
  DFLOW_ASSIGN_OR_RETURN(inputs.build_key,
                         build_table->schema().FieldIndex(spec.build_key));
  DFLOW_ASSIGN_OR_RETURN(inputs.probe_key,
                         probe_table->schema().FieldIndex(spec.probe_key));
  // Partition count mirrors the simulated plan's num_nodes, so the
  // per-partition counts line up with the per-node sink counts.
  inputs.partitions = static_cast<uint32_t>(spec.num_nodes);
  if (spec.probe_filter != nullptr) {
    DFLOW_ASSIGN_OR_RETURN(
        inputs.probe_filter,
        Expr::Resolve(spec.probe_filter, probe_table->schema()));
  }

  {
    DFLOW_ASSIGN_OR_RETURN(TableScanSource scan,
                           TableScanSource::Make(build_table, {}, nullptr));
    DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches, scan.Produce());
    for (ScanBatch& b : batches) {
      for (ScanChunk& sc : b.chunks) {
        inputs.build_chunks.push_back(std::move(sc.chunk));
      }
    }
  }
  TableScanSource::ScanStats scan_stats;
  {
    // Zone pruning via the filter; the surviving rows still get the row
    // filter inside the join's probe tasks.
    DFLOW_ASSIGN_OR_RETURN(
        TableScanSource scan,
        TableScanSource::Make(probe_table, {}, inputs.probe_filter));
    DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches,
                           scan.Produce(&scan_stats));
    for (ScanBatch& b : batches) {
      for (ScanChunk& sc : b.chunks) {
        inputs.probe_chunks.push_back(std::move(sc.chunk));
      }
    }
  }

  parallel::ParallelExecOptions popt;
  popt.workers = std::max(1u, options.parallel_workers);
  popt.morsel_rows = options.morsel_rows;
  popt.queue_capacity = options.credits;

  JoinRunResult result;
  DFLOW_ASSIGN_OR_RETURN(
      parallel::ParallelJoinResult joined,
      parallel::RunParallelHashJoin(inputs, popt, &result.parallel));
  result.node_counts = std::move(joined.partition_counts);
  result.total_rows = joined.total_rows;
  result.report.variant =
      "real-parallel-join:w" + std::to_string(popt.workers);
  result.report.sim_ns = 0;
  result.report.result_rows = static_cast<uint64_t>(result.total_rows);
  result.report.scan = scan_stats;
  return result;
}

}  // namespace dflow
