// ExecMode::kParallel: Engine entry points for the morsel-driven real-
// thread executor, plus the DflowProgram -> ParallelPipelineSpec lowering.
//
// The simulator stays the oracle: these paths must produce byte-identical
// canonical results (DiffRunner's real-parallel lane enforces it against
// the Volcano reference for every fuzzed plan).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dflow/compile/compiler.h"
#include "dflow/compile/fuse.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/parallel/parallel_join.h"
#include "dflow/exec/scan.h"

namespace dflow {

namespace {

/// Maps a CPU-only program's partition split (compile::PartitionSplit) onto
/// the real-parallel executor's three layers (see
/// parallel::ParallelPipelineSpec): the stream and partition halves are the
/// worker chain, run afresh per morsel; the merge half is the merge chain;
/// the output half is the output chain. Canonical ordering is enabled
/// whenever the query lacks an ORDER BY. A worker chain without a COUNT
/// runs as one compile::FusedOperator, the kernel the simulated graphs run
/// for their fused groups.
Result<parallel::ParallelPipelineSpec> BuildParallelPipelineSpec(
    compile::ProgramPtr program) {
  parallel::ParallelPipelineSpec pipeline;
  // Without a total order from the query itself, canonically order the
  // merged rows so downstream stages (and the client) see a stream that
  // never depends on scheduling.
  pipeline.canonical_order = !program->spec().order_by.has_value();
  DFLOW_ASSIGN_OR_RETURN(compile::PartitionSplit split,
                         compile::PartitionSplit::Make(std::move(program)));
  DFLOW_ASSIGN_OR_RETURN(OperatorPtr merge, split.MakeMerge());
  if (merge != nullptr) pipeline.merge_chain.push_back(std::move(merge));
  DFLOW_ASSIGN_OR_RETURN(pipeline.output_chain, split.MakeOutput());
  // Worker chains share the immutable program; its resolved expressions
  // are const-evaluated, which is thread-safe.
  pipeline.make_worker_chain =
      [split = std::move(split)]() -> Result<std::vector<OperatorPtr>> {
    DFLOW_ASSIGN_OR_RETURN(std::vector<OperatorPtr> ops, split.MakeStream());
    DFLOW_ASSIGN_OR_RETURN(OperatorPtr partition, split.MakePartition());
    if (partition != nullptr) ops.push_back(std::move(partition));
    if (split.counts() || ops.empty()) return ops;
    DFLOW_ASSIGN_OR_RETURN(OperatorPtr fused,
                           compile::FusedOperator::Make(std::move(ops)));
    std::vector<OperatorPtr> kernel;
    kernel.push_back(std::move(fused));
    return kernel;
  };
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
                         BuildParallelPipelineSpec(std::move(program)));
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
