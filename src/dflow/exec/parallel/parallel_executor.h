#ifndef DFLOW_EXEC_PARALLEL_PARALLEL_EXECUTOR_H_
#define DFLOW_EXEC_PARALLEL_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/exec/operator.h"
#include "dflow/exec/parallel/morsel.h"

namespace dflow::parallel {

struct ParallelExecStats {
  uint64_t morsels = 0;
  uint64_t rows_in = 0;
  uint64_t tasks_run = 0;
  uint64_t steals = 0;
  /// Non-empty morsel outputs handed to the merge.
  uint64_t queue_items = 0;
  /// Wall-clock time of the parallel region (dispatch, decode, compute and
  /// merge),
  /// measured on a steady clock. The one place outside bench code where
  /// real time is allowed: it reports performance and never influences
  /// results.
  uint64_t wall_ns = 0;
};

/// Builds one linear operator chain; invoked once per morsel, so each
/// morsel runs and flushes private operator state.
using ChainFactory = std::function<Result<std::vector<OperatorPtr>>()>;

/// A morsel-parallel pipeline in three layers:
///
///   morsels → [worker chain]×M → ordered union → [merge chain]
///           → (canonical order) → [output chain]
///
/// Each morsel runs through a fresh worker chain (streaming stages plus
/// stateful ones such as pre-aggregation or counting) that is finished
/// right after the morsel, so every output — streamed rows and flushed
/// partial state alike — carries its morsel's sequence number. The outputs
/// are sorted on it before the single-threaded merge chain runs, so the
/// merge sees the same stream, in scan order, no matter which worker ran
/// which morsel: partial DOUBLE sums are added in one fixed order and are
/// bit-stable across worker counts and steal schedules. With zero morsels
/// one fresh worker chain is finished over no input, so its empty-input
/// state still reaches the merge (COUNT(*) of nothing is a 0 row). A query
/// without a total order asks for `canonical_order`: after the merge chain
/// the rows are sorted canonically (column by column, nulls first), which
/// erases the group order a hash aggregate picks. The output chain
/// (ORDER BY / LIMIT) then runs over that deterministic stream. The merge
/// and output chains run once, so the spec holds their operators.
struct ParallelPipelineSpec {
  /// Required; may return no operators.
  ChainFactory make_worker_chain;
  /// Empty passes the sorted morsel outputs through.
  std::vector<OperatorPtr> merge_chain;
  /// Sort the merged rows canonically before the output chain. Set
  /// whenever the query lacks an ORDER BY.
  bool canonical_order = false;
  /// ORDER BY, LIMIT; empty passes the rows through.
  std::vector<OperatorPtr> output_chain;
};

/// Runs `scan` through the pipeline on `workers` (>= 1) real threads: the
/// scan's surviving row groups are decoded by the workers that claim them
/// (DispatchMorsels). 1 worker gives the serial shape of the same code
/// path. Returns the final chunk stream; deterministic for a fixed
/// (scan, spec) regardless of worker count or interleaving.
Result<std::vector<DataChunk>> RunMorselPipeline(
    const TableScanSource& scan, ParallelPipelineSpec spec, uint32_t workers,
    ParallelExecStats* stats = nullptr);

}  // namespace dflow::parallel

#endif  // DFLOW_EXEC_PARALLEL_PARALLEL_EXECUTOR_H_
