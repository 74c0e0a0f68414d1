#ifndef DFLOW_EXEC_PARALLEL_PARALLEL_JOIN_H_
#define DFLOW_EXEC_PARALLEL_PARALLEL_JOIN_H_

#include <cstdint>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/exec/parallel/parallel_executor.h"
#include "dflow/exec/scan.h"
#include "dflow/plan/expr.h"
#include "dflow/vector/data_chunk.h"

namespace dflow::parallel {

/// A partitioned hash equi-join run with real threads: build-side morsels
/// are hash-partitioned into P independent hash tables (per-partition
/// locking, so workers build concurrently), then probe-side morsels are
/// partitioned the same way and probed in parallel. Both sides are scans
/// whose row groups the workers decode themselves (DispatchMorsels), so
/// each reads only the columns its scan names. Partition routing uses the
/// engine-wide hash (common/hash.h), so partition contents — and hence the
/// per-partition match counts — are a pure function of the data,
/// independent of worker count and steal schedule.
struct ParallelJoinInputs {
  const TableScanSource* build = nullptr;
  const TableScanSource* probe = nullptr;
  /// Key columns, as indices into the scans' output schemas.
  size_t build_key = 0;
  size_t probe_key = 0;
  uint32_t partitions = 1;
  /// Optional row filter on the probe side, resolved against the probe
  /// scan's output schema.
  ExprPtr probe_filter;
};

/// Runs on `workers` (>= 1) threads and returns the matched-row count per
/// partition (deterministic).
Result<std::vector<int64_t>> RunParallelHashJoin(
    const ParallelJoinInputs& inputs, uint32_t workers,
    ParallelExecStats* stats = nullptr);

}  // namespace dflow::parallel

#endif  // DFLOW_EXEC_PARALLEL_PARALLEL_JOIN_H_
