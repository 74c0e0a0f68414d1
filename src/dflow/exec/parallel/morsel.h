#ifndef DFLOW_EXEC_PARALLEL_MORSEL_H_
#define DFLOW_EXEC_PARALLEL_MORSEL_H_

#include <cstdint>
#include <functional>

#include "dflow/common/result.h"
#include "dflow/exec/parallel/task_scheduler.h"
#include "dflow/exec/scan.h"
#include "dflow/vector/data_chunk.h"

namespace dflow::parallel {

/// The unit of parallel work: one kVectorSize-row chunk of a surviving row
/// group, decoded by the worker that claimed the group. `sequence` is
/// (row-group index << 32 | chunk index) — scan order — so downstream
/// merging sorts on it and the output never depends on which worker ran
/// which morsel.
struct Morsel {
  DataChunk chunk;
  uint64_t sequence = 0;
};

/// Per-morsel work; it owns the morsel. `worker` is the executing worker's
/// id, so the callback can address worker-local state without locks.
using MorselFn = std::function<Status(uint32_t worker, Morsel morsel)>;

struct DispatchStats {
  uint64_t morsels = 0;
  uint64_t rows = 0;
};

/// The one morsel-dispatch loop (morsel-driven parallelism, Leis et al.
/// SIGMOD 2014): every row group `scan` does not prune becomes a claim
/// task, dealt round-robin. The worker that claims a group decodes only the
/// scan's columns, submits all but the first chunk to its own deque as
/// stealable tasks, and runs the first itself — so a few large row groups
/// still balance over many workers, and no chunk is copied on the way to
/// `fn`. Blocks until every morsel ran (scheduler->Wait() is the barrier)
/// and returns the first decode or `fn` error; after an error the remaining
/// morsels are skipped. `stats` (optional) accumulates the morsels and
/// rows run, so one DispatchStats can total several phases.
Status DispatchMorsels(const TableScanSource& scan, const MorselFn& fn,
                       WorkStealingScheduler* scheduler,
                       DispatchStats* stats = nullptr);

}  // namespace dflow::parallel

#endif  // DFLOW_EXEC_PARALLEL_MORSEL_H_
