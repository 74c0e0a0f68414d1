#include "dflow/exec/parallel/parallel_executor.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "dflow/exec/local_executor.h"
#include "dflow/exec/parallel/task_scheduler.h"
#include "dflow/types/value.h"
#include "dflow/vector/column_vector.h"

namespace dflow::parallel {

namespace {

/// The chunks one morsel's worker chain produced, tagged with the morsel's
/// sequence.
struct MorselOutput {
  uint64_t sequence = 0;
  std::vector<DataChunk> chunks;
};

/// Runs `chunks` through `chain` (push + finish); an empty chain passes
/// them through.
Result<std::vector<DataChunk>> RunChain(const std::vector<OperatorPtr>& chain,
                                        std::vector<DataChunk> chunks) {
  std::vector<Operator*> ops;
  for (const OperatorPtr& op : chain) ops.push_back(op.get());
  return RunLocalPipeline(std::move(chunks), ops);
}

/// Concatenates row-compatible chunks and re-emits them sorted by every
/// column left-to-right (Value::Compare: nulls equal, null < non-null).
/// The total order this induces is a function of the row *set* alone, so
/// the emitted stream is identical across runs, worker counts, and steal
/// schedules.
std::vector<DataChunk> CanonicalOrder(const std::vector<DataChunk>& chunks) {
  size_t total_rows = 0;
  for (const DataChunk& c : chunks) total_rows += c.num_rows();
  if (total_rows == 0) return chunks;

  DataChunk all;
  bool first = true;
  for (const DataChunk& c : chunks) {
    if (c.num_rows() == 0 && c.num_columns() == 0) continue;
    if (first) {
      all = c;
      first = false;
      continue;
    }
    for (size_t r = 0; r < c.num_rows(); ++r) all.AppendRowFrom(c, r);
  }

  std::vector<uint32_t> order(all.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&all](uint32_t a, uint32_t b) {
                     for (size_t col = 0; col < all.num_columns(); ++col) {
                       const int cmp =
                           all.GetValue(a, col).Compare(all.GetValue(b, col));
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });

  std::vector<DataChunk> out;
  for (size_t begin = 0; begin < order.size(); begin += kVectorSize) {
    const size_t end = std::min(order.size(), begin + kVectorSize);
    std::vector<uint32_t> slice(order.begin() + begin, order.begin() + end);
    out.push_back(all.Gather(SelectionVector(std::move(slice))));
  }
  return out;
}

}  // namespace

Result<std::vector<DataChunk>> RunMorselPipeline(
    const TableScanSource& scan, ParallelPipelineSpec spec, uint32_t workers,
    ParallelExecStats* stats) {
  if (!spec.make_worker_chain) {
    return Status::InvalidArgument("parallel pipeline needs a worker chain");
  }
  if (workers == 0) {
    return Status::InvalidArgument("parallel pipeline needs >= 1 worker");
  }
  const auto wall_start = std::chrono::steady_clock::now();

  // A fresh worker chain per input, finished right after it: partial state
  // is flushed under the morsel's sequence (see ParallelPipelineSpec).
  auto run_worker_chain =
      [&spec](std::vector<DataChunk> input) -> Result<std::vector<DataChunk>> {
    DFLOW_ASSIGN_OR_RETURN(std::vector<OperatorPtr> chain,
                           spec.make_worker_chain());
    return RunChain(chain, std::move(input));
  };

  // One output slot per worker: a task appends only to the slot of the
  // worker running it, so no lock is needed, and the dispatch barrier
  // (scheduler->Wait()) publishes every slot to this thread.
  std::vector<std::vector<MorselOutput>> by_worker(workers);
  DispatchStats dispatched;
  WorkStealingScheduler::Stats sched_stats;
  {
    WorkStealingScheduler scheduler(workers);
    DFLOW_RETURN_NOT_OK(DispatchMorsels(
        scan,
        [&](uint32_t worker, Morsel morsel) -> Status {
          std::vector<DataChunk> input;
          input.push_back(std::move(morsel.chunk));
          DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> out,
                                 run_worker_chain(std::move(input)));
          if (!out.empty()) {
            by_worker[worker].push_back({morsel.sequence, std::move(out)});
          }
          return Status::OK();
        },
        &scheduler, &dispatched));
    sched_stats = scheduler.stats();
  }  // joins the worker pool

  std::vector<MorselOutput> outputs;
  for (std::vector<MorselOutput>& slot : by_worker) {
    for (MorselOutput& output : slot) outputs.push_back(std::move(output));
  }
  if (dispatched.morsels == 0) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> out, run_worker_chain({}));
    if (!out.empty()) outputs.push_back({0, std::move(out)});
  }
  // Restore scan order: the merge sees outputs sorted by sequence.
  std::sort(outputs.begin(), outputs.end(),
            [](const MorselOutput& a, const MorselOutput& b) {
              return a.sequence < b.sequence;
            });
  std::vector<DataChunk> collected;
  for (MorselOutput& output : outputs) {
    for (DataChunk& c : output.chunks) collected.push_back(std::move(c));
  }

  DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> merged,
                         RunChain(spec.merge_chain, std::move(collected)));
  if (spec.canonical_order) merged = CanonicalOrder(merged);
  DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> final_chunks,
                         RunChain(spec.output_chain, std::move(merged)));

  if (stats != nullptr) {
    stats->morsels = dispatched.morsels;
    stats->rows_in = dispatched.rows;
    stats->tasks_run = sched_stats.tasks_run;
    stats->steals = sched_stats.steals;
    stats->queue_items = outputs.size();
    stats->wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
  }
  return final_chunks;
}

}  // namespace dflow::parallel
