#include "dflow/exec/parallel/parallel_join.h"

#include <chrono>
#include <deque>
#include <memory>
#include <utility>

#include "dflow/common/lock_rank.h"
#include "dflow/common/thread_annotations.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/join.h"
#include "dflow/exec/parallel/morsel.h"
#include "dflow/exec/parallel/task_scheduler.h"
#include "dflow/exec/partition.h"
#include "dflow/vector/kernels.h"

namespace dflow::parallel {

namespace {

/// One join partition during the BUILD phase: workers route build rows to
/// shards and insert under the shard lock — distinct partitions insert
/// concurrently, same-partition inserts serialize. The keys arrive hashed
/// (the partitioner's hashes), so the lock covers only the insert. Insert
/// order inside a partition varies with scheduling, but a hash table's
/// *contents* — and so its probe match counts — do not. After the build barrier
/// (scheduler.Wait()) the tables are immutable and the PROBE phase reads
/// them lock-free through the plain `tables` vector: the barrier, not the
/// mutex, publishes them (phase-based hand-off, DESIGN.md §9).
struct BuildShard {
  RankedMutex mu{LockRank::kJoinPartition};
  JoinHashTable* table DFLOW_PT_GUARDED_BY(mu) = nullptr;

  Status Insert(const DataChunk& rows, const std::vector<uint64_t>& hashes)
      DFLOW_EXCLUDES(mu) {
    RankedMutexLock lock(&mu);
    return table->Insert(rows, hashes);
  }
};

}  // namespace

Result<std::vector<int64_t>> RunParallelHashJoin(
    const ParallelJoinInputs& inputs, uint32_t workers,
    ParallelExecStats* stats) {
  if (inputs.build == nullptr || inputs.probe == nullptr) {
    return Status::InvalidArgument("join needs a build and a probe scan");
  }
  if (inputs.partitions == 0) {
    return Status::InvalidArgument("join needs >= 1 partition");
  }
  if (workers == 0) {
    return Status::InvalidArgument("join needs >= 1 worker");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const uint32_t p = inputs.partitions;

  std::vector<std::shared_ptr<JoinHashTable>> tables;
  tables.reserve(p);
  for (uint32_t i = 0; i < p; ++i) {
    tables.push_back(std::make_shared<JoinHashTable>(
        inputs.build->output_schema(), inputs.build_key));
  }
  // std::deque: BuildShard holds a RankedMutex and cannot move.
  std::deque<BuildShard> shards(p);
  for (uint32_t i = 0; i < p; ++i) shards[i].table = tables[i].get();

  // Probe state: the filter only selects (Select is const, so workers
  // share it), and each worker counts matches in its own slot (read after
  // the barrier).
  OperatorPtr filter;
  if (inputs.probe_filter != nullptr) {
    DFLOW_ASSIGN_OR_RETURN(filter,
                           FilterOperator::Make(inputs.probe_filter,
                                                inputs.probe->output_schema()));
  }
  const auto* probe_filter = static_cast<const FilterOperator*>(filter.get());
  std::vector<std::vector<int64_t>> worker_counts(
      workers, std::vector<int64_t>(p, 0));

  const HashPartitioner build_part(inputs.build_key, p);

  WorkStealingScheduler scheduler(workers);

  // ------------------------------------------------------- build phase
  DispatchStats build_dispatched;
  DFLOW_RETURN_NOT_OK(DispatchMorsels(
      *inputs.build,
      [&](uint32_t worker, Morsel morsel) -> Status {
        std::vector<DataChunk> parts;
        std::vector<std::vector<uint64_t>> hashes;
        DFLOW_RETURN_NOT_OK(build_part.Split(morsel.chunk, &parts, &hashes));
        // Each worker starts at its own partition, so that workers do not
        // queue up behind one another on the same shard lock.
        for (uint32_t i = 0; i < p; ++i) {
          const uint32_t part = (worker + i) % p;
          if (parts[part].empty()) continue;
          DFLOW_RETURN_NOT_OK(shards[part].Insert(parts[part], hashes[part]));
        }
        return Status::OK();
      },
      &scheduler, &build_dispatched));

  // ------------------------------------------------------- probe phase
  // Each partition counts its rows in place, through a selection over the
  // morsel's key column and hashes: no probe row is copied, and a filtered
  // row is only skipped.
  auto probe_chunk = [&](const DataChunk& chunk, const SelectionVector* kept,
                         std::vector<int64_t>* counts) -> Status {
    if (inputs.probe_key >= chunk.num_columns()) {
      return Status::InvalidArgument("partition key column out of range");
    }
    const ColumnVector& keys = chunk.column(inputs.probe_key);
    std::vector<uint64_t> hashes;
    DFLOW_RETURN_NOT_OK(HashColumn(keys, &hashes));
    std::vector<SelectionVector> sels(p);
    const size_t rows = kept == nullptr ? hashes.size() : kept->size();
    for (size_t i = 0; i < rows; ++i) {
      const uint32_t r =
          kept == nullptr ? static_cast<uint32_t>(i) : (*kept)[i];
      sels[hashes[r] % p].Append(r);
    }
    for (uint32_t part = 0; part < p; ++part) {
      if (sels[part].empty()) continue;
      // Lock-free read: the build barrier published the tables and nothing
      // mutates them during the probe phase.
      DFLOW_ASSIGN_OR_RETURN(
          uint64_t matches,
          tables[part]->CountMatches(keys, hashes, &sels[part]));
      (*counts)[part] += static_cast<int64_t>(matches);
    }
    return Status::OK();
  };
  DispatchStats probe_dispatched;
  DFLOW_RETURN_NOT_OK(DispatchMorsels(
      *inputs.probe,
      [&](uint32_t worker, Morsel morsel) -> Status {
        std::vector<int64_t>* counts = &worker_counts[worker];
        if (probe_filter == nullptr) {
          return probe_chunk(morsel.chunk, nullptr, counts);
        }
        SelectionVector kept;
        DFLOW_RETURN_NOT_OK(probe_filter->Select(morsel.chunk, &kept));
        if (kept.empty()) return Status::OK();
        return probe_chunk(morsel.chunk, &kept, counts);
      },
      &scheduler, &probe_dispatched));

  std::vector<int64_t> partition_counts(p, 0);
  for (const std::vector<int64_t>& counts : worker_counts) {
    for (uint32_t part = 0; part < p; ++part) {
      partition_counts[part] += counts[part];
    }
  }
  if (stats != nullptr) {
    const WorkStealingScheduler::Stats ss = scheduler.stats();
    stats->morsels = build_dispatched.morsels + probe_dispatched.morsels;
    stats->rows_in = probe_dispatched.rows;
    stats->tasks_run = ss.tasks_run;
    stats->steals = ss.steals;
    stats->wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
  }
  return partition_counts;
}

}  // namespace dflow::parallel
