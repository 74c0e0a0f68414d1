#ifndef DFLOW_CLUSTER_NODE_WORKERS_H_
#define DFLOW_CLUSTER_NODE_WORKERS_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "dflow/common/lock_rank.h"
#include "dflow/common/status.h"
#include "dflow/common/thread_annotations.h"

namespace dflow::cluster {

/// The host threads a cluster's nodes run on: W = min(nodes, hardware
/// threads) workers. Worker 0 is the thread that calls ForEachNode, which
/// runs its own share instead of idling at the barrier; workers 1..W-1 are
/// persistent threads, started once with the cluster and joined when it
/// is destroyed. Node i always runs on worker i % W, so a node's shard,
/// fragments and routed chunks stay in one thread's malloc arena (worker
/// 0's share reuses the caller's) and every run maps nodes to threads the
/// same way.
///
/// Nodes are shared-nothing (each has its own Engine: catalog, fabric,
/// simulator, ledger), so per-node phases run concurrently with no lock
/// around the work itself. The one mutex (LockRank::kNodeWorkers) guards
/// the batch in flight and its completion count; it is never held while a
/// node task runs, so a task may take any ranked lock.
class NodeWorkers {
 public:
  /// One node's work; its Status is the node's verdict.
  using NodeFn = std::function<Status(int node)>;

  explicit NodeWorkers(int num_nodes);
  ~NodeWorkers();  // joins every worker
  NodeWorkers(const NodeWorkers&) = delete;
  NodeWorkers& operator=(const NodeWorkers&) = delete;

  uint32_t num_workers() const { return workers_; }

  /// Runs fn(node) for every entry of `nodes`, each on its node's worker
  /// (worker 0's on the calling thread), and returns once all have
  /// finished: a barrier, so whatever the tasks wrote is visible to the
  /// caller. Returns the first non-OK Status in the order of `nodes` (a
  /// task that throws counts as Internal); InvalidArgument for a node
  /// outside [0, num_nodes). Calls from different threads run one after
  /// another; a node task must not call it.
  Status ForEachNode(const std::vector<int>& nodes, const NodeFn& fn)
      DFLOW_EXCLUDES(mutex_);

 private:
  /// One ForEachNode call: what every worker runs its share of.
  struct Batch {
    const std::vector<int>* nodes;
    const NodeFn* fn;
    std::vector<Status>* statuses;  // one slot per entry of `nodes`
  };

  /// Stops and joins the started workers.
  void Stop() DFLOW_EXCLUDES(mutex_);
  /// Runs the nodes of `batch` that belong to `worker`.
  void RunShare(const Batch& batch, uint32_t worker) const;
  void WorkerLoop(uint32_t id) DFLOW_EXCLUDES(mutex_);

  const int num_nodes_;
  const uint32_t workers_;
  RankedMutex mutex_{LockRank::kNodeWorkers};
  RankedCondVar work_cv_;  // a new batch, or shutdown
  RankedCondVar done_cv_;  // the batch finished
  const Batch* batch_ DFLOW_GUARDED_BY(mutex_) = nullptr;
  /// Bumped once per batch; each worker runs every generation once.
  uint64_t generation_ DFLOW_GUARDED_BY(mutex_) = 0;
  /// Workers still running the current batch.
  uint32_t running_ DFLOW_GUARDED_BY(mutex_) = 0;
  bool shutdown_ DFLOW_GUARDED_BY(mutex_) = false;
  /// Workers 1..W-1, started by the ctor and joined by the dtor; not
  /// guarded (both are single-threaded by contract).
  std::vector<std::thread> threads_;
};

}  // namespace dflow::cluster

#endif  // DFLOW_CLUSTER_NODE_WORKERS_H_
