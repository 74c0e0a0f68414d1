#ifndef DFLOW_CLUSTER_ROUTER_H_
#define DFLOW_CLUSTER_ROUTER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dflow/cluster/cluster.h"
#include "dflow/cluster/exchange.h"
#include "dflow/plan/query_spec.h"
#include "dflow/sched/demand_ledger.h"
#include "dflow/sched/scheduler.h"
#include "dflow/verify/xchg.h"

namespace dflow::cluster {

struct RouterOptions {
  /// Exchange-plan verification mode. Strict refuses to lower a plan whose
  /// VY_XCHG_* report has errors (and is also passed through to each
  /// node-local engine run).
  verify::VerifyMode verify = verify::DefaultMode();
  PlacementChoice placement = PlacementChoice::kAuto;
  /// Node that runs final merges and owns the query's result.
  int coordinator = 0;
  /// Joins whose build side is at most this many rows use a broadcast
  /// exchange (probe stays local) instead of shuffling both sides.
  /// 0 disables the broadcast path.
  uint64_t broadcast_build_max_rows = 0;
  /// Cancel the query's exchanges at this cluster virtual time (0 = never).
  sim::SimTime cancel_at_ns = 0;
};

/// One per-node task of a distributed query (the MPP lifecycle unit).
struct TaskInfo {
  enum class State { kRegistered, kRunning, kDone, kCancelled, kFailed };

  int node = 0;
  std::string fragment;  // "local", "merge", "coord"
  State state = State::kRegistered;
  /// Modeled time this node spent in its local fragment.
  sim::SimTime local_ns = 0;
  bool straggler = false;
};

/// Result of one distributed query. `outcome` is a stable code —
/// "DONE", "CANCELLED", "NODE_LOST", "RETRY_EXHAUSTED" — tests and the
/// serving layer match on it exactly; a non-DONE outcome still returns OK
/// status (the query *ran*, it just didn't finish), while plan-level
/// refusals (strict VY_XCHG_* errors, unknown tables) are error Status.
struct DistributedResult {
  std::string outcome = "DONE";
  /// Coordinator output rows (empty for joins and non-DONE outcomes).
  std::vector<DataChunk> chunks;
  /// Joined-row count (joins only).
  int64_t total_rows = 0;
  /// Cluster makespan: the coordinator's completion time over the phased
  /// schedule (local fragments, exchanges, merges).
  sim::SimTime makespan_ns = 0;
  ExchangeStats exchange;
  uint64_t straggler_events = 0;
  std::vector<TaskInfo> tasks;
  /// The query's exchange plan, as verified and run.
  verify::ExchangePlanSpec plan;
  verify::VerifyReport verify;
};

/// Shards queries across the cluster and drives the MPP task lifecycle:
/// per-node local fragments (each on its own fabric, via its own engine),
/// exchange lowering onto the inter-node links, straggler detection,
/// node-loss re-routing, and merge-at-coordinator. Every per-node phase
/// (local fragments, partial aggregates, merges, join build and probe)
/// runs on all nodes at once, each on its node's host worker
/// (Cluster::ForEachNode); tasks, straggler flags and the query's outcome
/// are folded after each phase's barrier, in alive-node order, so a run's
/// result does not depend on thread timing. Each query's data
/// movement is one verify::ExchangePlanSpec: the VY_XCHG_* family checks it
/// before a single frame moves, and its exchanges are what runs, in plan
/// order. Per node, the router keeps the scheduler's demand ledger: local
/// fragments are charged on dispatch and released on completion, same as
/// the single-node serving loop.
class QueryRouter {
 public:
  explicit QueryRouter(Cluster* cluster,
                       RouterOptions options = RouterOptions());

  /// Distributed execution of a single-table query. Semantics match
  /// Engine::Execute of the same spec over the unsharded table exactly
  /// (same canonical fingerprint): scan+filter+project run per shard,
  /// aggregation is pre-aggregated locally, hash-shuffled on the first
  /// group column, merged, and gathered; ORDER BY / LIMIT apply at the
  /// coordinator over the gathered rows.
  Result<DistributedResult> ExecuteQuery(const QuerySpec& spec);

  /// Distributed partitioned equi-join: both sides scan their shards
  /// locally, filtered and projected to the join key, hash-shuffle the keys
  /// (or broadcast the build keys when small), build+probe per node, and
  /// gather per-node counts to the coordinator. total_rows matches the
  /// single-node join count.
  Result<DistributedResult> ExecuteJoin(const JoinSpec& spec);

  /// The node a tenant's queries are routed to (stable hash over the
  /// currently-alive nodes).
  Result<int> HomeNode(const std::string& tenant) const;

  uint64_t ledger_charges() const { return ledger_charges_; }
  uint64_t ledger_releases() const { return ledger_releases_; }

 private:
  /// Re-routes shards over the survivors after a node loss.
  Status PrepareCluster();

  /// Per-alive-node local fragment run: Charge ledger, Execute, Release.
  /// Runs on the node's worker; touches only that node's state.
  Result<QueryResult> RunLocalFragment(int node, const QuerySpec& spec);

  /// Phase A: runs every spec of `fragments` on each alive node, in order,
  /// into rows[fragment][node], all nodes at once; then adds one "local"
  /// task per node with stragglers flagged (FlagStragglers). Returns each
  /// node's ready time: its summed fragment times, scaled on the seeded
  /// slow node.
  Result<std::vector<sim::SimTime>> RunLocalPhase(
      const std::vector<int>& alive, const std::vector<QuerySpec>& fragments,
      std::vector<NodeChunks>* rows, DistributedResult* result);

  Cluster* cluster_;
  RouterOptions options_;
  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  std::vector<std::unique_ptr<DemandLedger>> ledgers_;
  /// Bumped by every node's worker.
  std::atomic<uint64_t> ledger_charges_{0};
  std::atomic<uint64_t> ledger_releases_{0};
};

}  // namespace dflow::cluster

#endif  // DFLOW_CLUSTER_ROUTER_H_
