#ifndef DFLOW_CLUSTER_CLUSTER_H_
#define DFLOW_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dflow/cluster/node_workers.h"
#include "dflow/engine/engine.h"
#include "dflow/sim/fabric.h"
#include "dflow/sim/inter_node_link.h"
#include "dflow/storage/table.h"

namespace dflow::cluster {

/// Deterministic cluster-level fault schedule. Everything is a pure
/// function of the config + seed, so a faulty run is exactly as
/// reproducible as a clean one.
struct ClusterFaultConfig {
  /// Per-frame drop/corrupt probabilities on every inter-node link.
  double xlink_drop_probability = 0.0;
  double xlink_corrupt_probability = 0.0;
  /// Retransmission attempts per frame before the exchange gives up.
  uint32_t max_frame_attempts = 6;

  /// Node loss: `lose_node` becomes unreachable at cluster virtual time
  /// `lose_node_at_ns`. Loss before dispatch re-routes (the router
  /// re-shards over the survivors); loss mid-exchange fails the query with
  /// the stable NODE_LOST outcome.
  int lose_node = -1;
  sim::SimTime lose_node_at_ns = 0;

  /// Straggler schedule: node `slow_node`'s local fragments take
  /// `slow_factor`x their modeled time (a seeded slow node, not noise).
  int slow_node = -1;
  double slow_factor = 1.0;
};

struct ClusterConfig {
  int num_nodes = 2;
  /// Per-node fabric. Each node is an independent single-compute-node
  /// fabric with its own storage — a shared-nothing shard.
  sim::FabricConfig node;
  /// Inter-node links (full mesh of directed links, one per ordered pair).
  double xlink_gbps = 40.0;
  sim::SimTime xlink_latency_ns = 2'000;
  uint32_t xlink_credits = 8;
  /// Exchange frames larger than this are split (bytes).
  uint64_t frame_bytes = 256 * 1024;
  /// A node whose local-fragment time exceeds straggler_factor x the
  /// median across nodes is flagged a straggler.
  double straggler_factor = 3.0;
  uint64_t seed = 42;
  ClusterFaultConfig fault;
};

/// Aggregated exchange counters (also kept per link on the links
/// themselves; these are the cluster-wide sums the reports carry).
struct ExchangeStats {
  uint64_t bytes = 0;
  uint64_t frames = 0;
  uint64_t retransmits = 0;
  uint64_t frames_lost = 0;
  uint64_t credit_stall_ns = 0;

  void Accumulate(const ExchangeStats& other) {
    bytes += other.bytes;
    frames += other.frames;
    retransmits += other.retransmits;
    frames_lost += other.frames_lost;
    credit_stall_ns += other.credit_stall_ns;
  }
};

/// The straggler rule, shared by the router (per-query local fragment times)
/// and the cluster serving loop (per-node makespans): flags each time above
/// `factor` x the median of `times` (the upper median for an even count).
/// Fewer than two times, or a median of 0, flag nothing.
std::vector<bool> FlagStragglers(const std::vector<sim::SimTime>& times,
                                 double factor);

/// N independent fabrics composed into a shared-nothing cluster: one
/// Engine (catalog + fabric + optimizer + executors) per node, joined by a
/// full mesh of credit-windowed, checksummed inter-node links. The cluster
/// itself is pure mechanism — sharding tables, owning links, tracking node
/// health, and the host workers its nodes run on (NodeWorkers); query-level
/// policy (exchange lowering, task lifecycles, merge-at-coordinator) lives
/// in QueryRouter.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Engine& node(int i) { return *nodes_[i]; }
  const Engine& node(int i) const { return *nodes_[i]; }

  /// The directed link src -> dst (src != dst).
  sim::InterNodeLink& link(int src, int dst);

  /// Runs fn(node) for every node of `nodes` concurrently, each on its
  /// node's host worker (NodeWorkers::ForEachNode): returns once all
  /// finished, with the first failing node's Status in `nodes` order.
  /// A task may touch its own node's engine and its own slots of the
  /// caller's per-node state, never the links or another node.
  Status ForEachNode(const std::vector<int>& nodes,
                     const NodeWorkers::NodeFn& fn) {
    return workers_.ForEachNode(nodes, fn);
  }

  /// Hash-shards `table` by its first column across all nodes and registers
  /// each shard in the owning node's catalog under the table's own name
  /// (catalogs are per-node, so names never clash). The original is kept so
  /// a re-route after node loss can re-shard over the survivors. Row r goes
  /// to node hash(col0[r]) % num_nodes — the same HashColumn basis as the
  /// intra-node HashPartitioner, so partition agreement is by construction.
  /// One row group is decoded at a time; each node gathers and appends its
  /// rows, and encodes its shard, on its own worker.
  Status RegisterSharded(std::shared_ptr<Table> table);

  /// Re-shards every registered table over the currently-alive nodes
  /// (the re-route step after MarkNodeLost).
  Status ReshardAll();

  /// Node-health registry (the cluster twin of the engine's device-health
  /// registry). MarkNodeLost also bumps the node's engine fabric epoch so
  /// cached per-node program slices stop matching.
  void MarkNodeLost(int node);
  bool node_alive(int node) const { return alive_[node]; }
  /// True after a node loss until ReshardAll re-routes the lost node's
  /// rows over the survivors.
  bool needs_reshard() const { return needs_reshard_; }
  std::vector<int> AliveNodes() const;
  std::vector<int> LostNodes() const;
  uint64_t node_losses() const { return node_losses_; }

  /// Sum of counters over every inter-node link.
  ExchangeStats TotalExchangeStats() const;

  /// Resets link timing/counters (fresh cluster run; node fabrics are reset
  /// per query by their engines).
  void ResetLinks();

  /// Attaches `tracer` to every inter-node link ("xchg" category spans and
  /// instants). nullptr detaches.
  void AttachTracer(trace::Tracer* tracer);

  /// Arms the seeded frame-fault process on every link per config().fault.
  void ArmLinkFaults();
  bool link_faults_armed() const { return link_faults_armed_; }

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<Engine>> nodes_;
  /// links_[src * num_nodes + dst]; null on the diagonal.
  std::vector<std::unique_ptr<sim::InterNodeLink>> links_;
  std::vector<bool> alive_;
  bool needs_reshard_ = false;
  uint64_t node_losses_ = 0;
  bool link_faults_armed_ = false;
  std::map<std::string, std::shared_ptr<Table>> original_tables_;
  /// Last, so the workers are joined before the engines they run go away.
  NodeWorkers workers_;
};

}  // namespace dflow::cluster

#endif  // DFLOW_CLUSTER_CLUSTER_H_
