#ifndef DFLOW_CLUSTER_EXCHANGE_H_
#define DFLOW_CLUSTER_EXCHANGE_H_

#include <string>
#include <vector>

#include "dflow/cluster/cluster.h"
#include "dflow/common/result.h"
#include "dflow/verify/xchg.h"

namespace dflow::cluster {

/// Terminal state of one exchange. Stable codes: the router maps these to
/// the query's outcome string, and tests match on them exactly.
enum class ExchangeOutcome {
  kDone,
  kCancelled,       // cancel_at_ns hit mid-exchange; credits all returned
  kNodeLost,        // an endpoint died mid-exchange (see ClusterFaultConfig)
  kRetryExhausted,  // a frame ran out of retransmission attempts
};

std::string_view ExchangeOutcomeToString(ExchangeOutcome outcome);

/// Chunks per node, indexed by node id over the full cluster.
using NodeChunks = std::vector<std::vector<DataChunk>>;

struct ExchangeResult {
  ExchangeOutcome outcome = ExchangeOutcome::kDone;
  /// Chunks delivered to each node (indexed by node id; empty for nodes
  /// outside the destination set).
  NodeChunks received;
  /// Per destination node: cluster virtual time when its last frame landed
  /// (at least the node's own ready time, so a purely-local delivery is
  /// free but never time-travels).
  std::vector<sim::SimTime> done_ns;
  ExchangeStats stats;
};

/// Runs one cluster-level data movement exactly as `spec` describes it,
/// lowered onto the mesh of checksummed, credit-windowed inter-node links:
/// every node in `spec.from_nodes` sends its chunks, and a shuffle routes
/// each row on `spec.key_col` to to_nodes[hash(key) % |to_nodes|] (the same
/// HashColumn basis as the intra-node HashPartitioner), a broadcast copies
/// every chunk to every node in `spec.to_nodes`, and a gather funnels
/// everything to `spec.to_nodes[0]`. Frames larger than the cluster's
/// frame_bytes are split. The credit window is each link's own
/// (ClusterConfig::xlink_credits, which the router copies into
/// `spec.credits` for the verifier).
///
/// Execution is phase-structured: `inputs[node]` are the chunks node's local
/// fragment produced, ready at cluster virtual time `ready_ns[node]`, both
/// indexed by node id over the full cluster. Each source's chunks are
/// routed (hashed, gathered, cut into frames, checksummed) on that source's
/// host worker (Cluster::ForEachNode), all sources at once; the frames then
/// go onto the links from the calling thread in a deterministic order
/// (source node asc, chunk order, destination asc) — same inputs, same
/// seed, same schedule, byte-identical counters. Frames not yet departed
/// at `cancel_at_ns` (0 = never) are never sent, and every in-flight
/// credit is returned whatever the outcome.
///
/// The exchange takes its inputs over: a chunk that goes whole to one node
/// (a gather, the last broadcast copy, a shuffle whose rows all hash to one
/// node) moves there, a piece that fits in one frame is sent as that frame,
/// and a larger piece is cut into contiguous row ranges. Each input chunk
/// is freed as soon as it is routed.
Result<ExchangeResult> RunExchange(Cluster* cluster,
                                   const verify::ExchangeSpec& spec,
                                   sim::SimTime cancel_at_ns,
                                   NodeChunks inputs,
                                   const std::vector<sim::SimTime>& ready_ns);

}  // namespace dflow::cluster

#endif  // DFLOW_CLUSTER_EXCHANGE_H_
