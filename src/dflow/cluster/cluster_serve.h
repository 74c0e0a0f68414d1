#ifndef DFLOW_CLUSTER_CLUSTER_SERVE_H_
#define DFLOW_CLUSTER_CLUSTER_SERVE_H_

#include <string>
#include <vector>

#include "dflow/cluster/cluster.h"
#include "dflow/cluster/router.h"
#include "dflow/serve/service_loop.h"

namespace dflow::cluster {

/// One node's slice of a cluster service run.
struct NodeServiceReport {
  int node = 0;
  bool alive = true;
  serve::ServiceReport report;
};

/// Cluster-wide service report: per-node ServiceReport sections plus the
/// cluster totals and exchange counters — the JSON "cluster" section the
/// bench reports carry and check_report.py pins.
struct ClusterServiceReport {
  int num_nodes = 0;
  sim::SimTime makespan_ns = 0;  // max over nodes (they serve concurrently)
  uint64_t arrivals_total = 0;
  uint64_t admitted_total = 0;
  uint64_t shed_total = 0;
  uint64_t completed_total = 0;
  uint64_t failed_total = 0;
  uint64_t straggler_events = 0;
  uint64_t node_losses = 0;
  ExchangeStats exchange;
  std::vector<NodeServiceReport> nodes;
};

struct ClusterServiceResult {
  ClusterServiceReport cluster;
  /// Per-node full results (outcomes, fabric reports) for callers that
  /// need more than the counters.
  std::vector<serve::ServiceResult> node_results;
};

/// The serving layer over the cluster: shards tenants round-robin over the
/// alive nodes (tenant t to the (t mod alive)-th alive node) and runs one
/// serve::ServiceLoop per node over that node's tenant subset — admission,
/// lifecycle, breakers, brownout, and the program cache all per node, each
/// node on its own fabric and its own host worker (Cluster::ForEachNode).
/// Nodes serve concurrently, so the cluster makespan is the max of the
/// per-node makespans and throughput scales with alive nodes; the report
/// folds the nodes in node order, so it is byte-identical per seed.
class ClusterServiceLoop {
 public:
  ClusterServiceLoop(Cluster* cluster,
                     std::vector<serve::TenantConfig> tenants,
                     serve::ServiceConfig config);

  Result<ClusterServiceResult> Run();

 private:
  Cluster* cluster_;
  std::vector<serve::TenantConfig> tenants_;
  serve::ServiceConfig config_;
};

/// Deterministic JSON rendering of a ClusterServiceReport (sorted keys,
/// stable formatting — byte-identical per seed). Shape:
///   {"num_nodes":N, "admitted_total":..., ...,
///    "exchange":{"bytes":...,...},
///    "per_node":{"node0":{"admitted":...,...},...}}
std::string ClusterReportToJson(const ClusterServiceReport& report);

}  // namespace dflow::cluster

#endif  // DFLOW_CLUSTER_CLUSTER_SERVE_H_
