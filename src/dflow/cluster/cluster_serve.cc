#include "dflow/cluster/cluster_serve.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace dflow::cluster {

ClusterServiceLoop::ClusterServiceLoop(Cluster* cluster,
                                       std::vector<serve::TenantConfig> tenants,
                                       serve::ServiceConfig config)
    : cluster_(cluster),
      tenants_(std::move(tenants)),
      config_(std::move(config)) {}

Result<ClusterServiceResult> ClusterServiceLoop::Run() {
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes to serve on");
  }

  // Shard tenants round-robin over the alive nodes: deterministic, and an
  // even split so the scale-out bench measures parallelism, not placement
  // luck. (Key-affine routing uses QueryRouter::HomeNode instead.)
  // shards[node]: that node's tenants.
  std::vector<std::vector<serve::TenantConfig>> shards(cluster_->num_nodes());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    shards[alive[t % alive.size()]].push_back(tenants_[t]);
  }

  ClusterServiceResult result;
  result.cluster.num_nodes = cluster_->num_nodes();
  result.cluster.node_losses = cluster_->node_losses();
  result.node_results.resize(cluster_->num_nodes());
  result.cluster.nodes.resize(cluster_->num_nodes());
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    result.cluster.nodes[i].node = i;
    result.cluster.nodes[i].alive = cluster_->node_alive(i);
  }

  // Each node serves its shard on its own worker, all nodes at once; the
  // totals, flags and per-node reports fold below in node order.
  std::vector<int> serving;
  for (int node : alive) {
    if (!shards[node].empty()) serving.push_back(node);
  }
  DFLOW_RETURN_NOT_OK(cluster_->ForEachNode(serving, [&](int node) -> Status {
    // Per-node seed derivation keeps arrival streams independent across
    // nodes while staying a pure function of (config seed, node id).
    serve::ServiceConfig node_config = config_;
    node_config.seed = config_.seed + 0x9e3779b97f4a7c15ULL * (node + 1);
    serve::ServiceLoop loop(&cluster_->node(node), shards[node], node_config);
    DFLOW_ASSIGN_OR_RETURN(result.node_results[node], loop.Run());
    return Status::OK();
  }));

  std::vector<sim::SimTime> node_makespans;
  for (int node : serving) {
    const serve::ServiceReport& r = result.node_results[node].service;
    result.cluster.arrivals_total += r.arrivals_total;
    result.cluster.admitted_total += r.admitted_total;
    result.cluster.shed_total += r.shed_total;
    result.cluster.completed_total += r.completed_total;
    result.cluster.failed_total += r.failed_total;
    node_makespans.push_back(r.makespan_ns);
    result.cluster.nodes[node].report = r;
  }

  // Stragglers among the per-node serving makespans (the router applies
  // the same rule to each query's local fragments).
  for (bool slow : FlagStragglers(node_makespans,
                                  cluster_->config().straggler_factor)) {
    if (slow) result.cluster.straggler_events++;
  }

  for (sim::SimTime m : node_makespans) {
    result.cluster.makespan_ns = std::max(result.cluster.makespan_ns, m);
  }
  result.cluster.exchange = cluster_->TotalExchangeStats();
  return result;
}

std::string ClusterReportToJson(const ClusterServiceReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"dflow.cluster_report.v1\"";
  os << ",\"num_nodes\":" << report.num_nodes;
  os << ",\"makespan_ns\":" << report.makespan_ns;
  os << ",\"arrivals_total\":" << report.arrivals_total;
  os << ",\"admitted_total\":" << report.admitted_total;
  os << ",\"shed_total\":" << report.shed_total;
  os << ",\"completed_total\":" << report.completed_total;
  os << ",\"failed_total\":" << report.failed_total;
  os << ",\"straggler_events\":" << report.straggler_events;
  os << ",\"node_losses\":" << report.node_losses;
  os << ",\"exchange\":{";
  os << "\"bytes\":" << report.exchange.bytes;
  os << ",\"frames\":" << report.exchange.frames;
  os << ",\"retransmits\":" << report.exchange.retransmits;
  os << ",\"frames_lost\":" << report.exchange.frames_lost;
  os << ",\"credit_stall_ns\":" << report.exchange.credit_stall_ns << "}";
  os << ",\"per_node\":{";
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const NodeServiceReport& node = report.nodes[i];
    if (i > 0) os << ",";
    os << "\"node" << node.node << "\":{";
    os << "\"alive\":" << (node.alive ? "true" : "false");
    os << ",\"admitted\":" << node.report.admitted_total;
    os << ",\"shed\":" << node.report.shed_total;
    os << ",\"completed\":" << node.report.completed_total;
    os << ",\"failed\":" << node.report.failed_total;
    os << ",\"makespan_ns\":" << node.report.makespan_ns << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace dflow::cluster
