#include "dflow/cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "dflow/vector/kernels.h"

namespace dflow::cluster {

std::vector<bool> FlagStragglers(const std::vector<sim::SimTime>& times,
                                 double factor) {
  std::vector<bool> flags(times.size(), false);
  if (times.size() < 2) return flags;
  std::vector<sim::SimTime> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  const sim::SimTime median = sorted[sorted.size() / 2];
  if (median == 0) return flags;
  const double threshold = static_cast<double>(median) * factor;
  for (size_t i = 0; i < times.size(); ++i) {
    flags[i] = static_cast<double>(times[i]) > threshold;
  }
  return flags;
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      workers_(std::max(config_.num_nodes, 1)) {
  if (config_.num_nodes < 1) config_.num_nodes = 1;
  // Every node is an independent single-compute-node fabric: the cluster's
  // parallelism is across nodes, the fabric's is within one.
  sim::FabricConfig node_config = config_.node;
  node_config.num_compute_nodes = 1;
  for (int i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Engine>(node_config));
  }
  links_.resize(static_cast<size_t>(config_.num_nodes) * config_.num_nodes);
  for (int src = 0; src < config_.num_nodes; ++src) {
    for (int dst = 0; dst < config_.num_nodes; ++dst) {
      if (src == dst) continue;
      links_[static_cast<size_t>(src) * config_.num_nodes + dst] =
          std::make_unique<sim::InterNodeLink>(
              "xlink" + std::to_string(src) + "_" + std::to_string(dst),
              config_.xlink_gbps, config_.xlink_latency_ns,
              config_.xlink_credits);
    }
  }
  alive_.assign(config_.num_nodes, true);
}

sim::InterNodeLink& Cluster::link(int src, int dst) {
  return *links_[static_cast<size_t>(src) * config_.num_nodes + dst];
}

Status Cluster::RegisterSharded(std::shared_ptr<Table> table) {
  original_tables_[table->name()] = table;
  const std::vector<int> targets = AliveNodes();
  if (targets.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes to shard onto");
  }
  // slot[node]: the node's shard index, its position among the targets.
  std::vector<size_t> slot(nodes_.size());
  std::vector<TableBuilder> builders;
  builders.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    slot[targets[i]] = i;
    builders.emplace_back(table->name(), table->schema());
  }
  std::vector<size_t> columns(table->schema().num_fields());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  const uint32_t n = static_cast<uint32_t>(targets.size());
  std::vector<uint64_t> hashes;
  for (size_t g = 0; g < table->num_row_groups(); ++g) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> chunks,
                           table->row_group(g).DecodeChunks(columns));
    // sel[c][p]: the rows of chunk c that shard p receives.
    std::vector<std::vector<SelectionVector>> sel(chunks.size());
    for (size_t c = 0; c < chunks.size(); ++c) {
      sel[c].resize(n);
      if (chunks[c].num_rows() == 0) continue;
      hashes.clear();  // non-empty switches HashColumn into combine mode
      DFLOW_RETURN_NOT_OK(HashColumn(chunks[c].column(0), &hashes));
      for (size_t r = 0; r < hashes.size(); ++r) {
        sel[c][hashes[r] % n].Append(static_cast<uint32_t>(r));
      }
    }
    DFLOW_RETURN_NOT_OK(ForEachNode(targets, [&](int node) -> Status {
      const size_t p = slot[node];
      for (size_t c = 0; c < chunks.size(); ++c) {
        if (sel[c][p].empty()) continue;
        DFLOW_RETURN_NOT_OK(builders[p].Append(chunks[c].Gather(sel[c][p])));
      }
      return Status::OK();
    }));
  }
  return ForEachNode(targets, [&](int node) -> Status {
    DFLOW_ASSIGN_OR_RETURN(Table shard, builders[slot[node]].Finish());
    return nodes_[node]->catalog().Register(
        std::make_shared<Table>(std::move(shard)));
  });
}

Status Cluster::ReshardAll() {
  for (const auto& [name, table] : original_tables_) {
    DFLOW_RETURN_NOT_OK(RegisterSharded(table));
  }
  needs_reshard_ = false;
  return Status::OK();
}

void Cluster::MarkNodeLost(int node) {
  if (node < 0 || node >= num_nodes() || !alive_[node]) return;
  alive_[node] = false;
  needs_reshard_ = true;
  node_losses_++;
  // A lost node's cached program slices must never be served again: bump
  // its engine's epoch through the device-health registry.
  nodes_[node]->MarkDeviceUnhealthy("cpu0");
}

std::vector<int> Cluster::AliveNodes() const {
  std::vector<int> alive;
  for (int i = 0; i < num_nodes(); ++i) {
    if (alive_[i]) alive.push_back(i);
  }
  return alive;
}

std::vector<int> Cluster::LostNodes() const {
  std::vector<int> lost;
  for (int i = 0; i < num_nodes(); ++i) {
    if (!alive_[i]) lost.push_back(i);
  }
  return lost;
}

ExchangeStats Cluster::TotalExchangeStats() const {
  ExchangeStats total;
  for (const auto& link : links_) {
    if (link == nullptr) continue;
    total.bytes += link->bytes_transferred();
    total.frames += link->frames();
    total.retransmits += link->retransmits();
    total.frames_lost += link->frames_lost();
    total.credit_stall_ns += link->credit_stall_ns();
  }
  return total;
}

void Cluster::ResetLinks() {
  for (auto& link : links_) {
    if (link != nullptr) link->ResetStats();
  }
}

void Cluster::AttachTracer(trace::Tracer* tracer) {
  for (auto& link : links_) {
    if (link != nullptr) link->SetTracer(tracer);
  }
}

void Cluster::ArmLinkFaults() {
  link_faults_armed_ = true;
  uint64_t i = 0;
  for (auto& link : links_) {
    if (link == nullptr) continue;
    link->ArmFaults(config_.fault.xlink_drop_probability,
                    config_.fault.xlink_corrupt_probability,
                    config_.seed + 0x9e37 * ++i,
                    config_.fault.max_frame_attempts);
  }
}

}  // namespace dflow::cluster
