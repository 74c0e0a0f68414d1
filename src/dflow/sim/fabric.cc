#include "dflow/sim/fabric.h"

namespace dflow::sim {

void ConfigureCpuDevice(Device* dev, const FabricConfig& config) {
  const double s = config.cpu_scale;
  dev->SetRate(CostClass::kScan, 10.0 * s);
  dev->SetRate(CostClass::kFilter, 8.0 * s);
  dev->SetRate(CostClass::kProject, 12.0 * s);
  dev->SetRate(CostClass::kHash, 4.0 * s);
  dev->SetRate(CostClass::kPartition, 5.0 * s);
  dev->SetRate(CostClass::kAggregate, 3.0 * s);
  dev->SetRate(CostClass::kJoinBuild, 2.0 * s);
  dev->SetRate(CostClass::kJoinProbe, 3.0 * s);
  dev->SetRate(CostClass::kSort, 1.5 * s);
  dev->SetRate(CostClass::kDecode, 6.0 * s);
  dev->SetRate(CostClass::kEncode, 4.0 * s);
  dev->SetRate(CostClass::kTranspose, 4.0 * s);
  dev->SetRate(CostClass::kPointerChase, 0.5 * s);
  dev->SetRate(CostClass::kMemcpy, 20.0 * s);
  dev->SetRate(CostClass::kCount, 20.0 * s);
}

void ConfigureStorageProcDevice(Device* dev, const FabricConfig& config) {
  // A streaming processor colocated with the media: excellent at stateless
  // scans/filters/projections (line rate), decent at hashing and bounded
  // partial aggregation, incapable of stateful blocking operators. (§3.3)
  const double r = config.storage_proc_gbps;
  dev->SetRate(CostClass::kScan, r);
  dev->SetRate(CostClass::kFilter, r);
  dev->SetRate(CostClass::kProject, r);
  dev->SetRate(CostClass::kDecode, r);
  dev->SetRate(CostClass::kEncode, r / 2.0);
  dev->SetRate(CostClass::kHash, r * 0.75);
  dev->SetRate(CostClass::kPartition, r * 0.75);
  dev->SetRate(CostClass::kAggregate, r / 2.0);  // bounded partial agg only
  dev->SetRate(CostClass::kCount, r);
  dev->SetRate(CostClass::kMemcpy, r);
  // Unsupported: join build/probe, sort, transpose, pointer chase.
}

void ConfigureNicDevice(Device* dev, const FabricConfig& config) {
  // Bump-on-the-wire processor (§4.3): hashing/partitioning/counting at line
  // rate and above, bounded partial aggregation, no blocking state.
  const double r = config.nic_proc_gbps;
  dev->SetRate(CostClass::kFilter, r * 0.8);
  dev->SetRate(CostClass::kProject, r * 0.8);
  dev->SetRate(CostClass::kHash, r);
  dev->SetRate(CostClass::kPartition, r);
  dev->SetRate(CostClass::kAggregate, r * 0.4);  // bounded partial agg only
  dev->SetRate(CostClass::kCount, r);
  dev->SetRate(CostClass::kDecode, r * 0.5);
  dev->SetRate(CostClass::kEncode, r * 0.5);
  dev->SetRate(CostClass::kMemcpy, r);
  // Unsupported: scan, join build/probe, sort, transpose, pointer chase.
}

void ConfigureNearMemDevice(Device* dev, const FabricConfig& config) {
  // Near-memory accelerator (§5): privileged memory bandwidth for filtering,
  // decompress-on-demand, transposition, pointer chasing and list upkeep.
  const double r = config.near_mem_gbps;
  dev->SetRate(CostClass::kFilter, r);
  dev->SetRate(CostClass::kProject, r);
  dev->SetRate(CostClass::kDecode, r);
  dev->SetRate(CostClass::kEncode, r / 2.0);
  dev->SetRate(CostClass::kTranspose, r / 2.0);
  dev->SetRate(CostClass::kPointerChase, r / 4.0);
  dev->SetRate(CostClass::kHash, r * 0.4);
  dev->SetRate(CostClass::kAggregate, r * 0.15);  // bounded partial agg only
  dev->SetRate(CostClass::kCount, r);
  dev->SetRate(CostClass::kMemcpy, r);
  dev->SetRate(CostClass::kPartition, r * 0.4);
  // Unsupported: scan, join build/probe, sort.
}

void ConfigureStoreMediaDevice(Device* dev, const FabricConfig& config) {
  dev->SetRate(CostClass::kScan, config.store_media_gbps);
  dev->SetRate(CostClass::kMemcpy, config.store_media_gbps);
}

Fabric::Fabric(FabricConfig config) : config_(config) {
  store_media_ = std::make_unique<Device>("store_media",
                                          config.store_request_latency_ns);
  ConfigureStoreMediaDevice(store_media_.get(), config);
  storage_proc_ =
      std::make_unique<Device>("storage_proc", config.accel_overhead_ns);
  ConfigureStorageProcDevice(storage_proc_.get(), config);
  storage_nic_ =
      std::make_unique<Device>("storage_nic", config.accel_overhead_ns);
  ConfigureNicDevice(storage_nic_.get(), config);
  storage_uplink_ = std::make_unique<Link>(
      "storage_uplink", config.storage_uplink_gbps,
      config.storage_uplink_latency_ns);

  const double ic_gbps =
      config.use_cxl ? config.cxl_gbps : config.interconnect_gbps;
  const SimTime ic_latency =
      config.use_cxl ? config.cxl_latency_ns : config.interconnect_latency_ns;

  nodes_.resize(config.num_compute_nodes);
  for (int i = 0; i < config.num_compute_nodes; ++i) {
    const std::string suffix = std::to_string(i);
    ComputeNode& n = nodes_[i];
    n.nic = std::make_unique<Device>("cnic" + suffix, config.accel_overhead_ns);
    ConfigureNicDevice(n.nic.get(), config);
    n.near_mem =
        std::make_unique<Device>("nma" + suffix, config.accel_overhead_ns);
    ConfigureNearMemDevice(n.near_mem.get(), config);
    n.cpu = std::make_unique<Device>("cpu" + suffix, config.cpu_overhead_ns);
    ConfigureCpuDevice(n.cpu.get(), config);
    n.net_rx = std::make_unique<Link>("net_rx" + suffix, config.network_gbps,
                                      config.network_latency_ns);
    n.net_tx = std::make_unique<Link>("net_tx" + suffix, config.network_gbps,
                                      config.network_latency_ns);
    n.interconnect =
        std::make_unique<Link>("ic" + suffix, ic_gbps, ic_latency);
    n.memory_bus = std::make_unique<Link>("membus" + suffix,
                                          config.memory_bus_gbps,
                                          config.memory_bus_latency_ns);
  }
}

void Fabric::Reset() {
  sim_.Reset();
  for (Device* d : AllDevices()) d->ResetStats();
  for (Link* l : AllLinks()) l->ResetStats();
}

void Fabric::ResetMetrics() {
  for (Device* d : AllDevices()) d->ResetMetrics();
  for (Link* l : AllLinks()) l->ResetMetrics();
}

void Fabric::AttachTracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  for (Device* d : AllDevices()) d->SetTracer(tracer);
  for (Link* l : AllLinks()) l->SetTracer(tracer);
}

std::vector<Link*> Fabric::AllLinks() {
  std::vector<Link*> links = {storage_uplink_.get()};
  for (ComputeNode& n : nodes_) {
    links.push_back(n.net_rx.get());
    links.push_back(n.net_tx.get());
    links.push_back(n.interconnect.get());
    links.push_back(n.memory_bus.get());
  }
  return links;
}

std::vector<Device*> Fabric::AllDevices() {
  std::vector<Device*> devices = {store_media_.get(), storage_proc_.get(),
                                  storage_nic_.get()};
  for (ComputeNode& n : nodes_) {
    devices.push_back(n.nic.get());
    devices.push_back(n.near_mem.get());
    devices.push_back(n.cpu.get());
  }
  return devices;
}

}  // namespace dflow::sim
