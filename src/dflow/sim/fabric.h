#ifndef DFLOW_SIM_FABRIC_H_
#define DFLOW_SIM_FABRIC_H_

#include <memory>
#include <string>
#include <vector>

#include "dflow/sim/device.h"
#include "dflow/sim/link.h"
#include "dflow/sim/simulator.h"

namespace dflow::sim {

/// Parameters of the simulated hardware landscape (§2). Defaults model a
/// plausible 2024 deployment: 100 Gbps network, PCIe5-class interconnect,
/// optional CXL, NVMe-array storage behind an object-store interface, and
/// accelerator streaming rates taken from the ballpark of published devices
/// (storage cells, BlueField-class NICs, M7 DAX-class near-memory units).
/// Absolute values are not the point — the *ratios* (accelerators stream
/// faster than a CPU core; links are slower than accelerators; the CPU is
/// the narrowest streaming element) are what produce the paper's shapes.
struct FabricConfig {
  int num_compute_nodes = 1;

  // Storage node.
  double store_media_gbps = 8.0;          // NVMe array aggregate read rate
  SimTime store_request_latency_ns = 500'000;  // object-store request latency
  double storage_proc_gbps = 16.0;        // smart storage processor streaming
  double nic_proc_gbps = 25.0;            // NIC processor streaming (both sides)

  // Links.
  double storage_uplink_gbps = 12.5;      // storage node -> switch (100 Gbps)
  SimTime storage_uplink_latency_ns = 2'000;
  double network_gbps = 12.5;             // switch -> compute node (100 Gbps)
  SimTime network_latency_ns = 5'000;
  double interconnect_gbps = 32.0;        // NIC -> memory (PCIe5 x8/direction)
  SimTime interconnect_latency_ns = 600;
  bool use_cxl = false;                   // replace PCIe with CXL parameters
  double cxl_gbps = 64.0;
  SimTime cxl_latency_ns = 300;
  double memory_bus_gbps = 40.0;          // memory -> CPU caches
  SimTime memory_bus_latency_ns = 100;

  // Near-memory accelerator streaming rate (privileged memory bandwidth).
  double near_mem_gbps = 80.0;

  // CPU throughput multiplier (1.0 = one effective core).
  double cpu_scale = 1.0;

  // Per-chunk fixed overheads.
  SimTime cpu_overhead_ns = 200;
  SimTime accel_overhead_ns = 50;

  // Default credit capacity (chunks) per pipeline edge.
  uint32_t credit_capacity = 8;
};

/// Builds the per-cost-class rate tables for each device kind. Exposed so
/// tests and the optimizer's cost model use exactly the rates the simulator
/// charges.
void ConfigureCpuDevice(Device* dev, const FabricConfig& config);
void ConfigureStorageProcDevice(Device* dev, const FabricConfig& config);
void ConfigureNicDevice(Device* dev, const FabricConfig& config);
void ConfigureNearMemDevice(Device* dev, const FabricConfig& config);
void ConfigureStoreMediaDevice(Device* dev, const FabricConfig& config);

/// The instantiated topology of Figure 6:
///
///   [store media]--[storage proc]--[storage NIC] --uplink--> [switch]
///      --net[i]--> [compute NIC i] --interconnect--> [memory i]
///      --(near-mem accelerator i)--memory bus--> [CPU i]
///
/// plus per-node transmit links back to the switch for shuffles. All links
/// and devices are owned by the Fabric; pipeline executors borrow them.
class Fabric {
 public:
  struct ComputeNode {
    std::unique_ptr<Device> nic;
    std::unique_ptr<Device> near_mem;
    std::unique_ptr<Device> cpu;
    std::unique_ptr<Link> net_rx;   // switch -> this node
    std::unique_ptr<Link> net_tx;   // this node -> switch
    std::unique_ptr<Link> interconnect;  // NIC -> memory (PCIe or CXL)
    std::unique_ptr<Link> memory_bus;    // memory -> CPU caches
  };

  explicit Fabric(FabricConfig config = FabricConfig());
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const FabricConfig& config() const { return config_; }
  Simulator& simulator() { return sim_; }

  Device* store_media() { return store_media_.get(); }
  Device* storage_proc() { return storage_proc_.get(); }
  Device* storage_nic() { return storage_nic_.get(); }
  Link* storage_uplink() { return storage_uplink_.get(); }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  ComputeNode& node(int i) { return nodes_[i]; }

  /// Clears simulator state and all link/device statistics (fresh run on the
  /// same topology).
  void Reset();

  /// Clears link/device byte and busy counters only; the virtual clock and
  /// per-element timing state survive. Used when chaining runs
  /// (ExecOptions::reset_fabric = false) so each run's report counts only
  /// its own traffic instead of double-counting earlier phases.
  void ResetMetrics();

  /// All links / all devices, for reporting.
  std::vector<Link*> AllLinks();
  std::vector<Device*> AllDevices();

  /// Attaches `tracer` to every device and link on the fabric (nullptr
  /// detaches). The fabric does not own the tracer; the caller keeps it
  /// alive while attached.
  void AttachTracer(trace::Tracer* tracer);
  trace::Tracer* tracer() { return tracer_; }

 private:
  FabricConfig config_;
  Simulator sim_;
  trace::Tracer* tracer_ = nullptr;
  std::unique_ptr<Device> store_media_;
  std::unique_ptr<Device> storage_proc_;
  std::unique_ptr<Device> storage_nic_;
  std::unique_ptr<Link> storage_uplink_;
  std::vector<ComputeNode> nodes_;
};

}  // namespace dflow::sim

#endif  // DFLOW_SIM_FABRIC_H_
