#ifndef DFLOW_SIM_DEVICE_H_
#define DFLOW_SIM_DEVICE_H_

#include <array>
#include <cstdint>
#include <string>

#include "dflow/sim/cost_class.h"
#include "dflow/sim/simulator.h"

namespace dflow::trace {
class Tracer;
}

namespace dflow::sim {

class FaultInjector;

/// A processing element on the fabric: CPU core set, smart storage
/// processor, NIC processor, near-memory accelerator, or the storage media
/// controller itself.
///
/// The timing model is a serial server: work items execute back to back in
/// arrival order. Processing a batch of B bytes of cost class c takes
///   per_item_overhead_ns + B / rate(c)
/// and an unsupported cost class (rate 0) is a placement error the caller
/// must avoid (checked via Supports()).
class Device {
 public:
  struct Work {
    SimTime start;
    SimTime end;
  };

  Device(std::string name, SimTime per_item_overhead_ns = 0);

  const std::string& name() const { return name_; }

  /// Sets the throughput for one cost class, in gigabytes per second.
  /// A rate of 0 marks the class unsupported on this device.
  void SetRate(CostClass c, double gbps);

  double RateGbps(CostClass c) const;
  bool Supports(CostClass c) const { return RateBytesPerNs(c) > 0; }

  /// Nanoseconds this device needs for `bytes` of class `c` work, including
  /// per-item overhead. `factor` scales throughput (>1 = faster), letting
  /// operators express per-instance cost tweaks.
  SimTime CostNs(uint64_t bytes, CostClass c, double factor = 1.0) const;

  /// Reserves the device for a work item that becomes ready at `ready`.
  /// Serializes after any previously reserved work. Updates busy/byte
  /// counters.
  Work Process(SimTime ready, uint64_t bytes, CostClass c,
               double factor = 1.0);

  /// Earliest time a new work item could start.
  SimTime next_free() const { return next_free_; }

  uint64_t busy_ns() const { return busy_ns_; }
  uint64_t bytes_processed() const { return bytes_processed_; }
  uint64_t items_processed() const { return items_processed_; }
  uint64_t stalls() const { return stalls_; }
  SimTime stall_ns() const { return stall_ns_; }

  /// Attaches a fault injector; subsequent Process calls may be delayed by
  /// injected transient stalls. nullptr detaches.
  void SetFaultInjector(FaultInjector* injector) { fault_ = injector; }

  /// Attaches an event tracer; every Process emits a busy-interval span on
  /// this device's timeline track (and injected stalls an instant event).
  /// nullptr detaches. Tracing never changes timing.
  void SetTracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Clears busy/byte/item/stall counters but keeps timing state
  /// (next_free), so chained runs report only their own work.
  void ResetMetrics();

  /// Full reset: metrics and timing state (fresh simulation).
  void ResetStats();

 private:
  double RateBytesPerNs(CostClass c) const;

  std::string name_;
  SimTime per_item_overhead_ns_;
  std::array<double, kNumCostClasses> rates_gbps_{};
  FaultInjector* fault_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  SimTime next_free_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t bytes_processed_ = 0;
  uint64_t items_processed_ = 0;
  uint64_t stalls_ = 0;
  SimTime stall_ns_ = 0;
};

}  // namespace dflow::sim

#endif  // DFLOW_SIM_DEVICE_H_
