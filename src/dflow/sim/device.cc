#include "dflow/sim/device.h"

#include <algorithm>

#include "dflow/common/logging.h"
#include "dflow/sim/fault.h"
#include "dflow/trace/tracer.h"

namespace dflow::sim {

std::string_view CostClassToString(CostClass c) {
  switch (c) {
    case CostClass::kScan:
      return "scan";
    case CostClass::kFilter:
      return "filter";
    case CostClass::kProject:
      return "project";
    case CostClass::kHash:
      return "hash";
    case CostClass::kPartition:
      return "partition";
    case CostClass::kAggregate:
      return "aggregate";
    case CostClass::kJoinBuild:
      return "join_build";
    case CostClass::kJoinProbe:
      return "join_probe";
    case CostClass::kSort:
      return "sort";
    case CostClass::kDecode:
      return "decode";
    case CostClass::kEncode:
      return "encode";
    case CostClass::kTranspose:
      return "transpose";
    case CostClass::kPointerChase:
      return "pointer_chase";
    case CostClass::kMemcpy:
      return "memcpy";
    case CostClass::kCount:
      return "count";
  }
  return "?";
}

Device::Device(std::string name, SimTime per_item_overhead_ns)
    : name_(std::move(name)), per_item_overhead_ns_(per_item_overhead_ns) {}

void Device::SetRate(CostClass c, double gbps) {
  DFLOW_CHECK_GE(gbps, 0.0);
  rates_gbps_[static_cast<int>(c)] = gbps;
}

double Device::RateGbps(CostClass c) const {
  return rates_gbps_[static_cast<int>(c)];
}

double Device::RateBytesPerNs(CostClass c) const {
  // 1 GB/s == 1e9 bytes / 1e9 ns == 1 byte/ns.
  return rates_gbps_[static_cast<int>(c)];
}

SimTime Device::CostNs(uint64_t bytes, CostClass c, double factor) const {
  const double rate = RateBytesPerNs(c) * factor;
  DFLOW_CHECK_GT(rate, 0.0) << "device " << name_ << " does not support "
                            << CostClassToString(c);
  const double ns = static_cast<double>(bytes) / rate;
  return per_item_overhead_ns_ + static_cast<SimTime>(ns);
}

Device::Work Device::Process(SimTime ready, uint64_t bytes, CostClass c,
                             double factor) {
  SimTime stall = 0;
  if (fault_ != nullptr) {
    stall = fault_->StallNs(name_);
    if (stall > 0) {
      stalls_ += 1;
      stall_ns_ += stall;
    }
  }
  const SimTime cost = CostNs(bytes, c, factor);
  const SimTime start = std::max(ready, next_free_) + stall;
  const SimTime end = start + cost;
  next_free_ = end;
  busy_ns_ += cost;
  bytes_processed_ += bytes;
  items_processed_ += 1;
  if (stall > 0) {
    DFLOW_TRACE(tracer_, Instant("fault", name_, "stall", start - stall,
                                 /*value=*/stall));
  }
  DFLOW_TRACE(tracer_, Span("device", name_,
                            std::string(CostClassToString(c)), start, end,
                            /*value=*/bytes));
  return Work{start, end};
}

void Device::ResetMetrics() {
  busy_ns_ = 0;
  bytes_processed_ = 0;
  items_processed_ = 0;
  stalls_ = 0;
  stall_ns_ = 0;
}

void Device::ResetStats() {
  ResetMetrics();
  next_free_ = 0;
}

}  // namespace dflow::sim
