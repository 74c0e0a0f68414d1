#include "dflow/serve/workload.h"

#include <algorithm>

#include "dflow/common/logging.h"

namespace dflow::serve {

namespace {

// Distinct, fixed stream tags keep the per-tenant RNG sequences
// independent of each other and of call interleaving.
constexpr uint64_t kArrivalStream = 0x61727276ULL;  // "arrv"
constexpr uint64_t kMixStream = 0x6d697874ULL;      // "mixt"

uint64_t TenantSeed(uint64_t base, size_t tenant, uint64_t stream) {
  // SplitMix-style mix of (base, tenant, stream); any bijective-ish hash
  // works, it only has to decorrelate the streams deterministically.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (tenant + 1) + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Status ValidateTenants(const std::vector<TenantConfig>& tenants) {
  if (tenants.empty()) return Status::InvalidArgument("no tenants configured");
  for (const TenantConfig& tenant : tenants) {
    const std::string who = "tenant '" + tenant.name + "': ";
    uint64_t weight = 0;
    for (const TemplateMix& m : tenant.templates) weight += m.weight;
    if (weight == 0) {
      return Status::InvalidArgument(who + "templates has no positive weight");
    }
    if (tenant.slot_ns == 0) {
      return Status::InvalidArgument(who + "slot_ns must be > 0");
    }
  }
  return Status::OK();
}

WorkloadDriver::WorkloadDriver(std::vector<TenantConfig> tenants,
                               uint64_t seed, sim::SimTime horizon_ns)
    : tenants_(std::move(tenants)), horizon_ns_(horizon_ns) {
  for (size_t t = 0; t < tenants_.size(); ++t) {
    arrival_rng_.emplace_back(TenantSeed(seed, t, kArrivalStream));
    mix_rng_.emplace_back(TenantSeed(seed, t, kMixStream));
  }
}

std::vector<Arrival> WorkloadDriver::OpenLoopArrivals() {
  std::vector<Arrival> arrivals;
  for (size_t t = 0; t < tenants_.size(); ++t) {
    const TenantConfig& tenant = tenants_[t];
    if (tenant.arrival_probability <= 0) continue;
    Random& rng = arrival_rng_[t];
    for (sim::SimTime slot = 0; slot < horizon_ns_; slot += tenant.slot_ns) {
      if (!rng.NextBool(tenant.arrival_probability)) continue;
      Arrival a;
      a.at = slot + rng.NextUint64(tenant.slot_ns);
      a.tenant = t;
      a.template_index = PickTemplate(t);
      if (a.at < horizon_ns_) arrivals.push_back(a);
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at != b.at ? a.at < b.at : a.tenant < b.tenant;
                   });
  return arrivals;
}

size_t WorkloadDriver::PickTemplate(size_t tenant) {
  const std::vector<TemplateMix>& mix = tenants_[tenant].templates;
  uint64_t total = 0;
  for (const TemplateMix& m : mix) total += m.weight;
  DFLOW_CHECK(total > 0);
  uint64_t r = mix_rng_[tenant].NextUint64(total);
  for (size_t i = 0; i < mix.size(); ++i) {
    if (r < mix[i].weight) return i;
    r -= mix[i].weight;
  }
  return mix.size() - 1;
}

sim::SimTime WorkloadDriver::InitialIssueTime(size_t tenant) {
  return arrival_rng_[tenant].NextUint64(tenants_[tenant].slot_ns);
}

sim::SimTime WorkloadDriver::NextThinkTime(size_t tenant) {
  const TenantConfig& t = tenants_[tenant];
  return t.think_time_ns + arrival_rng_[tenant].NextUint64(t.slot_ns);
}

}  // namespace dflow::serve
