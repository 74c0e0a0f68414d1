#include "dflow/serve/service_report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dflow::serve {

sim::SimTime PercentileNs(std::vector<sim::SimTime> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest-rank: the ceil(q * n)-th smallest sample (1-based). q * n is
  // computed in binary floating point, which can land a hair above the
  // exact product (0.95 * 20 = 19.000000000000004) and inflate the rank by
  // one whole sample; shave an ulp-scale epsilon before taking the ceiling
  // so exact-integer ranks stay exact.
  const double scaled = q * static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(
      std::ceil(scaled - 1e-9 * std::max(1.0, scaled)));
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

std::string ServiceReport::ToString() const {
  std::ostringstream os;
  os << "service: makespan=" << makespan_ns << "ns arrivals=" << arrivals_total
     << " admitted=" << admitted_total << " shed=" << shed_total
     << " completed=" << completed_total << " failed=" << failed_total
     << " degraded=" << degraded_total << " peak_in_flight=" << peak_in_flight
     << " p99=" << p99_ns << "ns";
  if (deadline_missed_total + cancelled_total + retries_total +
          retry_exhausted_total + shed_brownout_total + breaker_transitions +
          breaker_probes + brownout_escalations + brownout_peak_level >
      0) {
    os << "\n  lifecycle: deadline_missed=" << deadline_missed_total
       << " cancelled=" << cancelled_total << " retries=" << retries_total
       << " retry_exhausted=" << retry_exhausted_total
       << " shed_brownout=" << shed_brownout_total
       << " breaker_transitions=" << breaker_transitions
       << " breaker_probes=" << breaker_probes
       << " brownout_escalations=" << brownout_escalations
       << " brownout_peak_level=" << brownout_peak_level;
  }
  if (cache_hits + cache_misses + cache_recompiles > 0) {
    os << "\n  cache: hits=" << cache_hits << " misses=" << cache_misses
       << " evictions=" << cache_evictions
       << " recompiles=" << cache_recompiles
       << " invalidations=" << cache_invalidations;
  }
  for (const TenantStats& t : tenants) {
    os << "\n  tenant " << t.name << ": arrivals=" << t.arrivals
       << " admitted=" << t.admitted << " queued=" << t.queued
       << " shed="
       << (t.shed_queue_full + t.shed_overload + t.shed_brownout)
       << " completed=" << t.completed << " failed=" << t.failed
       << " degraded=" << t.degraded
       << " deadline_missed=" << t.deadline_missed
       << " cancelled=" << t.cancelled << " retries=" << t.retries
       << " retry_exhausted=" << t.retry_exhausted
       << " depth_peak=" << t.queue_depth_peak << " p50=" << t.p50_ns
       << " p95=" << t.p95_ns << " p99=" << t.p99_ns;
  }
  return os.str();
}

}  // namespace dflow::serve
