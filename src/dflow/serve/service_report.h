#ifndef DFLOW_SERVE_SERVICE_REPORT_H_
#define DFLOW_SERVE_SERVICE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/sim/simulator.h"

namespace dflow::serve {

/// Per-tenant service-level counters for one run. All integers — the
/// report must serialize byte-identically for a given seed.
struct TenantStats {
  std::string name;
  uint64_t arrivals = 0;
  uint64_t admitted = 0;         // started executing on the fabric
  uint64_t queued = 0;           // waited in the queue before starting
  uint64_t shed_queue_full = 0;  // rejected: tenant queue at capacity
  uint64_t shed_overload = 0;    // rejected: global waiting budget spent
  uint64_t completed = 0;
  uint64_t failed = 0;    // admitted but finished with an error
  uint64_t degraded = 0;  // re-admitted CPU-only after a device crash
  uint64_t queue_depth_peak = 0;
  // ---- lifecycle counters (PR 6): distinct terminal outcomes and the
  // retry machinery that produced them.
  uint64_t deadline_missed = 0;   // cancelled with DEADLINE_EXCEEDED
  uint64_t cancelled = 0;         // explicitly cancelled (not deadline)
  uint64_t retries = 0;           // retry attempts scheduled
  uint64_t retry_exhausted = 0;   // failed after spending the retry budget
  uint64_t shed_brownout = 0;     // rejected: brownout ladder shedding
  // Virtual-time latency (arrival -> completion), nearest-rank.
  sim::SimTime p50_ns = 0;
  sim::SimTime p95_ns = 0;
  sim::SimTime p99_ns = 0;
};

/// What one service run measured: the paper's serving-side quantities —
/// per-tenant throughput, shed counts proving admission engaged, and
/// virtual-time tail latency.
struct ServiceReport {
  sim::SimTime makespan_ns = 0;
  uint64_t arrivals_total = 0;
  uint64_t admitted_total = 0;
  uint64_t shed_total = 0;
  uint64_t completed_total = 0;
  uint64_t failed_total = 0;
  uint64_t degraded_total = 0;
  uint64_t peak_in_flight = 0;
  sim::SimTime p99_ns = 0;  // across all tenants' completions
  // ---- lifecycle totals (PR 6).
  uint64_t deadline_missed_total = 0;
  uint64_t cancelled_total = 0;
  uint64_t retries_total = 0;
  uint64_t retry_exhausted_total = 0;
  uint64_t shed_brownout_total = 0;
  uint64_t breaker_transitions = 0;  // circuit-breaker state changes
  uint64_t breaker_probes = 0;       // half-open probe launches
  uint64_t brownout_escalations = 0;
  uint64_t brownout_peak_level = 0;  // highest ladder rung reached
  // ---- program-cache admission counters (PR 9): compile-once serving.
  uint64_t cache_hits = 0;        // admissions served a cached program
  uint64_t cache_misses = 0;      // first sight of a plan: full compile
  uint64_t cache_evictions = 0;   // LRU evictions under capacity pressure
  uint64_t cache_recompiles = 0;  // new variant / post-crash relower only
  uint64_t cache_invalidations = 0;  // entries stranded by an epoch bump
  std::vector<TenantStats> tenants;

  std::string ToString() const;
};

/// Nearest-rank percentile (q in (0, 1]) over unsorted latency samples;
/// 0 when empty. Deterministic: integer sort + index, no interpolation.
sim::SimTime PercentileNs(std::vector<sim::SimTime> samples, double q);

}  // namespace dflow::serve

#endif  // DFLOW_SERVE_SERVICE_REPORT_H_
