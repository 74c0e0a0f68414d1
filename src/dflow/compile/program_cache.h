#ifndef DFLOW_COMPILE_PROGRAM_CACHE_H_
#define DFLOW_COMPILE_PROGRAM_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dflow/compile/program.h"
#include "dflow/opt/placement.h"

namespace dflow::compile {

/// What a cache entry is filed under: the plan's identity plus the compile
/// environment. A device-health/quarantine change bumps the engine's fabric
/// epoch, so every program verified against the old health registry becomes
/// unreachable (and is swept by InvalidateStaleEpochs) rather than served
/// stale; a verifier-catalogue change strands old stamps the same way.
struct CacheKey {
  uint64_t plan_fingerprint = 0;
  uint64_t fabric_epoch = 0;
  int verifier_version = 0;
  /// Compute node the program was compiled for. The epoch above is that
  /// node's epoch (Engine::fabric_epoch(node)), so a health change on one
  /// cluster node never strands another node's entries.
  int node = 0;

  bool operator<(const CacheKey& o) const {
    if (plan_fingerprint != o.plan_fingerprint) {
      return plan_fingerprint < o.plan_fingerprint;
    }
    if (fabric_epoch != o.fabric_epoch) return fabric_epoch < o.fabric_epoch;
    if (verifier_version != o.verifier_version) {
      return verifier_version < o.verifier_version;
    }
    return node < o.node;
  }
};

/// One cached plan: the ranked variant table from placement enumeration
/// (the expensive part of admission — it sizes the scan and costs every
/// monotone site assignment) plus the programs lowered so far, one per
/// variant actually chosen under live contention. Programs are compiled
/// lazily: the first admission that steers to a new variant pays one
/// lowering (counted as a recompile, not a miss), repeats of it are free.
struct CompiledQuery {
  uint64_t plan_fingerprint = 0;
  uint64_t fabric_epoch = 0;
  /// The plan itself — the retry path recompiles the CPU-only fallback
  /// from here without going back to the tenant's template.
  QuerySpec spec;
  std::vector<RankedPlacement> variants;
  /// The forced extremes, precomputed so a pinned admission (retry,
  /// brownout FORCE_CHEAP) needs no re-preparation to resolve them.
  Placement cpu_only;
  Placement full_offload;
  /// Programs by placement (variant) name; deterministic iteration order.
  std::map<std::string, ProgramPtr> programs;

  ProgramPtr ProgramFor(const std::string& variant_name) const {
    auto it = programs.find(variant_name);
    return it == programs.end() ? nullptr : it->second;
  }
};

/// Admission-outcome and bookkeeping counters. `hits`/`misses`/`recompiles`
/// are classified by the caller (the serving loop knows whether a lookup
/// was a repeat admission, a first sight, or a degraded retry);
/// `evictions`/`invalidations` are the cache's own.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t recompiles = 0;
  uint64_t invalidations = 0;
};

/// LRU cache of compiled plans, keyed by plan fingerprint + fabric epoch +
/// verifier version. Single-threaded like the rest of the serving loop;
/// fully deterministic (recency order is usage order, ties impossible).
class ProgramCache {
 public:
  /// A zero `capacity` holds nothing: every Insert is evicted at once.
  explicit ProgramCache(size_t capacity = 64);

  /// Returns the entry and marks it most-recently-used; null when absent.
  /// Does not classify hit/miss — callers do, via the Count* methods.
  std::shared_ptr<CompiledQuery> Lookup(const CacheKey& key);

  /// Inserts (or replaces) the entry, evicting the least-recently-used
  /// entry when over capacity.
  void Insert(const CacheKey& key, std::shared_ptr<CompiledQuery> entry);

  /// Drops every entry whose epoch predates `current_epoch` (device-health
  /// change); each dropped entry counts as an invalidation, not an
  /// eviction.
  void InvalidateStaleEpochs(uint64_t current_epoch);

  void CountHit() { ++stats_.hits; }
  void CountMiss() { ++stats_.misses; }
  void CountRecompile() { ++stats_.recompiles; }

  const CacheStats& stats() const { return stats_; }
  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    CacheKey key;
    std::shared_ptr<CompiledQuery> entry;
  };

  size_t capacity_;
  /// Most-recently-used at the front.
  std::list<Slot> lru_;
  std::map<CacheKey, std::list<Slot>::iterator> index_;
  CacheStats stats_;
};

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_PROGRAM_CACHE_H_
