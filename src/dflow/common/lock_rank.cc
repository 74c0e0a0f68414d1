#include "dflow/common/lock_rank.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace dflow {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kServeCompletion:
      return "ServeCompletion";
    case LockRank::kAdmission:
      return "Admission";
    case LockRank::kDemandLedger:
      return "DemandLedger";
    case LockRank::kBreakerRegistry:
      return "BreakerRegistry";
    case LockRank::kBrownout:
      return "Brownout";
    case LockRank::kStealDeque:
      return "StealDeque";
    case LockRank::kJoinPartition:
      return "JoinPartition";
    case LockRank::kNodeWorkers:
      return "NodeWorkers";
    case LockRank::kErrorSlot:
      return "ErrorSlot";
  }
  return "Unknown";
}

#ifndef DFLOW_INVARIANTS_DISABLED
namespace lock_rank_detail {
namespace {
/// Ranks the calling thread currently holds, in acquisition order. A plain
/// vector: depth is 0–2 in practice, and the checker only runs in
/// invariant-enabled builds.
thread_local std::vector<LockRank> held_ranks;
}  // namespace

void PushRank(LockRank rank) {
  if (!held_ranks.empty() && held_ranks.back() >= rank) {
    std::fprintf(
        stderr,
        "lock-order violation: acquiring %s (rank %d) while holding %s "
        "(rank %d); acquisition must follow strictly increasing LockRank "
        "order (see common/lock_rank.h and DESIGN.md section 9)\n",
        LockRankName(rank), static_cast<int>(rank),
        LockRankName(held_ranks.back()),
        static_cast<int>(held_ranks.back()));
    std::abort();
  }
  held_ranks.push_back(rank);
}

void PopRank(LockRank rank) {
  for (auto it = held_ranks.rbegin(); it != held_ranks.rend(); ++it) {
    if (*it == rank) {
      held_ranks.erase(std::next(it).base());
      return;
    }
  }
  std::fprintf(stderr,
               "lock-order bookkeeping bug: releasing %s (rank %d) which "
               "this thread does not hold\n",
               LockRankName(rank), static_cast<int>(rank));
  std::abort();
}

}  // namespace lock_rank_detail
#endif  // DFLOW_INVARIANTS_DISABLED

}  // namespace dflow
