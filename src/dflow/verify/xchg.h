#ifndef DFLOW_VERIFY_XCHG_H_
#define DFLOW_VERIFY_XCHG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/verify/verify_report.h"

namespace dflow::verify {

/// Kind of inter-node data movement an exchange performs.
enum class ExchangeKind {
  kShuffle,    // hash-partition rows across destination nodes
  kBroadcast,  // replicate every row to every destination node
  kGather,     // funnel everything to one destination (the coordinator)
};

/// One exchange edge of a distributed plan, as plain data. The router
/// describes each of a query's exchanges as one of these, runs the
/// VY_XCHG_* family over the plan before any frame moves, and then runs
/// exactly these specs (cluster::RunExchange) — the distributed twin of
/// GraphSpec/VerifyGraph, and deliberately just as executable-agnostic so
/// hand-built (including hand-broken) plans are checkable in tests.
struct ExchangeSpec {
  std::string name;  // e.g. "shuffle.build"
  ExchangeKind kind = ExchangeKind::kShuffle;
  std::vector<int> from_nodes;
  std::vector<int> to_nodes;
  /// Shuffle fanout: must equal the destination count so every hash bucket
  /// has exactly one home. Ignored for broadcast/gather.
  uint32_t partition_count = 0;
  /// Credit window on each underlying inter-node link. 0 deadlocks;
  /// kUnboundedCredits over a lossy link means an unbounded retransmit
  /// buffer — both are plan bugs, not runtime conditions.
  uint32_t credits = 0;
  /// Shuffle key column, an index into the producing fragment's output.
  int key_col = 0;
  /// Arity of the producing fragment's output (for key range checking).
  int input_arity = 0;
  /// Name of the consuming fragment; "" = the exchange output feeds nothing.
  std::string consumer;
};

/// Matches verify::kUnboundedCredits in graph_spec.h (duplicated here so
/// the exchange checks do not pull in the single-node graph snapshot).
inline constexpr uint32_t kUnboundedXchgCredits = 0xffffffffu;

/// A distributed plan's exchange layer, as plain data.
struct ExchangePlanSpec {
  int num_nodes = 0;
  /// Nodes the router currently considers lost (health registry snapshot).
  std::vector<int> lost_nodes;
  /// True when frame-fault injection is armed on the inter-node links.
  bool lossy_links = false;
  /// Fragment names that exist in the plan (consumers must be among them).
  std::vector<std::string> fragments;
  std::vector<ExchangeSpec> exchanges;
};

/// The VY_XCHG_* check family. Stable codes (catalogued in DESIGN.md §11):
///
///   VY_XCHG_NO_SOURCE          exchange has no source nodes
///   VY_XCHG_ORPHAN             exchange output feeds no known fragment
///   VY_XCHG_NODE_RANGE         endpoint outside [0, num_nodes)
///   VY_XCHG_NODE_DOWN          endpoint routed to a lost node
///   VY_XCHG_PARTITION_MISMATCH shuffle fanout != destination count
///   VY_XCHG_KEY_RANGE          shuffle key column outside producer arity
///   VY_XCHG_CREDIT_ZERO        zero-credit cross-node edge (deadlock)
///   VY_XCHG_CREDIT_UNBOUNDED   unbounded credits over a lossy link
///                              (warning: unbounded retransmit buffer)
///
/// Deterministic order: exchanges in plan order, checks in the order above.
VerifyReport VerifyExchangePlan(const ExchangePlanSpec& plan);

}  // namespace dflow::verify

#endif  // DFLOW_VERIFY_XCHG_H_
