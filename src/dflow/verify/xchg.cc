#include "dflow/verify/xchg.h"

#include <algorithm>
#include <string>

namespace dflow::verify {
namespace {

std::string NodeListEdge(const ExchangeSpec& x) {
  std::string edge = "[";
  for (size_t i = 0; i < x.from_nodes.size(); ++i) {
    if (i > 0) edge += ",";
    edge += std::to_string(x.from_nodes[i]);
  }
  edge += "]->[";
  for (size_t i = 0; i < x.to_nodes.size(); ++i) {
    if (i > 0) edge += ",";
    edge += std::to_string(x.to_nodes[i]);
  }
  edge += "]";
  return edge;
}

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

VerifyReport VerifyExchangePlan(const ExchangePlanSpec& plan) {
  VerifyReport report;
  for (const ExchangeSpec& x : plan.exchanges) {
    const std::string edge = NodeListEdge(x);

    if (x.from_nodes.empty()) {
      report.Add(Severity::kError, "VY_XCHG_NO_SOURCE", x.name, edge,
                 "exchange has no source nodes; every exchange must be fed "
                 "by at least one fragment");
    }

    if (x.consumer.empty() ||
        std::find(plan.fragments.begin(), plan.fragments.end(), x.consumer) ==
            plan.fragments.end()) {
      report.Add(Severity::kError, "VY_XCHG_ORPHAN", x.name, edge,
                 x.consumer.empty()
                     ? "exchange output feeds no fragment; its rows would be "
                       "silently discarded"
                     : "exchange consumer '" + x.consumer +
                           "' is not a fragment of this plan");
    }

    auto check_nodes = [&](const std::vector<int>& nodes, const char* side) {
      for (int n : nodes) {
        if (n < 0 || n >= plan.num_nodes) {
          report.Add(Severity::kError, "VY_XCHG_NODE_RANGE", x.name, edge,
                     std::string(side) + " node " + std::to_string(n) +
                         " outside [0, " + std::to_string(plan.num_nodes) +
                         ")");
        } else if (Contains(plan.lost_nodes, n)) {
          report.Add(Severity::kError, "VY_XCHG_NODE_DOWN", x.name, edge,
                     std::string(side) + " node " + std::to_string(n) +
                         " is marked lost; re-route the exchange before "
                         "lowering");
        }
      }
    };
    check_nodes(x.from_nodes, "source");
    check_nodes(x.to_nodes, "destination");

    if (x.kind == ExchangeKind::kShuffle &&
        x.partition_count != x.to_nodes.size()) {
      report.Add(Severity::kError, "VY_XCHG_PARTITION_MISMATCH", x.name, edge,
                 "shuffle fanout " + std::to_string(x.partition_count) +
                     " != destination count " +
                     std::to_string(x.to_nodes.size()) +
                     "; some hash buckets would have no (or two) homes");
    }

    if (x.kind == ExchangeKind::kShuffle &&
        (x.key_col < 0 || x.key_col >= x.input_arity)) {
      report.Add(Severity::kError, "VY_XCHG_KEY_RANGE", x.name, edge,
                 "shuffle key column " + std::to_string(x.key_col) +
                     " outside producer arity " +
                     std::to_string(x.input_arity));
    }

    if (x.credits == 0) {
      report.Add(Severity::kError, "VY_XCHG_CREDIT_ZERO", x.name, edge,
                 "zero-credit cross-node edge can never move a frame; the "
                 "sender deadlocks on first send");
    } else if (x.credits == kUnboundedXchgCredits && plan.lossy_links) {
      report.Add(Severity::kWarning, "VY_XCHG_CREDIT_UNBOUNDED", x.name, edge,
                 "unbounded credit window over a lossy inter-node link: the "
                 "retransmit buffer is unbounded; bound the window");
    }
  }
  return report;
}

}  // namespace dflow::verify
