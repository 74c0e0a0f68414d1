#include "dflow/verify/verifier.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "dflow/sim/cost_class.h"

namespace dflow::verify {
namespace {

bool IsCpuDevice(const std::string& name) {
  return name.rfind("cpu", 0) == 0;
}

std::string NodeRef(const NodeSpec& n) {
  return std::string(NodeKindToString(n.kind)) + " '" + n.name + "'";
}

/// Per-node adjacency computed once; out-of-range edges are dropped here
/// (after being reported) so later passes never index out of bounds.
struct Adjacency {
  std::vector<std::vector<size_t>> out;  // node -> edge indices
  std::vector<std::vector<size_t>> in;
};

// ---------------------------------------------------------------------------
// Family 1: graph structure.
// ---------------------------------------------------------------------------

Adjacency CheckStructure(const GraphSpec& spec, VerifyReport* report) {
  Adjacency adj;
  adj.out.resize(spec.nodes.size());
  adj.in.resize(spec.nodes.size());

  if (spec.nodes.empty()) {
    report->Add(Severity::kError, "VY_GRAPH_EMPTY", "", "",
                "graph has no nodes");
    return adj;
  }

  bool has_source = false;
  bool has_sink = false;
  for (const NodeSpec& n : spec.nodes) {
    has_source |= n.kind == NodeKind::kSource;
    has_sink |= n.kind == NodeKind::kSink;
  }
  if (!has_source) {
    report->Add(Severity::kError, "VY_GRAPH_NO_SOURCE", "", "",
                "graph has no source node; nothing will ever flow");
  }

  for (size_t e = 0; e < spec.edges.size(); ++e) {
    const EdgeSpec& edge = spec.edges[e];
    if (edge.from >= spec.nodes.size() || edge.to >= spec.nodes.size()) {
      report->Add(Severity::kError, "VY_GRAPH_DANGLING", "", edge.label,
                  "edge references node id " +
                      std::to_string(std::max(edge.from, edge.to)) +
                      " but the graph has only " +
                      std::to_string(spec.nodes.size()) + " nodes");
      continue;
    }
    const NodeSpec& to = spec.nodes[edge.to];
    const NodeSpec& from = spec.nodes[edge.from];
    if (to.kind == NodeKind::kSource) {
      report->Add(Severity::kError, "VY_GRAPH_DANGLING", to.name, edge.label,
                  "edge feeds into " + NodeRef(to) +
                      "; sources accept no inputs");
      continue;
    }
    if (from.kind == NodeKind::kSink) {
      report->Add(Severity::kError, "VY_GRAPH_DANGLING", from.name, edge.label,
                  "edge leaves " + NodeRef(from) + "; sinks emit no output");
      continue;
    }
    adj.out[edge.from].push_back(e);
    adj.in[edge.to].push_back(e);
  }

  // Fan-out discipline: sources and stages push to at most one consumer;
  // a partition node must have exactly its partitioner's fan-out.
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    const NodeSpec& n = spec.nodes[i];
    const size_t outs = adj.out[i].size();
    if ((n.kind == NodeKind::kSource || n.kind == NodeKind::kStage) &&
        outs > 1) {
      report->Add(Severity::kError, "VY_GRAPH_FANOUT", n.name, "",
                  NodeRef(n) + " has " + std::to_string(outs) +
                      " outgoing edges; sources and stages push to exactly "
                      "one consumer (use a broadcast or partition node)");
    }
    if (n.kind == NodeKind::kPartition && n.partition_fanout > 0 &&
        outs != n.partition_fanout) {
      report->Add(Severity::kError, "VY_GRAPH_FANOUT", n.name, "",
                  NodeRef(n) + " was built for fan-out " +
                      std::to_string(n.partition_fanout) + " but has " +
                      std::to_string(outs) + " outgoing edges");
    }
  }

  // Reachability from the sources (feedback edges count: data does flow on
  // them once the loop is primed).
  std::vector<bool> reachable(spec.nodes.size(), false);
  std::deque<size_t> frontier;
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    if (spec.nodes[i].kind == NodeKind::kSource) {
      reachable[i] = true;
      frontier.push_back(i);
    }
  }
  while (!frontier.empty()) {
    const size_t i = frontier.front();
    frontier.pop_front();
    for (size_t e : adj.out[i]) {
      const size_t to = spec.edges[e].to;
      if (!reachable[to]) {
        reachable[to] = true;
        frontier.push_back(to);
      }
    }
  }
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    const NodeSpec& n = spec.nodes[i];
    if (n.kind != NodeKind::kSource && !reachable[i]) {
      report->Add(Severity::kError, "VY_GRAPH_UNREACHABLE", n.name, "",
                  NodeRef(n) +
                      " is not reachable from any source; it would never "
                      "receive data or end-of-stream");
    }
  }

  // Results silently dropped: a terminal non-sink node whose output schema
  // is non-empty loses rows. Build-phase stages that install state and emit
  // nothing (empty output schema) are legitimate terminals.
  bool dropped = false;
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    const NodeSpec& n = spec.nodes[i];
    if (n.kind == NodeKind::kSink || !adj.out[i].empty()) continue;
    if (n.has_output_schema && n.output_schema.num_fields() == 0) continue;
    dropped = true;
    if (has_sink) {
      report->Add(Severity::kWarning, "VY_GRAPH_DEAD_END", n.name, "",
                  NodeRef(n) +
                      " has no consumer; rows it emits are silently dropped");
    }
  }
  if (!has_sink && dropped) {
    report->Add(Severity::kWarning, "VY_GRAPH_NO_SINK", "", "",
                "graph has no sink; terminal stages emit rows nobody "
                "collects");
  }

  // Cycles over non-feedback edges: DFS with an explicit path stack so the
  // diagnostic can name the loop.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(spec.nodes.size(), Color::kWhite);
  std::vector<size_t> path;
  bool cycle_reported = false;

  // NOLINTNEXTLINE(misc-no-recursion): graphs are small and tests bound depth.
  auto dfs = [&](auto&& self, size_t i) -> void {
    color[i] = Color::kGray;
    path.push_back(i);
    for (size_t e : adj.out[i]) {
      if (spec.edges[e].feedback) continue;
      const size_t to = spec.edges[e].to;
      if (color[to] == Color::kGray && !cycle_reported) {
        cycle_reported = true;
        std::string names;
        const auto start = std::find(path.begin(), path.end(), to);
        for (auto it = start; it != path.end(); ++it) {
          names += spec.nodes[*it].name + " -> ";
        }
        names += spec.nodes[to].name;
        report->Add(Severity::kError, "VY_GRAPH_CYCLE", spec.nodes[to].name,
                    spec.edges[e].label,
                    "cycle not declared as feedback: " + names +
                        " (declare the closing edge with feedback=true if "
                        "intentional)");
      } else if (color[to] == Color::kWhite) {
        self(self, to);
      }
    }
    path.pop_back();
    color[i] = Color::kBlack;
  };
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    if (color[i] == Color::kWhite) dfs(dfs, i);
  }

  return adj;
}

// ---------------------------------------------------------------------------
// Family 2: schema flow.
// ---------------------------------------------------------------------------

std::string DescribeSchemaDiff(const Schema& produced, const Schema& expected) {
  if (produced.num_fields() != expected.num_fields()) {
    return "producer emits " + std::to_string(produced.num_fields()) +
           " columns, consumer expects " +
           std::to_string(expected.num_fields()) + " (producer: " +
           produced.ToString() + "; consumer: " + expected.ToString() + ")";
  }
  for (size_t c = 0; c < produced.num_fields(); ++c) {
    const Field& got = produced.field(c);
    const Field& want = expected.field(c);
    if (!(got == want)) {
      return "column " + std::to_string(c) + ": producer emits '" + got.name +
             "' (" + std::string(DataTypeToString(got.type)) +
             "), consumer expects '" + want.name + "' (" +
             std::string(DataTypeToString(want.type)) + ")";
    }
  }
  return "schemas differ";
}

void CheckSchemas(const GraphSpec& spec, const Adjacency& adj,
                  VerifyReport* report) {
  // Resolve the schema each node emits. Partition and broadcast nodes are
  // pass-through: their output is whatever their (single) producer emits.
  enum class State { kUnvisited, kResolving, kDone };
  std::vector<State> state(spec.nodes.size(), State::kUnvisited);
  std::vector<std::optional<Schema>> produced(spec.nodes.size());

  // NOLINTNEXTLINE(misc-no-recursion): bounded by graph depth.
  auto resolve = [&](auto&& self, size_t i) -> const std::optional<Schema>& {
    if (state[i] == State::kResolving) {
      // Cycle: already reported by the structure family; schema unknown.
      return produced[i];
    }
    if (state[i] == State::kDone) return produced[i];
    state[i] = State::kResolving;
    const NodeSpec& n = spec.nodes[i];
    if (n.has_output_schema) {
      produced[i] = n.output_schema;
    } else if (n.kind == NodeKind::kPartition ||
               n.kind == NodeKind::kBroadcast) {
      if (!adj.in[i].empty()) {
        produced[i] = self(self, spec.edges[adj.in[i][0]].from);
      }
    }
    state[i] = State::kDone;
    return produced[i];
  };

  for (size_t e = 0; e < spec.edges.size(); ++e) {
    const EdgeSpec& edge = spec.edges[e];
    if (edge.from >= spec.nodes.size() || edge.to >= spec.nodes.size()) {
      continue;  // reported as VY_GRAPH_DANGLING
    }
    const NodeSpec& consumer = spec.nodes[edge.to];
    if (!consumer.has_input_schema) continue;  // accepts any input
    const std::optional<Schema>& got = resolve(resolve, edge.from);
    if (!got.has_value()) continue;  // producer schema unknown; nothing to say
    if (*got == consumer.input_schema) continue;
    report->Add(Severity::kError, "VY_SCHEMA_MISMATCH", consumer.name,
                edge.label,
                "schema break on edge " + edge.label + ": " +
                    DescribeSchemaDiff(*got, consumer.input_schema));
  }
}

// ---------------------------------------------------------------------------
// Family 3: credit / flow-control safety.
// ---------------------------------------------------------------------------

void CheckCredits(const GraphSpec& spec, const Adjacency& adj,
                  VerifyReport* report) {
  for (const EdgeSpec& edge : spec.edges) {
    if (edge.credits == 0) {
      report->Add(Severity::kError, "VY_CREDIT_ZERO", "", edge.label,
                  "edge has a zero-credit window; the producer could never "
                  "send and the graph deadlocks on the first chunk");
    } else if (edge.credits == 1 && edge.hops > 0 &&
               edge.credits != kUnboundedCredits) {
      report->Add(Severity::kWarning, "VY_CREDIT_WINDOW", "", edge.label,
                  "credit window of 1 on a " + std::to_string(edge.hops) +
                      "-hop fabric path serializes every chunk behind its "
                      "ack; pipelining is disabled on this edge");
    }
  }

  // Credit deadlock: a cycle in which every edge has a finite window can
  // wedge — each hop waits for credits only released downstream in the same
  // loop. Non-feedback cycles are already structural errors; this check
  // exists for declared feedback loops.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(spec.nodes.size(), Color::kWhite);
  std::vector<size_t> path;
  bool reported = false;

  // NOLINTNEXTLINE(misc-no-recursion): bounded by graph depth.
  auto dfs = [&](auto&& self, size_t i) -> void {
    color[i] = Color::kGray;
    path.push_back(i);
    for (size_t e : adj.out[i]) {
      const EdgeSpec& edge = spec.edges[e];
      if (edge.credits == kUnboundedCredits) continue;  // cannot back-pressure
      const size_t to = edge.to;
      if (color[to] == Color::kGray && !reported) {
        // Only report loops that include a declared feedback edge; plain
        // cycles were already rejected structurally.
        const auto start = std::find(path.begin(), path.end(), to);
        bool has_feedback = edge.feedback;
        for (auto it = start; !has_feedback && it + 1 != path.end(); ++it) {
          for (size_t oe : adj.out[*it]) {
            if (spec.edges[oe].to == *(it + 1) && spec.edges[oe].feedback) {
              has_feedback = true;
              break;
            }
          }
        }
        if (has_feedback) {
          reported = true;
          std::string names;
          for (auto it = start; it != path.end(); ++it) {
            names += spec.nodes[*it].name + " -> ";
          }
          names += spec.nodes[to].name;
          report->Add(
              Severity::kError, "VY_CREDIT_CYCLE", spec.nodes[to].name,
              edge.label,
              "feedback loop " + names +
                  " has a finite credit window on every hop and can "
                  "deadlock; give at least one edge an unbounded window");
        }
      } else if (color[to] == Color::kWhite) {
        self(self, to);
      }
    }
    path.pop_back();
    color[i] = Color::kBlack;
  };
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    if (color[i] == Color::kWhite) dfs(dfs, i);
  }
}

// ---------------------------------------------------------------------------
// Family 4: placement legality.
// ---------------------------------------------------------------------------

sim::Device* FindDevice(sim::Fabric* fabric, const std::string& name) {
  for (sim::Device* d : fabric->AllDevices()) {
    if (d->name() == name) return d;
  }
  return nullptr;
}

std::string CpuFallbackHint(sim::Fabric* fabric, const NodeSpec& n) {
  if (fabric == nullptr) return "";
  for (sim::Device* d : fabric->AllDevices()) {
    if (!IsCpuDevice(d->name())) continue;
    if (n.has_cost_class && !d->Supports(n.cost_class)) continue;
    return "; suggested rewrite: place '" + n.name + "' on '" + d->name() +
           "' (CPU fallback)";
  }
  return "";
}

void CheckPlacement(const GraphSpec& spec, const VerifyContext& ctx,
                    VerifyReport* report) {
  for (const NodeSpec& n : spec.nodes) {
    if (n.kind == NodeKind::kSink) continue;  // sinks only collect, anywhere
    if (n.device.empty()) {
      if (n.kind == NodeKind::kStage) {
        report->Add(Severity::kError, "VY_PLACE_NO_DEVICE", n.name, "",
                    NodeRef(n) + " has no device assignment");
      }
      continue;
    }

    sim::Device* device = nullptr;
    if (ctx.fabric != nullptr) {
      device = FindDevice(ctx.fabric, n.device);
      if (device == nullptr) {
        report->Add(Severity::kError, "VY_PLACE_UNKNOWN_DEVICE", n.name, "",
                    NodeRef(n) + " is placed on '" + n.device +
                        "', which this fabric does not provision" +
                        CpuFallbackHint(ctx.fabric, n));
        continue;
      }
    }

    const bool dead =
        ctx.unhealthy != nullptr && ctx.unhealthy->count(n.device) > 0;
    if (dead) {
      report->Add(Severity::kError, "VY_PLACE_DEAD_DEVICE", n.name, "",
                  NodeRef(n) + " is placed on '" + n.device +
                      "', which the health registry marks dead" +
                      CpuFallbackHint(ctx.fabric, n));
      continue;
    }

    if (device != nullptr && n.has_cost_class &&
        !device->Supports(n.cost_class)) {
      report->Add(Severity::kError, "VY_PLACE_UNSUPPORTED", n.name, "",
                  "device '" + n.device + "' has no functional unit for " +
                      std::string(sim::CostClassToString(n.cost_class)) +
                      CpuFallbackHint(ctx.fabric, n));
      continue;
    }

    if (ctx.check_streaming_policy && n.kind == NodeKind::kStage &&
        n.has_traits && !IsCpuDevice(n.device)) {
      Status policy = CheckPlacementPolicy(n.traits, n.name, ctx.accel_policy,
                                           n.device);
      if (!policy.ok()) {
        report->Add(Severity::kWarning, "VY_PLACE_POLICY", n.name, "",
                    std::string(policy.message()) +
                        CpuFallbackHint(ctx.fabric, n));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Family 5: deadlock reachability (VY_DEADLOCK_*).
//
// Family 3 flags credit *topology* smells (zero windows anywhere, all-finite
// feedback loops). This family proves the stronger, arithmetic conditions a
// run-time executor actually wedges on: a self-loop that waits on its own
// credits, a live edge with zero credits that can never carry a chunk, and a
// feedback cycle whose total credit pool cannot hold the batch occupancy
// its sources inject. A graph can trip both families on one edge — the
// family 3 code names the smell, the VY_DEADLOCK_* code the proof.
// ---------------------------------------------------------------------------

void CheckDeadlocks(const GraphSpec& spec, const Adjacency& adj,
                    VerifyReport* report) {
  // Liveness: a producer reachable from a source (or a source itself) will
  // eventually push on its out-edges.
  std::vector<bool> live(spec.nodes.size(), false);
  std::deque<size_t> frontier;
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    if (spec.nodes[i].kind == NodeKind::kSource) {
      live[i] = true;
      frontier.push_back(i);
    }
  }
  while (!frontier.empty()) {
    const size_t i = frontier.front();
    frontier.pop_front();
    for (size_t e : adj.out[i]) {
      const size_t to = spec.edges[e].to;
      if (!live[to]) {
        live[to] = true;
        frontier.push_back(to);
      }
    }
  }

  for (size_t e = 0; e < spec.edges.size(); ++e) {
    const EdgeSpec& edge = spec.edges[e];
    if (edge.from >= spec.nodes.size() || edge.to >= spec.nodes.size()) {
      continue;  // reported as VY_GRAPH_DANGLING
    }
    // A node feeding itself over a finite window waits on credits only it
    // can release: wedged on the first full window, whatever the credit
    // count.
    if (edge.from == edge.to && edge.credits != kUnboundedCredits) {
      report->Add(Severity::kError, "VY_DEADLOCK_SELF_WAIT",
                  spec.nodes[edge.from].name, edge.label,
                  NodeRef(spec.nodes[edge.from]) +
                      " feeds itself over a finite credit window (" +
                      std::to_string(edge.credits) +
                      "); it can only release its own credits after the "
                      "downstream half consumes, which is itself — wedged "
                      "once the window fills");
    }
    // Zero credits on a live edge: a credit-gated edge with no credits can
    // never carry a chunk, so the live producer's first chunk waits
    // forever (DataflowGraph::Connect refuses to build one).
    if (edge.credits == 0 && live[edge.from]) {
      report->Add(Severity::kError, "VY_DEADLOCK_ZERO_CAPACITY",
                  spec.nodes[edge.from].name, edge.label,
                  "live edge (producer is reachable from a source) has zero "
                  "credits; it can never carry a chunk, so the producer "
                  "blocks on its first one");
    }
  }

  // Credit-starved cycles: every edge finite AND the cycle's total credit
  // pool is smaller than the batch occupancy its members inject. Occupancy
  // is the largest max_batch_chunks among cycle members and the sources
  // feeding them (unknown everywhere -> one in-flight chunk per cycle edge).
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(spec.nodes.size(), Color::kWhite);
  std::vector<size_t> path;
  std::vector<size_t> edge_path;  // edge used to reach path[k] from path[k-1]
  bool reported = false;

  // NOLINTNEXTLINE(misc-no-recursion): bounded by graph depth.
  auto dfs = [&](auto&& self, size_t i) -> void {
    color[i] = Color::kGray;
    path.push_back(i);
    for (size_t e : adj.out[i]) {
      const EdgeSpec& edge = spec.edges[e];
      if (edge.credits == kUnboundedCredits) continue;
      const size_t to = edge.to;
      if (to == i) continue;  // self-wait, reported above
      if (color[to] == Color::kGray && !reported) {
        const auto start = std::find(path.begin(), path.end(), to);
        const size_t start_idx =
            static_cast<size_t>(start - path.begin());
        std::vector<size_t> cycle_edges;
        for (size_t k = start_idx + 1; k < path.size(); ++k) {
          cycle_edges.push_back(edge_path[k]);
        }
        cycle_edges.push_back(e);

        uint64_t total_credits = 0;
        for (size_t ce : cycle_edges) total_credits += spec.edges[ce].credits;

        size_t occupancy = 0;
        for (auto it = start; it != path.end(); ++it) {
          occupancy = std::max(occupancy, spec.nodes[*it].max_batch_chunks);
          for (size_t ie : adj.in[*it]) {
            const NodeSpec& producer = spec.nodes[spec.edges[ie].from];
            if (producer.kind == NodeKind::kSource) {
              occupancy = std::max(occupancy, producer.max_batch_chunks);
            }
          }
        }
        if (occupancy == 0) occupancy = cycle_edges.size();

        if (total_credits < occupancy) {
          reported = true;
          std::string names;
          for (auto it = start; it != path.end(); ++it) {
            names += spec.nodes[*it].name + " -> ";
          }
          names += spec.nodes[to].name;
          report->Add(
              Severity::kError, "VY_DEADLOCK_CREDIT_STARVED",
              spec.nodes[to].name, edge.label,
              "cycle " + names + " holds " + std::to_string(total_credits) +
                  " total credits but must absorb a batch occupancy of " +
                  std::to_string(occupancy) +
                  "; once the pool is exhausted every member waits on a "
                  "credit only another member can release");
        }
      } else if (color[to] == Color::kWhite) {
        edge_path.push_back(e);
        self(self, to);
        edge_path.pop_back();
      }
    }
    path.pop_back();
    color[i] = Color::kBlack;
  };
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    if (color[i] == Color::kWhite) {
      edge_path.push_back(static_cast<size_t>(-1));
      dfs(dfs, i);
      edge_path.pop_back();
    }
  }
}

}  // namespace

VerifyReport VerifyGraph(const GraphSpec& spec, const VerifyContext& ctx) {
  VerifyReport report;
  const Adjacency adj = CheckStructure(spec, &report);
  if (spec.nodes.empty()) return report;  // nothing else to analyze
  CheckSchemas(spec, adj, &report);
  CheckCredits(spec, adj, &report);
  CheckPlacement(spec, ctx, &report);
  CheckDeadlocks(spec, adj, &report);
  return report;
}

}  // namespace dflow::verify
