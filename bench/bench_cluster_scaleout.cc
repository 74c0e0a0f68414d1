// Scale-out over the multi-fabric cluster (DESIGN.md §11): the same
// distributed partitioned join and the same sharded tenant mix run on 1-,
// 2-, and 4-node clusters, each node an independent fabric joined by
// credit-windowed inter-node links. Local fragments run per shard in
// parallel, the exchange layer (shuffle / gather) pays the cross-node
// movement, and the coordinator merges — so makespan should fall
// near-linearly with node count while the result stays exactly the
// single-node answer.
//
// The bench is its own gate: the partitioned-join cell must show >= 1.7x
// throughput at 2 nodes and >= 3.0x at 4 nodes vs 1 node (and the joined
// row count must be identical at every node count), or the binary exits
// non-zero. CI (bench-gates, cluster row) also reruns it and requires a
// byte-identical report at fixed --dflow_seed, then pins the counters —
// including the cluster.* exchange/shed/straggler sections — against
// bench/expectations/cluster_scaleout.json.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "dflow/cluster/cluster_serve.h"
#include "dflow/cluster/router.h"

namespace dflow::bench {
namespace {

// Large enough that per-shard work dominates fixed per-scan overheads
// (request latency, pipeline fill) — the scale-out curve should measure
// parallelism, not constant costs.
constexpr uint64_t kLineitemRows = 200'000;
constexpr uint64_t kParts = 20'000;

void Gate(bool ok, const char* what, double value) {
  if (ok) return;
  std::fprintf(stderr, "bench_cluster_scaleout: GATE FAILED: %s (got %g)\n",
               what, value);
  std::exit(1);
}

std::unique_ptr<cluster::Cluster> MakeCluster(int nodes) {
  cluster::ClusterConfig config;
  config.num_nodes = nodes;
  config.seed = BenchSeedOr(42);
  // A modern cluster interconnect (100 Gbps, ~1us one-way): the exchange
  // still pays real movement, but the scale-out curve measures
  // parallelism, not an artificially slow wire.
  config.xlink_gbps = 100.0;
  config.xlink_latency_ns = 1'000;
  auto cl = std::make_unique<cluster::Cluster>(config);
  LineitemSpec lineitem;
  lineitem.rows = kLineitemRows;
  lineitem.num_parts = kParts;
  // The build side: a dense part-keyed dimension. Sharding is by each
  // table's first column (l_orderkey / k), while the join key is
  // l_partkey — so the probe shuffle genuinely moves ~(N-1)/N of the
  // rows across the inter-node links instead of finding everything
  // co-partitioned.
  KvSpec parts;
  parts.rows = kParts;
  parts.key_space = kParts;
  DFLOW_CHECK(cl->RegisterSharded(Must(MakeLineitemTable(lineitem))).ok());
  DFLOW_CHECK(cl->RegisterSharded(Must(MakeKvTable(parts))).ok());
  return cl;
}

/// The router's DistributedResult expressed as a bench report entry: the
/// makespan is the simulated completion time and the exchange bytes are
/// the cross-node ("network") movement. The verify section carries the
/// exchange plan's VY_XCHG_* report, so the CI verifier gate covers the
/// distributed plans too.
ExecutionReport DistributedReport(const cluster::DistributedResult& dr,
                                  uint64_t rows) {
  ExecutionReport report;
  report.variant = "cluster";
  report.sim_ns = dr.makespan_ns;
  report.result_rows = rows;
  report.network_bytes = dr.exchange.bytes;
  report.fault.retransmits = dr.exchange.retransmits;
  report.verify = dr.verify;
  return report;
}

/// Join-cell cluster section: one distributed query, so the serving
/// totals are the query itself; the interesting counters are the exchange
/// traffic and stragglers.
cluster::ClusterServiceReport JoinClusterSection(
    const cluster::Cluster& cl, const cluster::DistributedResult& dr) {
  cluster::ClusterServiceReport section;
  section.num_nodes = cl.num_nodes();
  section.makespan_ns = dr.makespan_ns;
  section.arrivals_total = 1;
  section.admitted_total = 1;
  section.completed_total = dr.outcome == "DONE" ? 1 : 0;
  section.failed_total = dr.outcome == "DONE" ? 0 : 1;
  section.straggler_events = dr.straggler_events;
  section.node_losses = cl.node_losses();
  section.exchange = dr.exchange;
  section.nodes.resize(cl.num_nodes());
  for (int i = 0; i < cl.num_nodes(); ++i) {
    section.nodes[i].node = i;
    section.nodes[i].alive = cl.node_alive(i);
    section.nodes[i].report.admitted_total = 1;
    section.nodes[i].report.completed_total = section.completed_total;
  }
  return section;
}

// Makespans by node count, for the cross-cell scaling gates (cells run in
// registration order: n1, then n2, then n4).
std::map<int, double> g_join_makespan;
std::map<int, int64_t> g_join_rows;

void BM_ClusterJoin(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  std::unique_ptr<cluster::Cluster> cl = MakeCluster(nodes);

  cluster::RouterOptions options;
  options.verify = verify::VerifyMode::kStrict;
  cluster::QueryRouter router(cl.get(), options);

  JoinSpec join;
  join.build_table = "kv";
  join.probe_table = "lineitem";
  join.build_key = "k";
  join.probe_key = "l_partkey";

  cluster::DistributedResult result;
  for (auto _ : state) {
    cl->ResetLinks();
    result = Must(router.ExecuteJoin(join));
  }

  Gate(result.outcome == "DONE", "join completes", 0.0);
  g_join_makespan[nodes] = static_cast<double>(result.makespan_ns);
  g_join_rows[nodes] = result.total_rows;

  state.counters["joined_rows"] = static_cast<double>(result.total_rows);
  state.counters["xchg_MB"] =
      static_cast<double>(result.exchange.bytes) / (1024.0 * 1024.0);
  state.counters["xchg_frames"] = static_cast<double>(result.exchange.frames);
  if (g_join_makespan.count(1) != 0 && nodes > 1) {
    const double speedup = g_join_makespan[1] / g_join_makespan[nodes];
    state.counters["speedup_vs_n1"] = speedup;
    // The scale-out acceptance gates, enforced in-binary so a plain local
    // run catches a regression before CI does.
    Gate(g_join_rows[nodes] == g_join_rows[1],
         "joined rows identical across node counts",
         static_cast<double>(g_join_rows[nodes]));
    if (nodes == 2) {
      Gate(speedup >= 1.7, "join throughput >= 1.7x at 2 nodes", speedup);
    }
    if (nodes == 4) {
      Gate(speedup >= 3.0, "join throughput >= 3.0x at 4 nodes", speedup);
    }
  }

  const std::string name = "join/n" + std::to_string(nodes);
  ReportExecution(
      state,
      DistributedReport(result, static_cast<uint64_t>(result.total_rows)),
      name);
  RecordClusterEntry(name,
                     ClusterReportToJson(JoinClusterSection(*cl, result)));
}

BENCHMARK(BM_ClusterJoin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The sharded tenant mix: every node serves its tenant subset through a
// full per-node ServiceLoop (admission, lifecycle, program cache) on its
// own fabric; completed work should grow with node count at a fixed
// horizon because the per-node in-flight limit stops being the bottleneck.
std::vector<serve::TenantConfig> ShardedTenantMix() {
  std::vector<serve::TenantConfig> tenants;
  for (int t = 0; t < 8; ++t) {
    serve::TenantConfig tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.queue_capacity = 4;
    tenant.arrival_probability = 0.5;
    tenant.templates = {
        {Q6Like(0.05 + 0.01 * t), "q6", 3},
        {[] {
           QuerySpec s = Q6Like(0.10);
           s.aggregates.clear();
           s.count_only = true;
           return s;
         }(),
         "count", 1}};
    tenants.push_back(tenant);
  }
  return tenants;
}

std::map<int, double> g_tenant_completed;

void BM_ClusterTenants(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  std::unique_ptr<cluster::Cluster> cl = MakeCluster(nodes);

  serve::ServiceConfig config;
  config.seed = BenchSeedOr(42);
  config.horizon_ns = 30'000'000;
  config.admission.global_max_in_flight = 2;
  config.admission.global_queue_capacity = 8;

  cluster::ClusterServiceResult result;
  for (auto _ : state) {
    cluster::ClusterServiceLoop loop(cl.get(), ShardedTenantMix(), config);
    result = Must(loop.Run());
  }

  const cluster::ClusterServiceReport& r = result.cluster;
  g_tenant_completed[nodes] = static_cast<double>(r.completed_total);

  state.counters["arrivals"] = static_cast<double>(r.arrivals_total);
  state.counters["admitted"] = static_cast<double>(r.admitted_total);
  state.counters["shed"] = static_cast<double>(r.shed_total);
  state.counters["completed"] = static_cast<double>(r.completed_total);
  state.counters["stragglers"] = static_cast<double>(r.straggler_events);

  Gate(r.failed_total == 0, "no failed queries",
       static_cast<double>(r.failed_total));
  Gate(r.completed_total > 0, "some queries complete",
       static_cast<double>(r.completed_total));
  if (g_tenant_completed.count(1) != 0 && nodes > 1) {
    const double scaleup = g_tenant_completed[nodes] / g_tenant_completed[1];
    state.counters["scaleup_vs_n1"] = scaleup;
    // Sharding the mix must add serving capacity, monotonically.
    Gate(scaleup >= 1.0, "completed work does not shrink with nodes",
         scaleup);
  }

  ExecutionReport report;
  report.variant = "cluster-serve";
  report.sim_ns = r.makespan_ns;
  report.result_rows = r.completed_total;
  const std::string name = "tenants/n" + std::to_string(nodes);
  ReportExecution(state, report, name);
  RecordClusterEntry(name, ClusterReportToJson(r));
}

BENCHMARK(BM_ClusterTenants)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dflow::bench

int main(int argc, char** argv) {
  std::cout << "== Cluster scale-out: distributed join + sharded tenant mix "
               "on 1/2/4-node multi-fabric clusters ==\n";
  dflow::bench::InitBenchIo(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dflow::bench::FinishBenchIo("bench_cluster_scaleout");
  benchmark::Shutdown();
  return 0;
}
