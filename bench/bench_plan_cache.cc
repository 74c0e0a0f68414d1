// Compile-once, serve-millions: the program cache under a repeat-heavy
// tenant mix (DESIGN.md §10). A small template set arrives over and over;
// the first admission of each plan pays planning + lowering + verification,
// repeats are served the cached program. The sweep compares a warm cache
// (default capacity) against a deliberately thrashing one-slot cache on the
// same arrival stream, so the gap between the two is a single report diff.
// Planning charges no simulated time; what a compile costs on the host is
// measured by bench/e2e (compile.cold_warm_ratio).
//
// The bench is its own gate: in the warm cell the hit rate must be >= 90%,
// and the cold cell must compile (misses + recompiles) >= 10x as often as
// the warm cell, or the binary exits non-zero. CI (bench-gates, cache row)
// also reruns it and requires a byte-identical report, then pins the
// counters against bench/expectations/plan_cache.json.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench_common.h"
#include "dflow/serve/service_loop.h"
#include "dflow/trace/report_json.h"

namespace dflow::bench {
namespace {

constexpr uint64_t kRows = 60'000;

Engine& CacheEngine() {
  static std::unique_ptr<Engine> engine = [] {
    sim::FabricConfig config;
    config.store_media_gbps = 32.0;
    config.store_request_latency_ns = 20'000;
    config.storage_proc_gbps = 10.0;
    config.cpu_scale = 2.0;
    auto e = std::make_unique<Engine>(config);
    LineitemSpec spec;
    spec.rows = kRows;
    DFLOW_CHECK(
        e->catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
    MaybeEnableBenchTracing(*e);
    return e;
  }();
  return *engine;
}

// Repeat-heavy: three distinct plan shapes total, arriving continuously.
// Exactly what a production admission path sees — a handful of prepared
// statements served thousands of times.
std::vector<serve::TenantConfig> RepeatHeavyTenants() {
  serve::TenantConfig interactive;
  interactive.name = "interactive";
  interactive.priority = 0;
  interactive.queue_capacity = 4;
  interactive.arrival_probability = 0.5;
  interactive.templates = {{Q6Like(0.05), "q6-narrow", 8},
                           {[] {
                              QuerySpec s = Q6Like(0.10);
                              s.aggregates.clear();
                              s.count_only = true;
                              return s;
                            }(),
                            "count", 1}};

  serve::TenantConfig batch;
  batch.name = "batch";
  batch.priority = 1;
  batch.queue_capacity = 2;
  batch.closed_loop_clients = 2;
  batch.think_time_ns = 2'000'000;
  batch.templates = {{Q1Like(), "q1", 1}};

  return {interactive, batch};
}

void Gate(bool ok, const char* what, double value) {
  if (ok) return;
  std::fprintf(stderr, "bench_plan_cache: GATE FAILED: %s (got %g)\n", what,
               value);
  std::exit(1);
}

// Compiles (misses + recompiles) of the warm arm, which runs first.
uint64_t warm_compiles = 0;

void BM_PlanCache(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  Engine& engine = CacheEngine();

  serve::ServiceConfig config;
  config.seed = BenchSeedOr(42);
  config.horizon_ns = 80'000'000;
  config.admission.global_max_in_flight = 3;
  config.admission.global_queue_capacity = 6;
  // The cold arm serves the same stream through a one-slot cache: three
  // interleaved plan shapes guarantee continuous eviction, so nearly every
  // admission re-plans — the pre-cache admission path, reproduced.
  config.program_cache_capacity = warm ? 64 : 1;

  serve::ServiceResult result;
  for (auto _ : state) {
    serve::ServiceLoop loop(&engine, RepeatHeavyTenants(), config);
    result = Must(loop.Run());
  }

  const serve::ServiceReport& r = result.service;
  const uint64_t compiles = r.cache_misses + r.cache_recompiles;
  const uint64_t outcomes = r.cache_hits + compiles;
  const double hit_rate =
      outcomes == 0 ? 0.0
                    : static_cast<double>(r.cache_hits) /
                          static_cast<double>(outcomes);

  state.counters["admitted"] = static_cast<double>(r.admitted_total);
  state.counters["completed"] = static_cast<double>(r.completed_total);
  state.counters["hits"] = static_cast<double>(r.cache_hits);
  state.counters["misses"] = static_cast<double>(r.cache_misses);
  state.counters["evictions"] = static_cast<double>(r.cache_evictions);
  state.counters["compiles"] = static_cast<double>(compiles);
  state.counters["hit_rate"] = hit_rate;

  if (warm) {
    // The subsystem's acceptance gates, enforced in-binary so a plain
    // local run catches a regression before CI does.
    Gate(hit_rate >= 0.9, "warm hit rate >= 0.9", hit_rate);
    Gate(r.cache_misses <= 3, "one cold miss per distinct template",
         static_cast<double>(r.cache_misses));
    warm_compiles = compiles;
  } else {
    Gate(r.cache_evictions > 0, "one-slot cache must thrash",
         static_cast<double>(r.cache_evictions));
    // Only when the warm arm ran (a --benchmark_filter may skip it).
    if (warm_compiles > 0) {
      Gate(compiles >= 10 * warm_compiles,
           "cold-cache compiles >= 10x warm-cache compiles",
           static_cast<double>(compiles) /
               static_cast<double>(warm_compiles));
    }
  }
  Gate(r.failed_total == 0, "no failed queries",
       static_cast<double>(r.failed_total));

  const std::string name = warm ? "mix/warm-cache" : "mix/cold-cache";
  ReportExecution(state, result.fabric, name, &engine);
  RecordServiceEntry(name, trace::ServiceReportToJson(r));
  state.SetLabel(warm ? "warm" : "cold");
}

BENCHMARK(BM_PlanCache)
    ->Arg(1)
    ->Arg(0)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dflow::bench

int main(int argc, char** argv) {
  std::cout << "== Program cache: cold vs warm admission on a repeat-heavy "
               "mix (compile-once, serve-millions) ==\n";
  dflow::bench::InitBenchIo(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dflow::bench::FinishBenchIo("bench_plan_cache");
  benchmark::Shutdown();
  return 0;
}
