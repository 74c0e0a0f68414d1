// Chaos serving: the query lifecycle manager under injected failures
// (DESIGN.md §7). Tenant mixes with virtual-time deadlines offer load
// while the preferred accelerator flaps — crashes mid-run and comes back
// later — optionally under link noise. The sweep compares circuit
// breakers ON vs OFF on the same fault schedule and asserts the
// lifecycle's correctness contract inline:
//
//   * every query that completes — including ones retried onto a fallback
//     placement — produces exactly the rows of a fault-free Volcano
//     reference run of its template (silent wrong answers are divergences);
//   * the ServiceReport JSON is byte-identical across two runs of the same
//     configuration (the whole ladder is deterministic per --dflow_seed);
//   * breakers strictly reduce terminally failed queries on a flapping
//     device (breaker-on < breaker-off, same schedule);
//   * the scheduler ledger drains to zero — cancelled and retried queries
//     leak no credits (DFLOW_INVARIANTs inside ServiceLoop::Run).
//
// CI's bench-gates job (chaos row) runs this binary under
// --dflow_verify=strict and gates the report against
// bench/expectations/serve_chaos.json.

#include <iostream>
#include <map>

#include "bench_common.h"
#include "dflow/serve/service_loop.h"
#include "dflow/testing/canonical.h"
#include "dflow/trace/report_json.h"

namespace dflow::bench {
namespace {

constexpr uint64_t kRows = 60'000;

// Same disaggregation regime as bench_serve_tenants: a narrow storage
// uplink makes the offloaded data paths the scheduler's preferred choice —
// which is exactly what puts queries on the flapping accelerator.
sim::FabricConfig ChaosFabric() {
  sim::FabricConfig config;
  config.store_media_gbps = 32.0;
  config.store_request_latency_ns = 20'000;
  config.storage_proc_gbps = 10.0;
  config.storage_uplink_gbps = 1.0;
  config.network_gbps = 1.0;
  config.cpu_scale = 2.0;
  return config;
}

std::unique_ptr<Engine> FreshEngine() {
  auto e = std::make_unique<Engine>(ChaosFabric());
  LineitemSpec spec;
  spec.rows = kRows;
  DFLOW_CHECK(
      e->catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
  MaybeEnableBenchTracing(*e);
  return e;
}

// Fault-free Volcano reference fingerprint per template (computed once;
// completed chaos queries are held to it, chunk boundaries and row order
// aside).
const std::string& ReferenceFingerprint(const std::string& name,
                                        const QuerySpec& spec) {
  static std::map<std::string, std::string> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  static std::unique_ptr<Engine> clean = FreshEngine();
  auto ref = Must(clean->ExecuteOnVolcano(spec, /*pool_pages=*/256));
  return cache.emplace(name, testing::CanonicalizeVolcanoRows(ref.rows)
                                 .fingerprint)
      .first->second;
}

std::vector<serve::TenantConfig> Tenants(int mix) {
  serve::TenantConfig interactive;
  interactive.name = "interactive";
  interactive.priority = 0;
  interactive.queue_capacity = 4;
  interactive.arrival_probability = 0.10;
  interactive.deadline_ns = 15'000'000;
  interactive.templates = {{Q6Like(0.08), "q6-narrow", 1}};

  serve::TenantConfig batch;
  batch.name = "batch";
  batch.priority = 2;
  batch.queue_capacity = 2;
  batch.closed_loop_clients = 2;
  batch.think_time_ns = 4'000'000;
  batch.templates = {{Q1Like(), "q1", 1}};

  if (mix == 0) return {interactive, batch};

  serve::TenantConfig analytics;
  analytics.name = "analytics";
  analytics.priority = 1;
  analytics.queue_capacity = 2;
  analytics.arrival_probability = 0.05;
  analytics.deadline_ns = 30'000'000;
  analytics.templates = {{Q6Like(0.3), "q6-wide", 1}};
  return {interactive, analytics, batch};
}

const char* MixName(int mix) { return mix == 0 ? "duo" : "trio"; }
const char* ScheduleName(int s) { return s == 0 ? "flap" : "noisy-flap"; }

// One service run against a fresh fabric with the given fault schedule.
// The storage accelerator flaps: down for a 20 ms window, then back — the
// case a permanent quarantine handles badly and a breaker handles well.
serve::ServiceResult RunChaos(int mix, int schedule, bool breaker_on,
                              std::string* service_json,
                              ExecutionReport* fabric, Engine** engine_out) {
  static std::unique_ptr<Engine> engine;  // keep alive for trace snapshot
  engine = FreshEngine();

  sim::FaultConfig fc;
  fc.seed = BenchSeedOr(42) ^ 0xc4a05ULL;
  if (schedule == 1) {
    fc.drop_prob = 0.005;
    fc.stall_prob = 0.01;
  }
  engine->EnableFaultInjection(fc);
  engine->fault_injector()->CrashDeviceAt("storage_proc", 6'000'000);
  engine->fault_injector()->RestoreDeviceAt("storage_proc", 26'000'000);

  serve::ServiceConfig config;
  config.seed = BenchSeedOr(42);
  config.horizon_ns = 50'000'000;
  config.placement = PlacementChoice::kAuto;
  config.admission.global_max_in_flight = 3;
  config.admission.global_queue_capacity = 6;
  config.collect_results = true;

  // Both variants re-admit crashed work through the retry policy and leave
  // the crashed device eligible again after the outage (no permanent
  // quarantine); ONLY the breaker differs, so the failed-query comparison
  // isolates its effect. The single-kAuto fallback chain is deliberate:
  // without a breaker, a retry is free to land on the still-dead device
  // and exhaust its budget.
  config.lifecycle.quarantine_on_crash = false;
  config.lifecycle.retry.retry_device_crash = true;
  config.lifecycle.retry.retry_delivery_exhausted = true;
  config.lifecycle.retry.max_attempts = 1;
  config.lifecycle.retry.backoff_base_ns = 300'000;
  config.lifecycle.retry.jitter_seed = config.seed;
  config.lifecycle.retry.fallback_chain = {PlacementChoice::kAuto};
  config.lifecycle.breaker.enabled = breaker_on;
  config.lifecycle.breaker.failure_threshold = 1;
  config.lifecycle.breaker.cooldown_ns = 6'000'000;
  config.lifecycle.breaker.max_cooldown_ns = 24'000'000;
  config.lifecycle.brownout.enabled = true;
  config.cancel_schedule = {{9'000'000, 3}, {21'000'000, 11}};

  serve::ServiceLoop loop(engine.get(), Tenants(mix), config);
  serve::ServiceResult result = Must(loop.Run());
  *service_json = trace::ServiceReportToJson(result.service);
  *fabric = result.fabric;
  *engine_out = engine.get();

  // Completion exactness: every DONE outcome — first attempt or retried —
  // must land on the fault-free reference rows of its template.
  std::map<std::string, QuerySpec> specs;
  for (const serve::TenantConfig& t : Tenants(mix)) {
    for (const serve::TemplateMix& tm : t.templates) specs[tm.name] = tm.spec;
  }
  for (const serve::ServiceResult::QueryOutcome& q : result.outcomes) {
    if (q.outcome != lifecycle::OutcomeCode::kDone) continue;
    const std::string fp =
        testing::CanonicalizeChunks(q.chunks).fingerprint;
    DFLOW_CHECK(fp == ReferenceFingerprint(q.template_name,
                                           specs.at(q.template_name)))
        << "chaos query " << q.query_id << " (" << q.template_name
        << ", attempts " << q.attempts << ") fingerprint " << fp
        << " != fault-free Volcano reference";
  }
  return result;
}

uint64_t FailedQueries(const serve::ServiceReport& r) {
  return r.failed_total + r.retry_exhausted_total;
}

void BM_ServeChaos(benchmark::State& state) {
  const int mix = static_cast<int>(state.range(0));
  const int schedule = static_cast<int>(state.range(1));

  serve::ServiceResult on, off;
  std::string on_json, on_json2, off_json;
  ExecutionReport on_fabric, off_fabric, scratch;
  Engine* engine = nullptr;

  for (auto _ : state) {
    off = RunChaos(mix, schedule, /*breaker_on=*/false, &off_json,
                   &off_fabric, &engine);
    on = RunChaos(mix, schedule, /*breaker_on=*/true, &on_json, &on_fabric,
                  &engine);
    // Determinism: the same configuration must reproduce the report
    // byte-for-byte on a fresh fabric.
    serve::ServiceResult rerun = RunChaos(mix, schedule, /*breaker_on=*/true,
                                          &on_json2, &scratch, &engine);
    DFLOW_CHECK(on_json == on_json2)
        << "ServiceReport JSON differs across identical chaos runs";
    // The breaker must actually help: strictly fewer terminally failed
    // queries than the quarantine-free baseline on the same schedule.
    DFLOW_CHECK(FailedQueries(on.service) < FailedQueries(off.service))
        << "breaker-on failed " << FailedQueries(on.service)
        << " >= breaker-off failed " << FailedQueries(off.service) << " ("
        << MixName(mix) << "/" << ScheduleName(schedule) << ")";
  }

  state.counters["failed_off"] =
      static_cast<double>(FailedQueries(off.service));
  state.counters["failed_on"] = static_cast<double>(FailedQueries(on.service));
  state.counters["retries_on"] = static_cast<double>(on.service.retries_total);
  state.counters["missed_on"] =
      static_cast<double>(on.service.deadline_missed_total);
  state.counters["probes_on"] = static_cast<double>(on.service.breaker_probes);
  state.counters["brownout_peak"] =
      static_cast<double>(on.service.brownout_peak_level);

  const std::string base =
      std::string(MixName(mix)) + "/" + ScheduleName(schedule);
  ReportExecution(state, off_fabric, base + "/breaker-off");
  RecordServiceEntry(base + "/breaker-off",
                     trace::ServiceReportToJson(off.service));
  ReportExecution(state, on_fabric, base + "/breaker-on", engine);
  RecordServiceEntry(base + "/breaker-on",
                     trace::ServiceReportToJson(on.service));
  state.SetLabel(base);
}

BENCHMARK(BM_ServeChaos)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dflow::bench

int main(int argc, char** argv) {
  std::cout << "== Chaos serving: deadlines, retries, breakers, brownout "
               "under a flapping accelerator (mix, schedule) ==\n";
  dflow::bench::InitBenchIo(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dflow::bench::FinishBenchIo("bench_serve_chaos");
  benchmark::Shutdown();
  return 0;
}
