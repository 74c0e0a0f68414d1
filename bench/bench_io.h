#ifndef DFLOW_BENCH_BENCH_IO_H_
#define DFLOW_BENCH_BENCH_IO_H_

// Observability flags shared by every bench binary. Parsed (and stripped)
// before benchmark::Initialize so Google Benchmark never sees them:
//
//   --dflow_trace_out=PATH        write a Chrome trace (chrome://tracing /
//                                 ui.perfetto.dev) of the last reported run
//   --dflow_report_json=PATH      write every reported ExecutionReport as
//                                 one "dflow.bench_report.v1" JSON document
//   --dflow_trace_capacity=N      tracer ring capacity in events (N > 0)
//   --dflow_verify=MODE           static plan verification: strict (default;
//                                 refuse to run plans with verifier errors),
//                                 warn (report but run), off
//   --dflow_seed=N                seed for workload/arrival RNG streams in
//                                 benches that generate load (serving
//                                 benches); same seed => byte-identical
//                                 report JSON
//
// The CI bench-smoke job runs each binary with --dflow_report_json and
// feeds the outputs to tools/check_report.py against bench/expectations/.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "dflow/engine/engine.h"
#include "dflow/trace/chrome_export.h"
#include "dflow/trace/json.h"
#include "dflow/trace/report_json.h"
#include "dflow/verify/verify_report.h"

namespace dflow::bench {

struct BenchIoState {
  std::string trace_out;
  std::string report_json;
  size_t trace_capacity = 1 << 18;
  /// Chrome-trace snapshot of the most recent reported traced run.
  std::string chrome_trace;
  /// Reports keyed by entry name (sorted => deterministic output order).
  std::map<std::string, ExecutionReport> entries;
  /// Optional service-report JSON per entry (serving benches), embedded
  /// as the entry's "service" member next to "report".
  std::map<std::string, std::string> service_entries;
  /// Optional cluster-report JSON per entry (scale-out benches), embedded
  /// as the entry's "cluster" member next to "report".
  std::map<std::string, std::string> cluster_entries;
  /// Workload/arrival RNG seed (--dflow_seed).
  uint64_t seed = 42;
  bool seed_set = false;
};

inline BenchIoState& BenchIo() {
  static BenchIoState state;
  return state;
}

/// Strips the --dflow_* flags out of argc/argv; call before
/// benchmark::Initialize.
inline void InitBenchIo(int* argc, char** argv) {
  BenchIoState& io = BenchIo();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value_of("--dflow_trace_out=")) {
      io.trace_out = v;
    } else if (const char* v = value_of("--dflow_report_json=")) {
      io.report_json = v;
    } else if (const char* v = value_of("--dflow_trace_capacity=")) {
      char* end = nullptr;
      const unsigned long long capacity = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || *v == '-' || capacity == 0) {
        std::fprintf(stderr,
                     "bad --dflow_trace_capacity=%s (want a positive event "
                     "count)\n",
                     v);
        std::exit(2);
      }
      io.trace_capacity = static_cast<size_t>(capacity);
    } else if (const char* v = value_of("--dflow_seed=")) {
      io.seed = std::strtoull(v, nullptr, 10);
      io.seed_set = true;
    } else if (const char* v = value_of("--dflow_verify=")) {
      auto mode = verify::ParseVerifyMode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "bad --dflow_verify=%s (want strict|warn|off)\n",
                     v);
        std::exit(2);
      }
      verify::SetDefaultMode(mode.ValueOrDie());
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// The workload seed: --dflow_seed if given, else the bench's default.
inline uint64_t BenchSeedOr(uint64_t default_seed) {
  const BenchIoState& io = BenchIo();
  return io.seed_set ? io.seed : default_seed;
}

/// Turns tracing on for `engine` iff --dflow_trace_out was given.
/// LineitemEngine does this automatically; benches that build their own
/// Engine call it once after construction.
inline void MaybeEnableBenchTracing(Engine& engine) {
  const BenchIoState& io = BenchIo();
  if (io.trace_out.empty()) return;
  trace::TraceOptions options;
  options.enabled = true;
  options.ring_capacity = io.trace_capacity;
  const Status status = engine.EnableTracing(options);
  if (!status.ok()) {
    std::fprintf(stderr, "--dflow_trace_out: %s\n", status.ToString().c_str());
    std::exit(2);
  }
}

/// Records one named report for the JSON artifact and, when the engine is
/// traced, snapshots its trace (the file keeps the last snapshot).
inline void RecordBenchEntry(const std::string& name,
                             const ExecutionReport& report, Engine* engine) {
  BenchIoState& io = BenchIo();
  if (!name.empty()) io.entries[name] = report;
  if (engine != nullptr && !io.trace_out.empty() &&
      engine->tracer() != nullptr) {
    io.chrome_trace = trace::ChromeTraceString(*engine->tracer());
  }
}

/// Attaches a serialized ServiceReport to an entry recorded with
/// RecordBenchEntry; it becomes the entry's "service" JSON member.
inline void RecordServiceEntry(const std::string& name,
                               const std::string& service_json) {
  if (!name.empty()) BenchIo().service_entries[name] = service_json;
}

/// Attaches a serialized ClusterServiceReport (or any cluster-section
/// JSON) to an entry recorded with RecordBenchEntry; it becomes the
/// entry's "cluster" JSON member.
inline void RecordClusterEntry(const std::string& name,
                               const std::string& cluster_json) {
  if (!name.empty()) BenchIo().cluster_entries[name] = cluster_json;
}

/// Writes the artifacts requested on the command line; call after
/// benchmark::RunSpecifiedBenchmarks.
inline void FinishBenchIo(const std::string& bench_name) {
  BenchIoState& io = BenchIo();
  if (!io.report_json.empty()) {
    std::ofstream out(io.report_json);
    out << "{\n"
        << "  \"schema\": \"dflow.bench_report.v1\",\n"
        << "  \"bench\": " << trace::JsonQuote(bench_name) << ",\n"
        << "  \"entries\": [";
    bool first = true;
    for (const auto& [name, report] : io.entries) {
      if (!first) out << ",";
      first = false;
      out << "\n    {\"name\": " << trace::JsonQuote(name)
          << ", \"report\": " << trace::ExecutionReportToJson(report);
      auto service = io.service_entries.find(name);
      if (service != io.service_entries.end()) {
        out << ", \"service\": " << service->second;
      }
      auto cluster = io.cluster_entries.find(name);
      if (cluster != io.cluster_entries.end()) {
        out << ", \"cluster\": " << cluster->second;
      }
      out << "}";
    }
    out << (io.entries.empty() ? "]\n" : "\n  ]\n") << "}\n";
  }
  if (!io.trace_out.empty()) {
    std::ofstream out(io.trace_out);
    if (io.chrome_trace.empty()) {
      // No traced run was reported; still emit a loadable (empty) trace.
      out << "{\"traceEvents\": []}\n";
    } else {
      out << io.chrome_trace;
    }
  }
}

}  // namespace dflow::bench

#endif  // DFLOW_BENCH_BENCH_IO_H_
