// Wall-clock throughput of the real-parallel executor (ExecMode::kParallel):
// the one bench in the suite that measures actual elapsed time instead of
// the virtual clock. Runs a Q6-flavoured scan->filter->pre-aggregate plan
// and a partitioned hash join across worker counts and reports rows/sec of
// the parallel region (ParallelExecStats::wall_ns: morsel dispatch through
// merge). The workers decode the row groups they claim, so the timed region
// includes decode; only planning and scan setup stay outside it.
//
// Usage: bench_parallel_pipeline [--dflow_report_json=PATH]
//                                [--workers=1,2,4,8] [--repeats=N]
//
// The JSON artifact is "dflow.bench_parallel.v1": one entry per
// (plan, workers) pair plus the host core count and `host_parallel_speedup`,
// what a shared-nothing spin loop gained from 1 to 4 threads on this host
// during the run. tools/check_bench_trend.py gates CI on it (regression vs
// the committed baseline, and the 1->4 worker scaling floor, which it
// reports as inconclusive when the probe shows the host could not scale).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace dflow::bench {
namespace {

struct Entry {
  std::string plan;
  uint32_t workers = 0;
  uint64_t rows = 0;       // rows entering the parallel region
  uint64_t result_rows = 0;
  uint64_t wall_ns = 0;    // best-of-repeats parallel-region wall time
  uint64_t morsels = 0;
  uint64_t steals = 0;
  double rows_per_sec = 0.0;
};

Engine& BenchEngine() {
  static std::unique_ptr<Engine> engine;
  if (!engine) {
    sim::FabricConfig config;
    config.num_compute_nodes = 4;
    engine = std::make_unique<Engine>(config);
    OrdersSpec orders;
    orders.rows = 40'000;
    LineitemSpec lineitem;
    lineitem.rows = 400'000;
    lineitem.num_orders = orders.rows;
    DFLOW_CHECK(engine->catalog()
                    .Register(MakeOrdersTable(orders).ValueOrDie())
                    .ok());
    DFLOW_CHECK(engine->catalog()
                    .Register(MakeLineitemTable(lineitem).ValueOrDie())
                    .ok());
  }
  return *engine;
}

ExecOptions ParallelOptions(uint32_t workers) {
  ExecOptions options;
  options.mode = ExecMode::kParallel;
  options.parallel_workers = workers;
  options.verify = verify::VerifyMode::kOff;
  return options;
}

/// Best-of-`repeats` wall time for the Q6-like pipeline at `workers`.
Entry RunQ6(uint32_t workers, int repeats) {
  Engine& engine = BenchEngine();
  const QuerySpec spec = Q6Like(0.5);
  Entry e;
  e.plan = "scan-filter-preagg";
  e.workers = workers;
  for (int r = 0; r < repeats; ++r) {
    QueryResult result = Must(engine.Execute(spec, ParallelOptions(workers)));
    if (r == 0 || result.parallel.wall_ns < e.wall_ns) {
      e.wall_ns = result.parallel.wall_ns;
      e.rows = result.parallel.rows_in;
      e.morsels = result.parallel.morsels;
      e.steals = result.parallel.steals;
      size_t rows = 0;
      for (const DataChunk& c : result.chunks) rows += c.num_rows();
      e.result_rows = rows;
    }
  }
  return e;
}

Entry RunJoin(uint32_t workers, int repeats) {
  Engine& engine = BenchEngine();
  JoinSpec join;
  join.build_table = "orders";
  join.probe_table = "lineitem";
  join.build_key = "o_orderkey";
  join.probe_key = "l_orderkey";
  join.num_nodes = 4;
  Entry e;
  e.plan = "partitioned-join";
  e.workers = workers;
  for (int r = 0; r < repeats; ++r) {
    JoinRunResult result =
        Must(engine.ExecutePartitionedJoin(join, ParallelOptions(workers)));
    if (r == 0 || result.parallel.wall_ns < e.wall_ns) {
      e.wall_ns = result.parallel.wall_ns;
      e.rows = result.parallel.rows_in;
      e.morsels = result.parallel.morsels;
      e.steals = result.parallel.steals;
      e.result_rows = static_cast<uint64_t>(result.total_rows);
    }
  }
  return e;
}

/// Spins a private xorshift for `iters` rounds; returning the state keeps
/// the loop from being optimised away.
uint64_t Spin(uint64_t iters) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// How much parallel throughput the host delivers right now: `threads`
/// threads each spin the same loop with no shared state, so on idle cores
/// the wall time stays flat and the speedup, threads * t(1) / t(threads)
/// (best of `repeats` each), is close to `threads`. A starved or
/// oversubscribed host reads near 1.
double HostParallelSpeedup(uint32_t threads, int repeats) {
  constexpr uint64_t kIters = 50'000'000;  // ~30-60 ms per thread
  std::atomic<uint64_t> sink{0};
  auto best_ns = [&](uint32_t n) {
    uint64_t best = 0;
    for (int r = 0; r < repeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      for (uint32_t t = 0; t < n; ++t) {
        pool.emplace_back([&sink] { sink += Spin(kIters); });
      }
      for (std::thread& t : pool) t.join();
      const auto ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      if (r == 0 || ns < best) best = ns;
    }
    return best;
  };
  const uint64_t one = best_ns(1);
  const uint64_t many = best_ns(threads);
  DFLOW_CHECK(sink.load() != 0);
  return many == 0 ? 0.0
                   : static_cast<double>(threads) * static_cast<double>(one) /
                         static_cast<double>(many);
}

double RowsPerSec(const Entry& e) {
  if (e.wall_ns == 0) return 0.0;
  return static_cast<double>(e.rows) * 1e9 / static_cast<double>(e.wall_ns);
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries,
               double host_parallel_speedup) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_parallel_pipeline: cannot write %s\n",
                 path.c_str());
    std::exit(2);
  }
  out << "{\n"
      << "  \"schema\": \"dflow.bench_parallel.v1\",\n"
      << "  \"bench\": \"bench_parallel_pipeline\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"host_parallel_speedup\": " << host_parallel_speedup << ",\n"
      << "  \"entries\": [";
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) out << ",";
    first = false;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "\n    {\"plan\": \"%s\", \"workers\": %u, \"rows\": %llu, "
                  "\"result_rows\": %llu, \"wall_ns\": %llu, "
                  "\"morsels\": %llu, \"steals\": %llu, "
                  "\"rows_per_sec\": %.1f}",
                  e.plan.c_str(), e.workers,
                  static_cast<unsigned long long>(e.rows),
                  static_cast<unsigned long long>(e.result_rows),
                  static_cast<unsigned long long>(e.wall_ns),
                  static_cast<unsigned long long>(e.morsels),
                  static_cast<unsigned long long>(e.steals), e.rows_per_sec);
    out << buffer;
  }
  out << (entries.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

int Main(int argc, char** argv) {
  std::string report_json;
  std::vector<uint32_t> worker_counts = {1, 2, 4, 8};
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value_of("--dflow_report_json=")) {
      report_json = v;
    } else if (const char* v = value_of("--workers=")) {
      worker_counts.clear();
      for (const char* p = v; *p != '\0';) {
        worker_counts.push_back(
            static_cast<uint32_t>(std::strtoul(p, nullptr, 10)));
        p = std::strchr(p, ',');
        if (p == nullptr) break;
        ++p;
      }
    } else if (const char* v = value_of("--repeats=")) {
      repeats = std::max(1, std::atoi(v));
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel_pipeline "
                   "[--dflow_report_json=PATH] [--workers=1,2,4,8] "
                   "[--repeats=N]\n");
      return 2;
    }
  }

  // Probe before and after the sweep and keep the lower reading: the gate
  // trusts the scaling numbers only if the host could scale throughout.
  const double probe_before = HostParallelSpeedup(4, repeats);
  std::printf("== Real-parallel pipeline wall-clock throughput (host cores: "
              "%u) ==\n",
              std::thread::hardware_concurrency());
  std::vector<Entry> entries;
  for (uint32_t workers : worker_counts) {
    for (Entry e : {RunQ6(workers, repeats), RunJoin(workers, repeats)}) {
      e.rows_per_sec = RowsPerSec(e);
      std::printf(
          "%-20s w=%-2u %9llu rows in %8.3f ms -> %12.0f rows/s "
          "(morsels=%llu steals=%llu result_rows=%llu)\n",
          e.plan.c_str(), e.workers, static_cast<unsigned long long>(e.rows),
          static_cast<double>(e.wall_ns) / 1e6, e.rows_per_sec,
          static_cast<unsigned long long>(e.morsels),
          static_cast<unsigned long long>(e.steals),
          static_cast<unsigned long long>(e.result_rows));
      entries.push_back(std::move(e));
    }
  }

  // Result sanity across worker counts: a perf number for a wrong answer is
  // worse than no number. Every plan must produce identical result_rows at
  // every worker count.
  for (const Entry& e : entries) {
    for (const Entry& other : entries) {
      if (e.plan == other.plan) {
        DFLOW_CHECK(e.result_rows == other.result_rows)
            << e.plan << ": result_rows diverged across worker counts";
      }
    }
  }

  const double speedup =
      std::min(probe_before, HostParallelSpeedup(4, repeats));
  std::printf("host parallel speedup (spin probe, 1->4 threads): %.2fx\n",
              speedup);
  if (!report_json.empty()) WriteJson(report_json, entries, speedup);
  return 0;
}

}  // namespace
}  // namespace dflow::bench

int main(int argc, char** argv) { return dflow::bench::Main(argc, argv); }
