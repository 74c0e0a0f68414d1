// End-to-end host-time benchmark of the dflow engine (see README.md).
//
//   e2e_harness --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Times the engine from outside, through its public entry points only, for
// one workload per process. Every operation's inputs (query literals,
// interleaving order, serving arrival streams) derive from --seed and the
// operation's index, so a seed names the exact operation sequence; table
// contents are fixed. The timed loop issues operations back to back (one
// closed-loop client) until --seconds have passed. Correctness checks run
// after the timed window.
//
// With --trace 1 the run first spends a quarter of --seconds untraced (for
// the tracing-overhead figure), then records a span around every public
// call and, after every 4th operation, runs probe calls that split that
// operation's work by layer. Spans go to --spans as JSON lines.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> value: the end-to-end quantities untraced, every
// per-layer quantity the run sampled when traced; run.py picks and labels
// the ones BENCHMARK.json names) and info (per-type sample counts and
// latencies; traced runs add each per-layer sample's median per type).
// Exit code 1 when any check fails.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dflow/cluster/router.h"
#include "dflow/common/random.h"
#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/scan.h"
#include "dflow/plan/fingerprint.h"
#include "dflow/plan/parser.h"
#include "dflow/serve/service_loop.h"
#include "dflow/testing/canonical.h"
#include "dflow/trace/report_json.h"
#include "dflow/workload/tpch_like.h"

namespace dflow::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- sizes --
// Table sizes: per-query work dominates fixed per-call costs.
constexpr uint64_t kSqlRows = 400'000;
constexpr uint64_t kParallelRows = 400'000;
constexpr uint64_t kParallelOrders = 40'000;
constexpr uint64_t kClusterRows = 100'000;
constexpr uint64_t kClusterParts = 10'000;
constexpr int kClusterNodes = 4;
constexpr uint64_t kServeRows = 60'000;
/// Virtual horizon of one serve-repeat operation: long enough that the
/// three plan misses of a fresh program cache are about 1% of its
/// admissions.
constexpr sim::SimTime kServeHorizonNs = 200'000'000;
/// serve-repeat's cold vs warm cache probe: alternating run pairs, each
/// run over half an operation's horizon (the probe's cost stays within
/// half an untraced run).
constexpr int kColdWarmPairs = 3;
constexpr sim::SimTime kColdWarmHorizonNs = kServeHorizonNs / 2;
constexpr uint32_t kParallelWorkers = 4;

/// Set-ups per run, before and after the timed phase; setup_s is the
/// median of all of them. A slow spell of a shared host lasts seconds, so
/// split in two groups it cannot slow most of them.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;
/// Probes run after every kProbeEvery-th operation of a traced run.
constexpr uint64_t kProbeEvery = 4;
/// sql-adhoc keeps every kSqlCheckEvery-th result for the Volcano check and
/// checks at most kSqlMaxChecks of them, evenly spaced.
constexpr uint64_t kSqlCheckEvery = 8;
constexpr size_t kSqlMaxChecks = 24;
/// Literal variants per seed for the workloads whose references are
/// computed at setup.
constexpr size_t kReferenceVariants = 8;

constexpr double kMiB = 1024.0 * 1024.0;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- stats --
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Samples of one quantity, split by operation type. A workload mixes
/// operation types whose costs differ by up to 20x, so a percentile over
/// the pooled samples would jump between types; each type's percentile
/// is taken separately and then the types are combined.
class TypedSamples {
 public:
  void Add(size_t type, double value) { by_type_[type].push_back(value); }

  /// Geometric mean over types of each type's q-quantile: a 10% change in
  /// any one type moves it equally. For latencies (always positive).
  double GeoMean(double q) const {
    if (by_type_.empty()) return 0.0;
    double log_sum = 0.0;
    for (const auto& [type, values] : by_type_) {
      log_sum += std::log(Quantile(values, q));
    }
    return std::exp(log_sum / static_cast<double>(by_type_.size()));
  }

  /// Arithmetic mean over types of each type's q-quantile. For per-layer
  /// quantities, which may be 0 (counts) or a difference of two timings.
  double Mean(double q) const {
    if (by_type_.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& [type, values] : by_type_) sum += Quantile(values, q);
    return sum / static_cast<double>(by_type_.size());
  }

  const std::map<size_t, std::vector<double>>& by_type() const {
    return by_type_;
  }

 private:
  std::map<size_t, std::vector<double>> by_type_;
};

// --------------------------------------------------------------- tracing --
/// One operation of a workload: its position in the seeded sequence, its
/// type, and the query id its spans share.
struct Op {
  uint64_t index = 0;
  size_t type = 0;
};

/// Bench-side spans around public calls, kept in memory and written as
/// JSON lines at exit. Also the per-layer sample store: every timed call
/// and every counter a probe reads lands in `samples` under its metric
/// name. With tracing off, Time() still measures (the end-to-end calls
/// need their durations) but records nothing.
class Tracer {
 public:
  explicit Tracer(std::vector<std::string> types) : types_(std::move(types)) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Runs `fn` under a span named `name`; returns its duration in ms.
  double Time(const std::string& name, const Op& op, uint64_t parent,
              const std::function<void()>& fn) {
    const uint64_t id = enabled_ ? ++next_id_ : 0;
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    if (enabled_) {
      spans_.push_back({name, id, parent, op.index, op.type, Ns(start),
                        Ns(end)});
    }
    return std::chrono::duration<double, std::milli>(end - start).count();
  }

  /// Opens a span whose children are timed with Time(..., parent=id).
  uint64_t Open() { return enabled_ ? ++next_id_ : 0; }
  void Close(const std::string& name, const Op& op, uint64_t id,
             Clock::time_point start) {
    if (!enabled_) return;
    spans_.push_back(
        {name, id, 0, op.index, op.type, Ns(start), Ns(Clock::now())});
  }

  void Sample(const std::string& metric, size_t type, double value) {
    if (enabled_) samples_[metric].Add(type, value);
  }

  /// Quantile per type, averaged across types (0 when never sampled).
  double Metric(const std::string& metric, double q = 0.5) const {
    auto it = samples_.find(metric);
    return it == samples_.end() ? 0.0 : it->second.Mean(q);
  }

  bool WriteSpans(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const SpanRecord& s : spans_) {
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out << "{\"name\":\"" << s.name << "\",\"layer\":\"" << layer
          << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"query\":" << s.query << ",\"type\":\"" << types_[s.type]
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

  size_t span_count() const { return spans_.size(); }
  const std::map<std::string, TypedSamples>& samples() const {
    return samples_;
  }

 private:
  struct SpanRecord {
    std::string name;
    uint64_t id;
    uint64_t parent;
    uint64_t query;
    size_t type;
    int64_t start_ns;
    int64_t end_ns;
  };

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  std::vector<std::string> types_;
  bool enabled_ = false;
  uint64_t next_id_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::map<std::string, TypedSamples> samples_;
};

// --------------------------------------------------------------- metrics --
/// Metric name -> value. Names and units are BENCHMARK.json's; run.py
/// labels the values.
using Metrics = std::map<std::string, double>;

// ------------------------------------------------------------- workloads --
/// How many service-level queries one operation stood for (a serving run
/// is one operation but many queries) and how many of them failed.
struct Tally {
  uint64_t queries = 1;
  uint64_t failed = 0;
};

/// A correctness problem found inside or after the timed window.
struct Problems {
  uint64_t count = 0;
  void Report(const std::string& what) {
    ++count;
    if (count <= 10) std::fprintf(stderr, "e2e: CHECK FAILED: %s\n", what.c_str());
  }
};

class Workload {
 public:
  Workload(uint64_t seed, std::vector<std::string> types)
      : seed_(seed), types_(std::move(types)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::vector<std::string>& types() const { return types_; }

  /// Builds tables, engines and references, then runs one untimed
  /// operation of each type so lazy state is in place before timing.
  virtual Status Setup() = 0;

  /// The operation at `index` of the seeded sequence. Each cycle of
  /// types().size() operations holds every type once, in a seeded order.
  Op MakeOp(uint64_t index) const {
    const uint64_t n = types_.size();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    Random rng(Mix(seed_, index / n));
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextUint64(i)]);
    }
    return {index, order[index % n]};
  }

  /// Runs one operation through the engine's public API.
  virtual Result<Tally> Run(const Op& op, Tracer* tracer) = 0;

  /// Traced runs only: extra calls that split `op`'s work by layer.
  virtual void Probe(const Op& op, Tracer* tracer) = 0;

  /// Traced runs only: once-per-run probes.
  virtual void ProbeOnce(Tracer* tracer) { (void)tracer; }

  /// Traced runs only: per-layer totals over the run that are not
  /// per-operation samples.
  virtual void AddMetrics(Metrics* metrics) const { (void)metrics; }

  /// Post-window correctness checks.
  virtual void Check(Problems* problems) = 0;

 protected:
  Random OpRng(const Op& op) const { return Random(Mix(~seed_, op.index)); }

  uint64_t seed_;
  std::vector<std::string> types_;
};

/// Index space of the untimed warm-up operations, disjoint from the timed
/// sequence (which starts at 0).
constexpr uint64_t kWarmupBase = uint64_t{1} << 62;

std::string DateLit(int64_t day) { return "DATE " + std::to_string(day); }

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Columns of `spec`'s scan as the engine runs it, read back from the
/// compiled program (the engine's own column pruning and prune predicate).
double DecodeScan(const compile::DflowProgram& program, const Op& op,
                  uint64_t parent, Tracer* tracer, Problems* problems) {
  return tracer->Time("storage.decode", op, parent, [&] {
    Result<TableScanSource> scan = TableScanSource::Make(
        program.table(), program.scan_columns(), program.filter());
    if (!scan.ok() || !scan.ValueOrDie().Produce().ok()) {
      problems->Report("probe decode failed");
    }
  });
}

/// Per-layer samples of one real-thread call. The 1-worker run only feeds
/// the 1->4 scaling ratio.
void SampleParallel(Tracer* tracer, size_t type, uint32_t workers,
                    double call_ms, const parallel::ParallelExecStats& stats) {
  const double region_ms = static_cast<double>(stats.wall_ns) / 1e6;
  if (workers == 1) {
    tracer->Sample("parallel.region_w1_ms", type, region_ms);
    return;
  }
  tracer->Sample("parallel.region_ms", type, region_ms);
  tracer->Sample("parallel.serial_ms", type, call_ms - region_ms);
  tracer->Sample("parallel.morsels", type, static_cast<double>(stats.morsels));
  tracer->Sample("parallel.steals", type, static_cast<double>(stats.steals));
  tracer->Sample("parallel.queue_items", type,
                 static_cast<double>(stats.queue_items));
}

/// Which real-thread runs a probe adds: both worker counts, or only the
/// 1-worker baseline when the operation itself already ran on 4 workers.
enum class ParallelProbe { kBoth, kOneWorker };

/// The layer probe of one single-table query on `engine`: planning,
/// compilation, decode, verification, simulation, reporting and the
/// real-thread backend, each as its own public call under its own span.
/// Records the per-layer samples.
void ProbeQuery(Engine& engine, const QuerySpec& spec, const Op& op,
                ParallelProbe parallel, Tracer* tracer, Problems* problems) {
  const Clock::time_point start = Clock::now();
  const uint64_t root = tracer->Open();
  const size_t t = op.type;
  auto fail = [&](const std::string& what, const Status& status) {
    problems->Report("probe " + what + ": " + status.ToString());
    tracer->Close("probe", op, root, start);
  };

  uint64_t fingerprint = 0;
  const double fingerprint_ms = tracer->Time(
      "plan.fingerprint", op, root,
      [&] { fingerprint = FingerprintQuerySpec(spec); });

  Result<std::vector<RankedPlacement>> variants =
      Status::Internal("not run");
  const double variants_ms = tracer->Time(
      "opt.plan_variants", op, root,
      [&] { variants = engine.PlanVariants(spec); });
  if (!variants.ok()) return fail("PlanVariants", variants.status());
  const Placement placement = variants.ValueOrDie().front().placement;

  Result<std::shared_ptr<compile::CompiledQuery>> plan =
      Status::Internal("not run");
  const double compile_plan_ms = tracer->Time(
      "compile.compile_plan", op, root,
      [&] { plan = engine.CompilePlan(spec); });
  if (!plan.ok()) return fail("CompilePlan", plan.status());
  Result<compile::ProgramPtr> program = Status::Internal("not run");
  const double compile_variant_ms =
      tracer->Time("compile.compile_variant", op, root, [&] {
        program = engine.CompileVariant(plan.ValueOrDie().get(), placement);
      });
  if (!program.ok()) return fail("CompileVariant", program.status());
  const compile::DflowProgram& prog = *program.ValueOrDie();

  const double decode_ms = DecodeScan(prog, op, root, tracer, problems);

  Result<verify::VerifyReport> verified = Status::Internal("not run");
  const double verify_ms = tracer->Time(
      "verify.verify", op, root,
      [&] { verified = engine.Verify(spec, placement); });
  if (!verified.ok()) return fail("Verify", verified.status());

  ExecOptions no_verify;
  no_verify.verify = verify::VerifyMode::kOff;
  Result<QueryResult> simulated = Status::Internal("not run");
  const double sim_ms = tracer->Time("sim.execute", op, root, [&] {
    simulated = engine.ExecuteWithPlacement(spec, placement, no_verify);
  });
  if (!simulated.ok()) return fail("ExecuteWithPlacement", simulated.status());
  const uint64_t events = engine.fabric().simulator().events_processed();

  Result<QueryResult> from_program = Status::Internal("not run");
  const double execute_program_ms = tracer->Time(
      "compile.execute_program", op, root,
      [&] { from_program = engine.ExecuteProgram(prog); });
  if (!from_program.ok()) {
    return fail("ExecuteProgram", from_program.status());
  }

  const ExecutionReport& report = simulated.ValueOrDie().report;
  std::string json;
  const double json_ms = tracer->Time(
      "trace.report_json", op, root,
      [&] { json = trace::ExecutionReportToJson(report); });

  // A warm admission: what a program-cache hit costs instead of the
  // CompilePlan + CompileVariant pair above.
  compile::ProgramCache cache;
  const compile::CacheKey key{fingerprint, engine.fabric_epoch(0),
                              verify::kVerifierVersion, 0};
  cache.Insert(key, plan.ValueOrDie());
  compile::ProgramPtr hit;
  const double warm_ms = tracer->Time("compile.warm_admission", op, root, [&] {
    compile::CacheKey lookup = key;
    lookup.plan_fingerprint = FingerprintQuerySpec(spec);
    std::shared_ptr<compile::CompiledQuery> entry = cache.Lookup(lookup);
    if (entry != nullptr) hit = entry->ProgramFor(placement.name);
  });
  if (hit == nullptr) problems->Report("probe warm admission missed");

  tracer->Sample("plan.fingerprint_us", t, fingerprint_ms * 1e3);
  tracer->Sample("opt.plan_variants_ms", t, variants_ms);
  tracer->Sample("opt.variants", t,
                 static_cast<double>(variants.ValueOrDie().size()));
  tracer->Sample("compile.compile_plan_ms", t, compile_plan_ms);
  tracer->Sample("compile.compile_variant_ms", t, compile_variant_ms);
  tracer->Sample("compile.execute_program_ms", t, execute_program_ms);
  tracer->Sample("compile.ops", t, static_cast<double>(prog.ops().size()));
  tracer->Sample("compile.fused_groups", t,
                 static_cast<double>(prog.fused_groups().size()));
  const double cold_us = (compile_plan_ms + compile_variant_ms) * 1e3;
  tracer->Sample("compile.cold_admission_us", t, cold_us);
  tracer->Sample("compile.warm_admission_us", t, warm_ms * 1e3);
  tracer->Sample("compile.cold_warm_ratio", t, cold_us / (warm_ms * 1e3));
  tracer->Sample("storage.decode_ms", t, decode_ms);
  tracer->Sample("storage.net_mb", t,
                 static_cast<double>(report.network_bytes) / kMiB);
  // The whole Verify call, scan decode included: verification's own work
  // beyond that decode is too small to tell from timing noise.
  tracer->Sample("verify.verify_ms", t, verify_ms);
  // ExecuteWithPlacement decodes the scan once more; the simulation's own
  // cost is the call minus that decode.
  const double sim_own_ms = sim_ms - decode_ms;
  tracer->Sample("sim.execute_ms", t, sim_own_ms);
  tracer->Sample("sim.events", t, static_cast<double>(events));
  if (sim_own_ms > 0) {
    tracer->Sample("sim.events_per_s", t,
                   static_cast<double>(events) / (sim_own_ms / 1e3));
  }
  tracer->Sample("sim.query_ms", t, static_cast<double>(report.sim_ns) / 1e6);
  tracer->Sample("trace.report_json_us", t, json_ms * 1e3);

  std::vector<uint32_t> worker_counts = {1};
  if (parallel == ParallelProbe::kBoth) {
    worker_counts.insert(worker_counts.begin(), kParallelWorkers);
  }
  for (const uint32_t workers : worker_counts) {
    ExecOptions options;
    options.mode = ExecMode::kParallel;
    options.parallel_workers = workers;
    Result<QueryResult> run = Status::Internal("not run");
    const double call_ms = tracer->Time(
        workers == 1 ? "parallel.execute_w1" : "parallel.execute", op, root,
        [&] { run = engine.Execute(spec, options); });
    if (!run.ok()) return fail("Execute(kParallel)", run.status());
    SampleParallel(tracer, t, workers, call_ms, run.ValueOrDie().parallel);
  }
  tracer->Close("probe", op, root, start);
}

Result<QuerySpec> TimedParse(const std::string& sql, const Op& op,
                             uint64_t parent, Tracer* tracer) {
  Result<QuerySpec> spec = Status::Internal("not run");
  const double ms =
      tracer->Time("plan.parse", op, parent, [&] { spec = ParseQuery(sql); });
  tracer->Sample("plan.parse_us", op.type, ms * 1e3);
  return spec;
}

std::string Fingerprint(const std::vector<DataChunk>& chunks) {
  return testing::CanonicalizeChunks(chunks).fingerprint;
}

// ------------------------------------------------------------- sql-adhoc --
/// One client types ad-hoc SQL: every text is new, so parsing, placement
/// enumeration, verification, scan decode and simulation all run for every
/// query, with no cache to hide them. The path of examples/sql_shell.
class SqlAdhoc : public Workload {
 public:
  explicit SqlAdhoc(uint64_t seed)
      : Workload(seed, {"scan_agg", "group_agg", "topk"}) {}

  Status Setup() override {
    engine_ = std::make_unique<Engine>();
    LineitemSpec lineitem;
    lineitem.rows = kSqlRows;
    DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           MakeLineitemTable(lineitem));
    DFLOW_RETURN_NOT_OK(engine_->catalog().Register(table));
    Tracer untraced(types());
    for (size_t t = 0; t < types().size(); ++t) {
      DFLOW_RETURN_NOT_OK(Run({kWarmupBase + t, t}, &untraced).status());
    }
    kept_.clear();
    return Status::OK();
  }

  std::string Sql(const Op& op) const {
    Random rng = OpRng(op);
    switch (op.type) {
      case 0: {
        const int64_t lo = rng.NextInt64(kShipdateLo, kShipdateHi - 400);
        const double discount =
            static_cast<double>(rng.NextInt64(2, 8)) / 100.0;
        return "SELECT SUM(l_quantity) AS qty, MAX(l_extendedprice) AS "
               "max_price, COUNT(*) AS n FROM lineitem WHERE l_shipdate >= " +
               DateLit(lo) + " AND l_shipdate < " + DateLit(lo + 365) +
               " AND l_discount BETWEEN " + Fixed2(discount - 0.01) +
               " AND " + Fixed2(discount + 0.01) + " AND l_quantity < " +
               std::to_string(rng.NextInt64(20, 30));
      }
      case 1:
        return "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS "
               "sum_qty, SUM(l_suppkey) AS sum_supp, MIN(l_extendedprice) "
               "AS min_price, COUNT(*) AS n FROM lineitem WHERE l_shipdate "
               "<= " +
               DateLit(rng.NextInt64(kShipdateHi - 400, kShipdateHi)) +
               " GROUP BY l_returnflag, l_linestatus";
      default:
        return "SELECT l_orderkey, l_extendedprice, l_shipdate FROM "
               "lineitem WHERE l_comment LIKE '%special%' AND l_shipdate >= " +
               DateLit(rng.NextInt64(kShipdateLo, kShipdateLo + 900)) +
               " ORDER BY l_extendedprice DESC LIMIT 10";
    }
  }

  Result<Tally> Run(const Op& op, Tracer* tracer) override {
    const Clock::time_point start = Clock::now();
    const uint64_t root = tracer->Open();
    DFLOW_ASSIGN_OR_RETURN(last_spec_, TimedParse(Sql(op), op, root, tracer));
    Result<QueryResult> result = Status::Internal("not run");
    tracer->Time("engine.execute", op, root,
                 [&] { result = engine_->Execute(last_spec_); });
    tracer->Close("op." + types()[op.type], op, root, start);
    if (!result.ok()) return result.status();
    QueryResult& r = result.ValueOrDie();
    tracer->Sample("sim.latency_ms", op.type,
                   static_cast<double>(r.report.sim_ns) / 1e6);
    if (op.index % kSqlCheckEvery == 0 && op.index < kWarmupBase) {
      kept_.push_back({last_spec_, std::move(r.chunks)});
    }
    return Tally{};
  }

  void Probe(const Op& op, Tracer* tracer) override {
    ProbeQuery(*engine_, last_spec_, op, ParallelProbe::kBoth, tracer,
               &probe_problems_);
  }

  void Check(Problems* problems) override {
    problems->count += probe_problems_.count;
    const size_t n = kept_.size();
    const size_t checks = std::min(n, kSqlMaxChecks);
    for (size_t c = 0; c < checks; ++c) {
      const Kept& k = kept_[c * n / checks];
      Result<VolcanoRunResult> reference =
          engine_->ExecuteOnVolcano(k.spec, /*pool_pages=*/64);
      if (!reference.ok()) {
        problems->Report("Volcano: " + reference.status().ToString());
        continue;
      }
      if (Fingerprint(k.chunks) !=
          testing::CanonicalizeVolcanoRows(reference.ValueOrDie().rows)
              .fingerprint) {
        problems->Report("sql-adhoc result differs from Volcano");
      }
    }
    std::fprintf(stderr, "e2e: sql-adhoc checked %zu results against Volcano\n",
                 checks);
  }

 private:
  struct Kept {
    QuerySpec spec;
    std::vector<DataChunk> chunks;
  };

  std::unique_ptr<Engine> engine_;
  QuerySpec last_spec_;
  std::vector<Kept> kept_;
  Problems probe_problems_;
};

// --------------------------------------------------------- parallel-olap --
/// The real-thread backend: a tiny-state aggregation alternating with a
/// build-heavy partitioned join, both on the morsel-driven executor with
/// its default 4 workers. No simulator or placement on the timed path.
class ParallelOlap : public Workload {
 public:
  explicit ParallelOlap(uint64_t seed)
      : Workload(seed, {"scan_agg", "join"}) {}

  Status Setup() override {
    // The simulated reference join spreads over as many compute nodes as
    // the parallel join has hash partitions.
    sim::FabricConfig config;
    config.num_compute_nodes = kParallelWorkers;
    engine_ = std::make_unique<Engine>(config);
    LineitemSpec lineitem;
    lineitem.rows = kParallelRows;
    lineitem.num_orders = kParallelOrders;
    OrdersSpec orders;
    orders.rows = kParallelOrders;
    DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> l,
                           MakeLineitemTable(lineitem));
    DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> o, MakeOrdersTable(orders));
    DFLOW_RETURN_NOT_OK(engine_->catalog().Register(l));
    DFLOW_RETURN_NOT_OK(engine_->catalog().Register(o));
    join_.build_table = "orders";
    join_.probe_table = "lineitem";
    join_.build_key = "o_orderkey";
    join_.probe_key = "l_orderkey";
    join_.num_nodes = kParallelWorkers;

    // References: the same queries in the (default) simulated mode.
    Random rng(Mix(seed_, 0x5ca1ab1e));
    sql_.clear();
    reference_.clear();
    for (size_t v = 0; v < kReferenceVariants; ++v) {
      // Q6-like date-range aggregate selecting about half the rows.
      const int64_t cut =
          kShipdateLo + (kShipdateHi - kShipdateLo) / 2 + rng.NextInt64(-60, 60);
      sql_.push_back(
          "SELECT SUM(l_quantity) AS qty, MAX(l_extendedprice) AS max_price, "
          "COUNT(*) AS n FROM lineitem WHERE l_shipdate < " +
          DateLit(cut) + " AND l_discount >= " +
          Fixed2(static_cast<double>(rng.NextInt64(0, 2)) / 100.0));
      DFLOW_ASSIGN_OR_RETURN(QuerySpec spec, ParseQuery(sql_.back()));
      DFLOW_ASSIGN_OR_RETURN(QueryResult r, engine_->Execute(spec));
      reference_.push_back(Fingerprint(r.chunks));
    }
    DFLOW_ASSIGN_OR_RETURN(JoinRunResult j,
                           engine_->ExecutePartitionedJoin(join_));
    join_reference_ = j.total_rows;

    Tracer untraced(types());
    for (size_t t = 0; t < types().size(); ++t) {
      DFLOW_RETURN_NOT_OK(Run({kWarmupBase + t, t}, &untraced).status());
    }
    results_.clear();
    join_counts_.clear();
    return Status::OK();
  }

  ExecOptions Options(uint32_t workers) const {
    ExecOptions options;
    options.mode = ExecMode::kParallel;
    options.parallel_workers = workers;
    return options;
  }

  Result<Tally> Run(const Op& op, Tracer* tracer) override {
    const Clock::time_point start = Clock::now();
    const uint64_t root = tracer->Open();
    double call_ms = 0.0;
    parallel::ParallelExecStats stats;
    if (op.type == 0) {
      last_variant_ = OpRng(op).NextUint64(kReferenceVariants);
      DFLOW_ASSIGN_OR_RETURN(
          last_spec_, TimedParse(sql_[last_variant_], op, root, tracer));
      Result<QueryResult> result = Status::Internal("not run");
      call_ms = tracer->Time("engine.execute", op, root, [&] {
        result = engine_->Execute(last_spec_, Options(kParallelWorkers));
      });
      tracer->Close("op.scan_agg", op, root, start);
      if (!result.ok()) return result.status();
      stats = result.ValueOrDie().parallel;
      if (op.index < kWarmupBase) {
        results_.push_back(
            {last_variant_, std::move(result.ValueOrDie().chunks)});
      }
    } else {
      Result<JoinRunResult> result = Status::Internal("not run");
      call_ms = tracer->Time("engine.partitioned_join", op, root, [&] {
        result =
            engine_->ExecutePartitionedJoin(join_, Options(kParallelWorkers));
      });
      tracer->Close("op.join", op, root, start);
      if (!result.ok()) return result.status();
      stats = result.ValueOrDie().parallel;
      if (op.index < kWarmupBase) {
        join_counts_.push_back(result.ValueOrDie().total_rows);
      }
    }
    SampleParallel(tracer, op.type, kParallelWorkers, call_ms, stats);
    return Tally{};
  }

  void Probe(const Op& op, Tracer* tracer) override {
    if (op.type == 0) {
      // The simulated path's layers on the same query (the setup
      // reference path), plus the 1-worker baseline.
      ProbeQuery(*engine_, last_spec_, op, ParallelProbe::kOneWorker, tracer,
                 &probe_problems_);
      return;
    }
    const Clock::time_point start = Clock::now();
    const uint64_t root = tracer->Open();
    // The serial prefix of the join: both inputs decoded in full.
    const double decode_ms = tracer->Time("storage.decode", op, root, [&] {
      for (const std::string& name : {join_.build_table, join_.probe_table}) {
        Result<std::shared_ptr<Table>> table = engine_->catalog().Lookup(name);
        Result<TableScanSource> scan =
            table.ok() ? TableScanSource::Make(table.ValueOrDie(), {}, nullptr)
                       : Result<TableScanSource>(table.status());
        if (!scan.ok() || !scan.ValueOrDie().Produce().ok()) {
          probe_problems_.Report("join decode failed");
        }
      }
    });
    tracer->Sample("storage.decode_ms", op.type, decode_ms);
    Result<JoinRunResult> w1 = Status::Internal("not run");
    const double call_ms = tracer->Time("parallel.execute_w1", op, root, [&] {
      w1 = engine_->ExecutePartitionedJoin(join_, Options(1));
    });
    tracer->Close("probe", op, root, start);
    if (!w1.ok()) return probe_problems_.Report(w1.status().ToString());
    SampleParallel(tracer, op.type, 1, call_ms, w1.ValueOrDie().parallel);
  }

  void Check(Problems* problems) override {
    problems->count += probe_problems_.count;
    for (const auto& [variant, chunks] : results_) {
      if (Fingerprint(chunks) != reference_[variant]) {
        problems->Report("parallel scan_agg differs from simulated mode");
      }
    }
    for (int64_t rows : join_counts_) {
      if (rows != join_reference_) {
        problems->Report("parallel join count " + std::to_string(rows) +
                         " != simulated " + std::to_string(join_reference_));
      }
    }
  }

 private:
  std::unique_ptr<Engine> engine_;
  JoinSpec join_;
  std::vector<std::string> sql_;
  std::vector<std::string> reference_;
  int64_t join_reference_ = 0;
  QuerySpec last_spec_;
  size_t last_variant_ = 0;
  std::vector<std::pair<size_t, std::vector<DataChunk>>> results_;
  std::vector<int64_t> join_counts_;
  Problems probe_problems_;
};

// ----------------------------------------------------------- cluster-mpp --
/// Queries per host-second on a 4-node cluster: a shuffle join whose key
/// defeats co-partitioning, alternating with a distributed Q1 group-by.
/// The router runs one engine call per node fragment, so per-call engine
/// overhead shows multiplied.
class ClusterMpp : public Workload {
 public:
  explicit ClusterMpp(uint64_t seed)
      : Workload(seed, {"join", "group_agg"}) {}

  Status Setup() override {
    const Clock::time_point setup_start = Clock::now();
    cluster::ClusterConfig config;
    config.num_nodes = kClusterNodes;
    config.xlink_gbps = 100.0;
    config.xlink_latency_ns = 1'000;
    cluster_ = std::make_unique<cluster::Cluster>(config);
    LineitemSpec lineitem;
    lineitem.rows = kClusterRows;
    lineitem.num_parts = kClusterParts;
    KvSpec parts;
    parts.rows = kClusterParts;
    parts.key_space = kClusterParts;
    DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> l,
                           MakeLineitemTable(lineitem));
    DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> kv, MakeKvTable(parts));
    const Clock::time_point shard_start = Clock::now();
    DFLOW_RETURN_NOT_OK(cluster_->RegisterSharded(l));
    DFLOW_RETURN_NOT_OK(cluster_->RegisterSharded(kv));
    const double shard_ms = MsSince(shard_start);
    cluster::RouterOptions options;
    options.verify = verify::VerifyMode::kStrict;
    router_ = std::make_unique<cluster::QueryRouter>(cluster_.get(), options);
    join_.build_table = "kv";
    join_.probe_table = "lineitem";
    join_.build_key = "k";
    join_.probe_key = "l_partkey";

    // References: one engine over the unsharded tables (two compute nodes,
    // the default JoinSpec's partition count).
    sim::FabricConfig single_config;
    single_config.num_compute_nodes = join_.num_nodes;
    Engine single(single_config);
    DFLOW_RETURN_NOT_OK(single.catalog().Register(l));
    DFLOW_RETURN_NOT_OK(single.catalog().Register(kv));
    DFLOW_ASSIGN_OR_RETURN(JoinRunResult j, single.ExecutePartitionedJoin(join_));
    join_reference_ = j.total_rows;
    Random rng(Mix(seed_, 0xc1a55));
    sql_.clear();
    reference_.clear();
    for (size_t v = 0; v < kReferenceVariants; ++v) {
      sql_.push_back(
          "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
          "SUM(l_suppkey) AS sum_supp, MAX(l_extendedprice) AS max_price, "
          "COUNT(*) AS n FROM lineitem WHERE l_shipdate <= " +
          DateLit(rng.NextInt64(kShipdateHi - 400, kShipdateHi)) +
          " GROUP BY l_returnflag, l_linestatus");
      DFLOW_ASSIGN_OR_RETURN(QuerySpec spec, ParseQuery(sql_.back()));
      DFLOW_ASSIGN_OR_RETURN(QueryResult r, single.Execute(spec));
      reference_.push_back(Fingerprint(r.chunks));
    }

    Tracer untraced(types());
    for (size_t t = 0; t < types().size(); ++t) {
      DFLOW_RETURN_NOT_OK(Run({kWarmupBase + t, t}, &untraced).status());
    }
    joins_.clear();
    groups_.clear();
    shard_pct_ = 100.0 * shard_ms / MsSince(setup_start);
    return Status::OK();
  }

  void AddMetrics(Metrics* metrics) const override {
    (*metrics)["cluster.shard_pct"] = shard_pct_;
  }

  Result<Tally> Run(const Op& op, Tracer* tracer) override {
    const Clock::time_point start = Clock::now();
    const uint64_t root = tracer->Open();
    Result<cluster::DistributedResult> result = Status::Internal("not run");
    if (op.type == 0) {
      last_call_ms_ = tracer->Time("cluster.execute_join", op, root, [&] {
        cluster_->ResetLinks();
        result = router_->ExecuteJoin(join_);
      });
    } else {
      last_variant_ = OpRng(op).NextUint64(kReferenceVariants);
      DFLOW_ASSIGN_OR_RETURN(
          last_spec_, TimedParse(sql_[last_variant_], op, root, tracer));
      last_call_ms_ = tracer->Time("cluster.execute_query", op, root, [&] {
        cluster_->ResetLinks();
        result = router_->ExecuteQuery(last_spec_);
      });
    }
    tracer->Close("op." + types()[op.type], op, root, start);
    if (!result.ok()) return result.status();
    cluster::DistributedResult& r = result.ValueOrDie();
    if (r.outcome != "DONE") {
      return Status::Internal("distributed query outcome " + r.outcome);
    }
    tracer->Sample("sim.latency_ms", op.type,
                   static_cast<double>(r.makespan_ns) / 1e6);
    tracer->Sample("cluster.exchange_mb", op.type,
                   static_cast<double>(r.exchange.bytes) / kMiB);
    tracer->Sample("cluster.frames", op.type,
                   static_cast<double>(r.exchange.frames));
    tracer->Sample("cluster.retransmits", op.type,
                   static_cast<double>(r.exchange.retransmits));
    tracer->Sample("cluster.straggler_events", op.type,
                   static_cast<double>(r.straggler_events));
    if (op.index < kWarmupBase) {
      if (op.type == 0) {
        joins_.push_back(r.total_rows);
      } else {
        groups_.push_back({last_variant_, std::move(r.chunks)});
      }
    }
    return Tally{};
  }

  void Probe(const Op& op, Tracer* tracer) override {
    if (op.type != 1) return;
    // The router's Phase A fragment, re-run per node as the router runs
    // it: PlanVariants (which costs the fragment for the node's ledger),
    // then Execute, on the scan/filter part of the query without
    // aggregation, ordering or limit.
    QuerySpec local = last_spec_;
    local.order_by.reset();
    local.limit = 0;
    local.aggregates.clear();
    local.group_by.clear();
    const Clock::time_point start = Clock::now();
    const uint64_t root = tracer->Open();
    double plan_ms = 0.0;
    double execute_ms = 0.0;
    for (int i = 0; i < cluster_->num_nodes(); ++i) {
      Engine& node = cluster_->node(i);
      Result<std::vector<RankedPlacement>> variants =
          Status::Internal("not run");
      plan_ms += tracer->Time("cluster.fragment_plan", op, root,
                              [&] { variants = node.PlanVariants(local); });
      Result<QueryResult> r = Status::Internal("not run");
      execute_ms += tracer->Time("cluster.fragment_execute", op, root,
                                 [&] { r = node.Execute(local); });
      if (!variants.ok()) probe_problems_.Report(variants.status().ToString());
      if (!r.ok()) probe_problems_.Report(r.status().ToString());
    }
    tracer->Close("probe", op, root, start);
    tracer->Sample("cluster.fragment_plan_pct", op.type,
                   100.0 * plan_ms / last_call_ms_);
    tracer->Sample("cluster.fragment_execute_pct", op.type,
                   100.0 * execute_ms / last_call_ms_);
    ProbeQuery(cluster_->node(0), local, op, ParallelProbe::kBoth, tracer,
               &probe_problems_);
  }

  void Check(Problems* problems) override {
    problems->count += probe_problems_.count;
    for (int64_t rows : joins_) {
      if (rows != join_reference_) {
        problems->Report("cluster join count " + std::to_string(rows) +
                         " != single-node " + std::to_string(join_reference_));
      }
    }
    for (const auto& [variant, chunks] : groups_) {
      if (Fingerprint(chunks) != reference_[variant]) {
        problems->Report("cluster group_agg differs from single node");
      }
    }
  }

 private:
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::QueryRouter> router_;
  JoinSpec join_;
  int64_t join_reference_ = 0;
  std::vector<std::string> sql_;
  std::vector<std::string> reference_;
  double shard_pct_ = 0.0;
  QuerySpec last_spec_;
  size_t last_variant_ = 0;
  double last_call_ms_ = 0.0;
  std::vector<int64_t> joins_;
  std::vector<std::pair<size_t, std::vector<DataChunk>>> groups_;
  Problems probe_problems_;
};

// ---------------------------------------------------------- serve-repeat --
/// The compile-once warm path: the repeat-heavy two-tenant mix of
/// bench_plan_cache served by ServiceLoop with its default 64-entry program
/// cache. One operation is one ServiceLoop::Run with its own seeded arrival
/// stream and literals. A loop owns its cache, so each run's three plans
/// miss once each, and a cached plan is lowered again for each further
/// placement the scheduler picks; the other admissions (about 96%) hit. The
/// operation's latency is its host time per completed query.
class ServeRepeat : public Workload {
 public:
  explicit ServeRepeat(uint64_t seed) : Workload(seed, {"service_run"}) {}

  Status Setup() override {
    sim::FabricConfig config;
    config.store_media_gbps = 32.0;
    config.store_request_latency_ns = 20'000;
    config.storage_proc_gbps = 10.0;
    config.cpu_scale = 2.0;
    engine_ = std::make_unique<Engine>(config);
    LineitemSpec lineitem;
    lineitem.rows = kServeRows;
    DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> l,
                           MakeLineitemTable(lineitem));
    DFLOW_RETURN_NOT_OK(engine_->catalog().Register(l));
    // A short service run puts lazy state in place; a full operation
    // would make set-up time mostly simulation.
    Tracer untraced(types());
    const Op warmup{kWarmupBase, 0};
    DFLOW_ASSIGN_OR_RETURN(std::vector<serve::TenantConfig> tenants,
                           Tenants(warmup, 0, &untraced));
    serve::ServiceConfig service = Config(warmup, 64);
    service.horizon_ns = kServeHorizonNs / 10;
    serve::ServiceLoop loop(engine_.get(), tenants, service);
    return loop.Run().status();
  }

  /// The three templates of `op`'s run, seeded literals.
  std::vector<std::string> Sql(const Op& op) const {
    Random rng = OpRng(op);
    const int64_t span = kShipdateHi - kShipdateLo;
    const int64_t q6 = kShipdateLo + span / 20 + rng.NextInt64(-20, 20);
    const int64_t count = kShipdateLo + span / 10 + rng.NextInt64(-20, 20);
    const int64_t q1 = kShipdateHi - rng.NextInt64(0, 200);
    return {"SELECT SUM(l_quantity) AS qty, COUNT(*) AS n FROM lineitem "
            "WHERE l_shipdate < " +
                DateLit(q6),
            "SELECT COUNT(*) FROM lineitem WHERE l_shipdate < " +
                DateLit(count),
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
            "COUNT(*) AS n FROM lineitem WHERE l_shipdate <= " +
                DateLit(q1) + " GROUP BY l_returnflag, l_linestatus"};
  }

  Result<std::vector<serve::TenantConfig>> Tenants(const Op& op,
                                                   uint64_t parent,
                                                   Tracer* tracer) {
    std::vector<QuerySpec> specs;
    for (const std::string& sql : Sql(op)) {
      DFLOW_ASSIGN_OR_RETURN(QuerySpec spec, TimedParse(sql, op, parent, tracer));
      specs.push_back(std::move(spec));
    }
    serve::TenantConfig interactive;
    interactive.name = "interactive";
    interactive.priority = 0;
    interactive.queue_capacity = 4;
    interactive.arrival_probability = 0.5;
    interactive.templates = {{specs[0], "q6", 8}, {specs[1], "count", 1}};
    serve::TenantConfig batch;
    batch.name = "batch";
    batch.priority = 1;
    batch.queue_capacity = 2;
    batch.closed_loop_clients = 2;
    batch.think_time_ns = 2'000'000;
    batch.templates = {{specs[2], "q1", 1}};
    last_templates_ = std::move(specs);
    return std::vector<serve::TenantConfig>{interactive, batch};
  }

  serve::ServiceConfig Config(const Op& op, size_t cache_capacity) const {
    serve::ServiceConfig config;
    config.seed = Mix(seed_, op.index);
    config.horizon_ns = kServeHorizonNs;
    config.admission.global_max_in_flight = 3;
    config.admission.global_queue_capacity = 6;
    config.program_cache_capacity = cache_capacity;
    return config;
  }

  Result<Tally> Run(const Op& op, Tracer* tracer) override {
    const Clock::time_point start = Clock::now();
    const uint64_t root = tracer->Open();
    DFLOW_ASSIGN_OR_RETURN(std::vector<serve::TenantConfig> tenants,
                           Tenants(op, root, tracer));
    Result<serve::ServiceResult> result = Status::Internal("not run");
    const double run_ms = tracer->Time("serve.run", op, root, [&] {
      serve::ServiceLoop loop(engine_.get(), tenants, Config(op, 64));
      result = loop.Run();
    });
    tracer->Close("op.service_run", op, root, start);
    if (!result.ok()) return result.status();
    const serve::ServiceReport& r = result.ValueOrDie().service;
    if (op.index == 0) first_report_ = trace::ServiceReportToJson(r);
    // ServiceLoop::Run resets the fabric, so the count is this run's.
    tracer->Sample(
        "sim.service_events_per_s", op.type,
        static_cast<double>(engine_->fabric().simulator().events_processed()) /
            (run_ms / 1e3));
    tracer->Sample("sim.latency_ms", op.type,
                   static_cast<double>(r.p99_ns) / 1e6);
    cache_hits_ += r.cache_hits;
    cache_misses_ += r.cache_misses;
    cache_recompiles_ += r.cache_recompiles;
    admitted_ += r.admitted_total;
    completed_ += r.completed_total;
    shed_ += r.shed_total;
    Tally tally;
    tally.queries = r.arrivals_total;
    tally.failed = r.arrivals_total - r.completed_total;
    return tally;
  }

  void Probe(const Op& op, Tracer* tracer) override {
    // One of the run's templates, rotating.
    const QuerySpec spec = last_templates_[(op.index / kProbeEvery) % 3];
    ProbeQuery(*engine_, spec, op, ParallelProbe::kBoth, tracer,
               &probe_problems_);
  }

  void ProbeOnce(Tracer* tracer) override {
    // Whole-admission host cost, cold vs warm: the same run served through
    // a one-slot cache (three interleaved plans evict each other, so nearly
    // every admission compiles) and through the default cache. Pairs
    // alternate and the median ratio is kept: the difference is a few tens
    // of percent, and host drift between two single runs is as large.
    const Op op{0, 0};
    const size_t capacities[2] = {1, 64};
    Tracer untraced(types());
    Result<std::vector<serve::TenantConfig>> tenants =
        Tenants(op, 0, &untraced);
    if (!tenants.ok()) return probe_problems_.Report("serve probe parse");
    std::vector<double> ratios;
    for (int pair = 0; pair < kColdWarmPairs; ++pair) {
      double per_admission_us[2] = {0.0, 0.0};
      for (int k = 0; k < 2; ++k) {
        serve::ServiceConfig config = Config(op, capacities[k]);
        config.horizon_ns = kColdWarmHorizonNs;
        Result<serve::ServiceResult> result = Status::Internal("not run");
        const double ms = tracer->Time(
            k == 0 ? "serve.run_cold_cache" : "serve.run_warm_cache", op, 0,
            [&] {
              serve::ServiceLoop loop(engine_.get(), tenants.ValueOrDie(),
                                      config);
              result = loop.Run();
            });
        if (!result.ok()) {
          return probe_problems_.Report(result.status().ToString());
        }
        per_admission_us[k] =
            ms * 1e3 / static_cast<double>(std::max<uint64_t>(
                           result.ValueOrDie().service.admitted_total, 1));
      }
      ratios.push_back(per_admission_us[0] / per_admission_us[1]);
    }
    cold_warm_ratio_ = Median(ratios);
  }

  void Check(Problems* problems) override {
    problems->count += probe_problems_.count;
    // Same seed, same service: the first timed run again must report
    // byte-identical counters.
    Tracer untraced(types());
    Result<std::vector<serve::TenantConfig>> tenants =
        Tenants({0, 0}, 0, &untraced);
    if (!tenants.ok()) return problems->Report("serve rerun parse");
    serve::ServiceLoop loop(engine_.get(), tenants.ValueOrDie(),
                            Config({0, 0}, 64));
    Result<serve::ServiceResult> again = loop.Run();
    if (!again.ok()) return problems->Report(again.status().ToString());
    if (trace::ServiceReportToJson(again.ValueOrDie().service) !=
        first_report_) {
      problems->Report("serve-repeat rerun of one seed is not identical");
    }
  }

  void AddMetrics(Metrics* metrics) const override {
    const double hits = static_cast<double>(cache_hits_);
    const double misses = static_cast<double>(cache_misses_);
    const double recompiles = static_cast<double>(cache_recompiles_);
    (*metrics)["compile.cache_hits"] = hits;
    (*metrics)["compile.cache_misses"] = misses;
    (*metrics)["compile.cache_recompiles"] = recompiles;
    // Share of admissions served a program already lowered: a recompile
    // (a cached plan lowered for another placement) is not a hit.
    (*metrics)["compile.cache_hit_ratio"] = hits / (hits + misses + recompiles);
    (*metrics)["serve.admitted"] = static_cast<double>(admitted_);
    (*metrics)["serve.completed"] = static_cast<double>(completed_);
    (*metrics)["serve.shed"] = static_cast<double>(shed_);
    (*metrics)["serve.cold_warm_ratio"] = cold_warm_ratio_;
  }

 private:
  std::unique_ptr<Engine> engine_;
  std::vector<QuerySpec> last_templates_;
  std::string first_report_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_recompiles_ = 0;
  uint64_t admitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t shed_ = 0;
  double cold_warm_ratio_ = 0.0;
  Problems probe_problems_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "sql-adhoc") return std::make_unique<SqlAdhoc>(seed);
  if (name == "parallel-olap") return std::make_unique<ParallelOlap>(seed);
  if (name == "cluster-mpp") return std::make_unique<ClusterMpp>(seed);
  if (name == "serve-repeat") return std::make_unique<ServeRepeat>(seed);
  return nullptr;
}

// ------------------------------------------------------------------ main --
/// Every flag but --spans is required.
struct Args {
  std::string workload;
  std::string seed;
  double seconds = 0.0;
  std::string trace;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return false;
    a = a.substr(2);
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      return false;
    }
  }
  for (const auto& [key, value] : kv) {
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = value;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = value;
    } else if (key == "spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->seed.empty() &&
         args->seconds > 0 && (args->trace == "0" || args->trace == "1");
}

struct Phase {
  uint64_t ops = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;
  /// Host latency per completed query of each operation, by type: the
  /// operation's time, or a serving run's time over its completed queries.
  TypedSamples latency;
  /// Completed queries per host second.
  double qps() const {
    return static_cast<double>(queries - failed) / elapsed_s;
  }
};

/// Issues operations back to back until `seconds` have passed.
Phase RunPhase(Workload* workload, Tracer* tracer, double seconds,
               uint64_t* next_index) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  while (MsSince(start) < seconds * 1e3) {
    const Op op = workload->MakeOp((*next_index)++);
    const Clock::time_point op_start = Clock::now();
    Result<Tally> tally = workload->Run(op, tracer);
    const double ms = MsSince(op_start);
    ++phase.ops;
    if (!tally.ok()) {
      std::fprintf(stderr, "e2e: op %llu failed: %s\n",
                   static_cast<unsigned long long>(op.index),
                   tally.status().ToString().c_str());
      ++phase.queries;
      ++phase.failed;
      continue;
    }
    const Tally& t = tally.ValueOrDie();
    phase.queries += t.queries;
    phase.failed += t.failed;
    phase.latency.Add(
        op.type, ms / static_cast<double>(std::max<uint64_t>(
                          t.queries - t.failed, 1)));
    if (tracer->enabled() && op.index % kProbeEvery == 0) {
      workload->Probe(op, tracer);
    }
  }
  phase.elapsed_s = MsSince(start) / 1e3;
  return phase;
}

/// A fresh workload, set up; appends the set-up time to `setup_s`. Null
/// when Setup failed.
std::unique_ptr<Workload> SetUp(const std::string& name, uint64_t seed,
                                std::vector<double>* setup_s) {
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
  const Clock::time_point start = Clock::now();
  const Status status = workload->Setup();
  setup_s->push_back(MsSince(start) / 1e3);
  if (!status.ok()) {
    std::fprintf(stderr, "e2e: setup failed: %s\n", status.ToString().c_str());
    return nullptr;
  }
  return workload;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("0");
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_harness --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(args.seed.c_str(), nullptr, 10);
  const bool trace = args.trace == "1";
  if (MakeWorkload(args.workload, seed) == nullptr) {
    std::fprintf(stderr, "e2e: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // The last set-up before the timed phase is the one measured. Only one
  // workload's tables exist at a time.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetupsBefore; ++k) {
    workload.reset();
    workload = SetUp(args.workload, seed, &setup_s);
    if (workload == nullptr) return 1;
  }
  const std::vector<std::string> types = workload->types();

  Tracer tracer(types);
  uint64_t next_index = 0;
  Phase untraced;
  Phase traced;
  if (trace) {
    untraced =
        RunPhase(workload.get(), &tracer, args.seconds / 4, &next_index);
    tracer.set_enabled(true);
    traced =
        RunPhase(workload.get(), &tracer, args.seconds * 3 / 4, &next_index);
    workload->ProbeOnce(&tracer);
    tracer.set_enabled(false);
  } else {
    untraced = RunPhase(workload.get(), &tracer, args.seconds, &next_index);
  }

  Problems problems;
  workload->Check(&problems);
  const uint64_t attempted = untraced.queries + traced.queries;
  const uint64_t failed = untraced.failed + traced.failed + problems.count;
  const bool correct = failed == 0;

  Metrics metrics;
  if (!trace) {
    metrics["qps"] = untraced.qps();
    metrics["p50_ms"] = untraced.latency.GeoMean(0.5);
    // Each type's p90 goes to info.types only: on a shared host it moves
    // between runs by more than any regression bound could allow.
    metrics["peak_rss_mb"] = PeakRssMiB();
  } else {
    // Every per-operation sample: each type's median, averaged over types.
    for (const auto& [name, samples] : tracer.samples()) {
      metrics[name] = samples.Mean(0.5);
    }
    // Simulated-clock p99 of the workload's queries as it runs them
    // (per-query completion, cluster makespan, or the service's latency);
    // the isolated probe runs when the workload simulates nothing.
    const double sim_p99 = tracer.Metric("sim.latency_ms", 0.99);
    metrics["sim.p99_ms"] =
        sim_p99 > 0 ? sim_p99 : tracer.Metric("sim.query_ms", 0.99);
    const double region = tracer.Metric("parallel.region_ms");
    const double serial = tracer.Metric("parallel.serial_ms");
    metrics["parallel.serial_pct"] = 100.0 * serial / (region + serial);
    metrics["parallel.scaling_1to4"] =
        tracer.Metric("parallel.region_w1_ms") / region;
    workload->AddMetrics(&metrics);
    metrics["bench.trace_overhead_pct"] =
        100.0 * (traced.latency.GeoMean(0.5) / untraced.latency.GeoMean(0.5) -
                 1.0);
    if (!args.spans.empty() && !tracer.WriteSpans(args.spans)) {
      std::fprintf(stderr, "e2e: cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }

  workload.reset();
  for (int k = 0; k < kSetupsAfter; ++k) {
    if (SetUp(args.workload, seed, &setup_s) == nullptr) return 1;
  }
  if (!trace) metrics["setup_s"] = Median(setup_s);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(value);
    first = false;
  }
  std::printf("}, \"info\": {\"ops\": %llu, \"elapsed_s\": ",
              static_cast<unsigned long long>(untraced.ops + traced.ops));
  PrintJsonNumber(untraced.elapsed_s + traced.elapsed_s);
  std::printf(", \"setup_s\": [");
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::printf(i == 0 ? "" : ", ");
    PrintJsonNumber(setup_s[i]);
  }
  std::printf("], \"types\": {");
  first = true;
  for (const auto& [type, values] : untraced.latency.by_type()) {
    std::printf("%s\"%s\": {\"samples\": %zu, \"p50_ms\": ", first ? "" : ", ",
                types[type].c_str(), values.size());
    PrintJsonNumber(Quantile(values, 0.5));
    std::printf(", \"p90_ms\": ");
    PrintJsonNumber(Quantile(values, 0.9));
    std::printf("}");
    first = false;
  }
  // Traced runs: each per-layer sample's median per operation type, the
  // split that the per-layer metrics average over.
  std::printf("}, \"layers\": {");
  first = true;
  for (const auto& [name, samples] : tracer.samples()) {
    std::printf("%s\"%s\": {", first ? "" : ", ", name.c_str());
    bool first_type = true;
    for (const auto& [type, values] : samples.by_type()) {
      std::printf("%s\"%s\": ", first_type ? "" : ", ",
                  types[type].c_str());
      PrintJsonNumber(Quantile(values, 0.5));
      first_type = false;
    }
    std::printf("}");
    first = false;
  }
  std::printf("}, \"spans\": %zu}}\n", tracer.span_count());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dflow::bench_e2e

int main(int argc, char** argv) { return dflow::bench_e2e::Main(argc, argv); }
