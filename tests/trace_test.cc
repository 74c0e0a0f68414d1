// Tier-1 coverage for the observability subsystem (src/dflow/trace/):
// ring-buffer semantics, exporter well-formedness, report round-trips, and
// the two invariants CI leans on — determinism (same run, same bytes) and
// isolation (tracing never changes what a query reports).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dflow/engine/engine.h"
#include "dflow/trace/chrome_export.h"
#include "dflow/trace/json.h"
#include "dflow/trace/report_json.h"
#include "dflow/trace/summary.h"
#include "dflow/trace/tracer.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

using trace::EventKind;
using trace::JsonValue;
using trace::ParseJson;
using trace::TraceOptions;
using trace::Tracer;

TEST(TracerTest, RecordsSpansInstantsAndCounters) {
  Tracer tracer;
  tracer.Span("device", "cpu0", "scan", 100, 250, 4096);
  tracer.Instant("fault", "net0", "retransmit", 300, 7);
  tracer.Counter("edge", "a->b", "inflight_bytes", 400, 8192);
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kSpan);
  EXPECT_EQ(events[0].end, 250u);
  EXPECT_EQ(events[1].kind, EventKind::kInstant);
  EXPECT_EQ(events[1].value, 7u);
  EXPECT_EQ(events[2].kind, EventKind::kCounter);
  EXPECT_EQ(tracer.total_recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, RingOverflowDropsOldestKeepsNewest) {
  TraceOptions options;
  options.enabled = true;
  options.ring_capacity = 8;
  Tracer tracer(options);
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.Instant("device", "cpu0", "tick", /*at=*/i * 10, /*value=*/i);
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  // Drop-oldest: the survivors are exactly the last 8 emissions, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].value, 12 + i);
  }
}

TEST(TracerTest, EventsSortedByTimeThenSeqAtTies) {
  Tracer tracer;
  // Emit out of time order, with a timestamp collision.
  tracer.Instant("device", "cpu0", "b", /*at=*/500, 1);
  tracer.Instant("device", "cpu0", "a", /*at=*/100, 2);
  tracer.Instant("device", "cpu0", "c", /*at=*/500, 3);
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  // Equal timestamps resolve by emission order — "b" was recorded first.
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
}

TEST(TracerTest, ClearResetsEverything) {
  Tracer tracer;
  tracer.Span("device", "cpu0", "scan", 0, 10);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(ChromeExportTest, OutputIsWellFormedJson) {
  Tracer tracer;
  tracer.Span("device", "cpu0", "scan \"q1\"\n", 1000, 2500, 4096);
  tracer.Instant("fault", "net0", "retransmit", 1500, 3);
  tracer.Counter("edge", "scan->agg", "inflight_bytes", 2000, 8192);
  const std::string json = trace::ChromeTraceString(tracer);
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue* events = doc.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata rows (thread_name/thread_sort_index) plus the three events.
  std::set<std::string> phases;
  for (const auto& e : events->AsArray()) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    phases.insert(ph->AsString());
    ASSERT_NE(e.Find("pid"), nullptr);
    if (ph->AsString() != "M") {
      // Metadata rows (process_name) may omit tid; real events never do.
      ASSERT_NE(e.Find("tid"), nullptr);
    }
  }
  EXPECT_TRUE(phases.count("X"));  // the span
  EXPECT_TRUE(phases.count("i"));  // the instant
  EXPECT_TRUE(phases.count("C"));  // the counter
  EXPECT_TRUE(phases.count("M"));  // track metadata
}

TEST(ChromeExportTest, EmptyTracerProducesLoadableDocument) {
  Tracer tracer;
  auto doc = ParseJson(trace::ChromeTraceString(tracer));
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc.ValueOrDie().Find("traceEvents"), nullptr);
}

TEST(SummaryTest, AggregatesBusyTimeAndBytesPerTrack) {
  Tracer tracer;
  tracer.Span("device", "cpu0", "scan", 0, 600, 1024);
  tracer.Span("device", "cpu0", "agg", 600, 1000, 512);
  tracer.Span("link", "net0", "xfer", 0, 500, 2048);
  const std::string table = trace::UtilizationSummary(tracer, /*total_ns=*/1000);
  EXPECT_NE(table.find("device:cpu0"), std::string::npos);
  EXPECT_NE(table.find("link:net0"), std::string::npos);
  EXPECT_NE(table.find("100.0%"), std::string::npos);  // cpu0 fully busy
  EXPECT_NE(table.find("50.0%"), std::string::npos);   // net0 half busy
}

class TraceEngineTest : public ::testing::Test {
 protected:
  static sim::FabricConfig Config() {
    sim::FabricConfig config;
    config.num_compute_nodes = 2;
    return config;
  }

  static void Register(Engine& engine) {
    LineitemSpec li;
    li.rows = 30'000;
    li.row_group_size = 8'192;
    DFLOW_CHECK(
        engine.catalog().Register(MakeLineitemTable(li).ValueOrDie()).ok());
  }

  static QuerySpec CountQuery() {
    QuerySpec spec;
    spec.table = "lineitem";
    spec.count_only = true;
    return spec;
  }
};

// Under -DDFLOW_TRACE_DISABLED the instrumentation sites compile away, so a
// traced run records nothing; with tracing built in, a full execution must
// populate the device, link, and stage timelines.
TEST_F(TraceEngineTest, ExecutionPopulatesExpectedCategories) {
  Engine engine(Config());
  Register(engine);
  ExecOptions options;
  options.trace.enabled = true;
  auto result = engine.Execute(CountQuery(), options).ValueOrDie();
  ASSERT_NE(engine.tracer(), nullptr);
#ifdef DFLOW_TRACE_DISABLED
  EXPECT_EQ(engine.tracer()->size(), 0u);
#else
  std::set<std::string> categories;
  for (const auto& e : engine.tracer()->Events()) {
    categories.insert(e.category);
  }
  EXPECT_TRUE(categories.count("device"));
  EXPECT_TRUE(categories.count("link"));
  EXPECT_TRUE(categories.count("stage"));
  EXPECT_TRUE(categories.count("edge"));
#endif
  EXPECT_EQ(result.chunks[0].GetValue(0, 0).int64_value(), 30'000);
}

// Same engine config + same query => byte-identical Chrome trace. This is
// the property the committed CI artifacts and golden workflows rely on.
TEST_F(TraceEngineTest, TraceOutputIsDeterministicAcrossRuns) {
  ExecOptions options;
  options.trace.enabled = true;
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Engine engine(Config());
    Register(engine);
    (void)engine.Execute(CountQuery(), options).ValueOrDie();
    const std::string json = trace::ChromeTraceString(*engine.tracer());
    if (run == 0) {
      first = json;
    } else {
      EXPECT_EQ(json, first);
    }
  }
}

// Tracing is observation only: the report of a traced run must be
// byte-identical to the report of an untraced run of the same query.
TEST_F(TraceEngineTest, TracingDoesNotPerturbTheReport) {
  Engine traced(Config());
  Register(traced);
  Engine plain(Config());
  Register(plain);
  ExecOptions with_trace;
  with_trace.trace.enabled = true;
  auto a = traced.Execute(CountQuery(), with_trace).ValueOrDie();
  auto b = plain.Execute(CountQuery()).ValueOrDie();
  EXPECT_EQ(trace::ExecutionReportToJson(a.report),
            trace::ExecutionReportToJson(b.report));
}

TEST_F(TraceEngineTest, ReportJsonCarriesEveryCounterExactly) {
  Engine engine(Config());
  Register(engine);
  auto result = engine.Execute(CountQuery()).ValueOrDie();
  // Exercise the fault block too — force nonzero values into the JSON,
  // including the 64-bit extremes a double would mangle.
  ExecutionReport report = result.report;
  report.fault.retransmits = 3;
  report.fault.checksum_failures = 1;
  report.fault.cpu_fallback = true;
  report.fault.failed_device = "fpga0";
  report.media_bytes = 0xFFFF'FFFF'FFFF'FFFFull;
  const std::string json = trace::ExecutionReportToJson(report);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.ValueOrDie();
  EXPECT_EQ(root.FindPath("schema")->AsString(), "dflow.execution_report.v1");
  EXPECT_EQ(root.FindPath("variant")->AsString(), report.variant);
  EXPECT_EQ(root.FindPath("fault.failed_device")->AsString(), "fpga0");
  EXPECT_TRUE(root.FindPath("fault.cpu_fallback")->AsBool());
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"sim_ns", report.sim_ns},
      {"result_rows", report.result_rows},
      {"media_bytes", 0xFFFF'FFFF'FFFF'FFFFull},
      {"network_bytes", report.network_bytes},
      {"interconnect_bytes", report.interconnect_bytes},
      {"membus_bytes", report.membus_bytes},
      {"peak_queue_bytes", report.peak_queue_bytes},
      {"scan.row_groups_total", report.scan.row_groups_total},
      {"scan.rows_produced", report.scan.rows_produced},
      {"scan.encoded_bytes_read", report.scan.encoded_bytes_read},
      {"fault.retransmits", 3},
      {"fault.checksum_failures", 1},
      {"verify.errors", report.verify.num_errors()},
  };
  for (const auto& [path, want] : counters) {
    const JsonValue* v = root.FindPath(path);
    ASSERT_NE(v, nullptr) << path;
    EXPECT_EQ(v->AsUInt64(), want) << path;
  }
  ASSERT_FALSE(report.link_bytes.empty());
  for (const auto& [link, bytes] : report.link_bytes) {
    const JsonValue* v = root.FindPath("link_bytes")->Find(link);
    ASSERT_NE(v, nullptr) << link;
    EXPECT_EQ(v->AsUInt64(), bytes) << link;
  }
}

TEST_F(TraceEngineTest, JsonParserRejectsGarbage) {
  EXPECT_FALSE(ParseJson("{\"unterminated\": ").ok());
  EXPECT_FALSE(ParseJson("").ok());
}

// 10,000 nested arrays (or objects) are an InvalidArgument, not a stack
// overflow; nesting a little under the cap still parses.
TEST(TraceJsonTest, DeepNestingIsRejectedNotACrash) {
  const size_t kDeep = 10000;
  std::string objects;
  for (size_t i = 0; i < kDeep; ++i) objects += "{\"k\":";
  objects += "1" + std::string(kDeep, '}');
  for (const std::string& text :
       {std::string(kDeep, '[') + std::string(kDeep, ']'), objects}) {
    auto r = ParseJson(text);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("nested deeper than"),
              std::string::npos)
        << r.status().message();
  }
  const size_t kFine = 200;
  EXPECT_TRUE(
      ParseJson(std::string(kFine, '[') + std::string(kFine, ']')).ok());
}

// reset_fabric=true promises a report scoped to its own run: after a faulted
// execution leaves drop/corruption/stall counts on the links and devices,
// the next (fault-free) run must report all fault counters at zero — i.e.
// Fabric reset covers every counter CollectReport reads.
TEST_F(TraceEngineTest, ResetFabricZeroesFaultCountersBetweenRuns) {
  Engine engine(Config());
  Register(engine);

  sim::FaultConfig faults;
  faults.seed = 7;
  faults.drop_prob = 0.05;
  faults.corrupt_prob = 0.05;
  faults.stall_prob = 0.10;
  faults.storage_error_prob = 0.02;
  engine.EnableFaultInjection(faults);
  auto faulted = engine.Execute(CountQuery()).ValueOrDie();
  ASSERT_TRUE(faulted.report.fault.Any());

  engine.DisableFaultInjection();
  ExecOptions options;
  options.reset_fabric = true;
  auto clean = engine.Execute(CountQuery(), options).ValueOrDie();
  const FaultReport& f = clean.report.fault;
  EXPECT_EQ(f.chunks_dropped, 0u);
  EXPECT_EQ(f.chunks_corrupted, 0u);
  EXPECT_EQ(f.retransmits, 0u);
  EXPECT_EQ(f.delivery_timeouts, 0u);
  EXPECT_EQ(f.checksum_failures, 0u);
  EXPECT_EQ(f.storage_io_errors, 0u);
  EXPECT_EQ(f.storage_retries, 0u);
  EXPECT_EQ(f.device_stalls, 0u);
  EXPECT_EQ(f.device_stall_ns, 0u);
  EXPECT_FALSE(f.Any());
  // The clean run's result must match, too (faults never change answers).
  EXPECT_EQ(clean.report.result_rows, faulted.report.result_rows);

  // Chained runs (reset_fabric=false) keep the clock but still scope the
  // metric counters to the new run.
  options.reset_fabric = false;
  auto chained = engine.Execute(CountQuery(), options).ValueOrDie();
  EXPECT_FALSE(chained.report.fault.Any());
}

}  // namespace
}  // namespace dflow
