#include "dflow/trace/report_json.h"

#include <sstream>

#include "dflow/trace/json.h"

namespace dflow::trace {

namespace {

void AppendMap(std::ostringstream& os, const char* key,
               const std::map<std::string, uint64_t>& m) {
  os << "\"" << key << "\":{";
  bool first = true;
  for (const auto& [name, value] : m) {  // std::map: sorted, deterministic
    if (!first) os << ",";
    first = false;
    os << JsonQuote(name) << ":" << value;
  }
  os << "}";
}

}  // namespace

std::string ExecutionReportToJson(const ExecutionReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"dflow.execution_report.v1\"";
  os << ",\"variant\":" << JsonQuote(report.variant);
  os << ",\"sim_ns\":" << report.sim_ns;
  os << ",\"result_rows\":" << report.result_rows;
  os << ",\"media_bytes\":" << report.media_bytes;
  os << ",\"network_bytes\":" << report.network_bytes;
  os << ",\"interconnect_bytes\":" << report.interconnect_bytes;
  os << ",\"membus_bytes\":" << report.membus_bytes;
  os << ",\"peak_queue_bytes\":" << report.peak_queue_bytes;
  os << ",";
  AppendMap(os, "link_bytes", report.link_bytes);
  os << ",";
  AppendMap(os, "device_busy_ns", report.device_busy_ns);
  os << ",\"scan\":{"
     << "\"row_groups_total\":" << report.scan.row_groups_total
     << ",\"row_groups_pruned\":" << report.scan.row_groups_pruned
     << ",\"rows_produced\":" << report.scan.rows_produced
     << ",\"encoded_bytes_read\":" << report.scan.encoded_bytes_read << "}";
  const FaultReport& f = report.fault;
  os << ",\"fault\":{"
     << "\"chunks_dropped\":" << f.chunks_dropped
     << ",\"chunks_corrupted\":" << f.chunks_corrupted
     << ",\"retransmits\":" << f.retransmits
     << ",\"delivery_timeouts\":" << f.delivery_timeouts
     << ",\"checksum_failures\":" << f.checksum_failures
     << ",\"storage_io_errors\":" << f.storage_io_errors
     << ",\"storage_retries\":" << f.storage_retries
     << ",\"device_stalls\":" << f.device_stalls
     << ",\"device_stall_ns\":" << f.device_stall_ns
     << ",\"cpu_fallback\":" << (f.cpu_fallback ? "true" : "false")
     << ",\"failed_device\":" << JsonQuote(f.failed_device) << "}";
  os << ",\"verify\":" << VerifyReportToJson(report.verify);
  os << "}";
  return os.str();
}

std::string VerifyReportToJson(const verify::VerifyReport& report) {
  std::ostringstream os;
  os << "{\"errors\":" << report.num_errors()
     << ",\"warnings\":" << report.num_warnings() << ",\"issues\":[";
  bool first = true;
  for (const verify::VerifyIssue& issue : report.issues) {
    if (!first) os << ",";
    first = false;
    os << "{\"severity\":"
       << JsonQuote(std::string(verify::SeverityToString(issue.severity)))
       << ",\"code\":" << JsonQuote(issue.code)
       << ",\"stage\":" << JsonQuote(issue.stage)
       << ",\"edge\":" << JsonQuote(issue.edge)
       << ",\"message\":" << JsonQuote(issue.message) << "}";
  }
  os << "]}";
  return os.str();
}

std::string ServiceReportToJson(const serve::ServiceReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"dflow.service_report.v1\"";
  os << ",\"makespan_ns\":" << report.makespan_ns;
  os << ",\"arrivals_total\":" << report.arrivals_total;
  os << ",\"admitted_total\":" << report.admitted_total;
  os << ",\"shed_total\":" << report.shed_total;
  os << ",\"completed_total\":" << report.completed_total;
  os << ",\"failed_total\":" << report.failed_total;
  os << ",\"degraded_total\":" << report.degraded_total;
  os << ",\"peak_in_flight\":" << report.peak_in_flight;
  os << ",\"p99_ns\":" << report.p99_ns;
  os << ",\"lifecycle\":{";
  os << "\"deadline_missed_total\":" << report.deadline_missed_total;
  os << ",\"cancelled_total\":" << report.cancelled_total;
  os << ",\"retries_total\":" << report.retries_total;
  os << ",\"retry_exhausted_total\":" << report.retry_exhausted_total;
  os << ",\"shed_brownout_total\":" << report.shed_brownout_total;
  os << ",\"breaker_transitions\":" << report.breaker_transitions;
  os << ",\"breaker_probes\":" << report.breaker_probes;
  os << ",\"brownout_escalations\":" << report.brownout_escalations;
  os << ",\"brownout_peak_level\":" << report.brownout_peak_level << "}";
  os << ",\"cache\":{";
  os << "\"hits\":" << report.cache_hits;
  os << ",\"misses\":" << report.cache_misses;
  os << ",\"evictions\":" << report.cache_evictions;
  os << ",\"recompiles\":" << report.cache_recompiles;
  os << ",\"invalidations\":" << report.cache_invalidations;
  os << ",\"planning_ns_cold\":" << report.cache_planning_ns_cold;
  os << ",\"planning_ns_warm\":" << report.cache_planning_ns_warm << "}";
  os << ",\"tenants\":[";
  for (size_t t = 0; t < report.tenants.size(); ++t) {
    const serve::TenantStats& ts = report.tenants[t];
    if (t > 0) os << ",";
    os << "{\"name\":" << JsonQuote(ts.name);
    os << ",\"arrivals\":" << ts.arrivals;
    os << ",\"admitted\":" << ts.admitted;
    os << ",\"queued\":" << ts.queued;
    os << ",\"shed_queue_full\":" << ts.shed_queue_full;
    os << ",\"shed_overload\":" << ts.shed_overload;
    os << ",\"completed\":" << ts.completed;
    os << ",\"failed\":" << ts.failed;
    os << ",\"degraded\":" << ts.degraded;
    os << ",\"deadline_missed\":" << ts.deadline_missed;
    os << ",\"cancelled\":" << ts.cancelled;
    os << ",\"retries\":" << ts.retries;
    os << ",\"retry_exhausted\":" << ts.retry_exhausted;
    os << ",\"shed_brownout\":" << ts.shed_brownout;
    os << ",\"queue_depth_peak\":" << ts.queue_depth_peak;
    os << ",\"p50_ns\":" << ts.p50_ns;
    os << ",\"p95_ns\":" << ts.p95_ns;
    os << ",\"p99_ns\":" << ts.p99_ns << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dflow::trace
