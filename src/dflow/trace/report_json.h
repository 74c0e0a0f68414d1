#ifndef DFLOW_TRACE_REPORT_JSON_H_
#define DFLOW_TRACE_REPORT_JSON_H_

#include <string>

#include "dflow/engine/report.h"
#include "dflow/serve/service_report.h"

namespace dflow::trace {

/// Machine-readable form of one execution's measurements, for the figure
/// benchmarks' --dflow_report_json artifacts and the CI regression gate.
/// Deterministic: keys in fixed order, integer counters only, no wall-clock
/// or address values. Schema tag: "dflow.execution_report.v1".
std::string ExecutionReportToJson(const ExecutionReport& report);

/// The verifier's findings as a JSON object (the "verify" member of the
/// execution report): {"errors":N,"warnings":N,"issues":[{severity,code,
/// stage,edge,message},...]}. Deterministic: issues keep verifier order.
std::string VerifyReportToJson(const verify::VerifyReport& report);

/// One service run's per-tenant and global SLO counters, for the "service"
/// member of a bench-report entry. Deterministic: integer counters only,
/// tenants in configuration order. Schema tag: "dflow.service_report.v1".
std::string ServiceReportToJson(const serve::ServiceReport& report);

}  // namespace dflow::trace

#endif  // DFLOW_TRACE_REPORT_JSON_H_
