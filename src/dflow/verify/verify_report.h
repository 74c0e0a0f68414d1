#ifndef DFLOW_VERIFY_VERIFY_REPORT_H_
#define DFLOW_VERIFY_VERIFY_REPORT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "dflow/common/result.h"

namespace dflow::verify {

/// How a failed check affects execution.
///  - kError: the graph is broken — running it would produce wrong results,
///    deadlock, or fail at runtime. Strict mode refuses to execute.
///  - kWarning: the graph runs, but something is suspicious (results
///    silently dropped, pipelining disabled). Never blocks execution; the
///    bench regression gate still flags new warnings.
enum class Severity { kWarning, kError };

std::string_view SeverityToString(Severity s);

/// When the static verifier runs relative to execution.
///  - kStrict: verify before every run; refuse to execute on any error.
///  - kWarn:   verify, record the report, execute anyway.
///  - kOff:    skip verification entirely.
enum class VerifyMode { kOff, kWarn, kStrict };

/// Version of the static check catalogue. Bumped whenever a check is added,
/// removed, or its semantics change, so artifacts that embed a verifier
/// verdict (compiled DflowPrograms, cached plans) can tell a stale stamp
/// from a current one — the program cache keys on this.
inline constexpr int kVerifierVersion = 1;

/// Parses "strict" / "warn" / "off" (as in --dflow_verify=).
Result<VerifyMode> ParseVerifyMode(std::string_view text);

/// Process-wide default for ExecOptions::verify. Strict unless a bench/tool
/// flag (--dflow_verify=) overrides it. Reading and setting are not
/// thread-safe; set it once during startup.
VerifyMode DefaultMode();
void SetDefaultMode(VerifyMode mode);

/// One finding of the static plan verifier. `code` is a stable identifier
/// (catalogued in DESIGN.md) that tests and CI gates match on; `stage` and
/// `edge` locate the finding in the graph ("" when not applicable).
struct VerifyIssue {
  Severity severity = Severity::kError;
  std::string code;     // e.g. "VY_SCHEMA_MISMATCH"
  std::string stage;    // offending node name, if any
  std::string edge;     // offending edge label ("from->to"), if any
  std::string message;  // human-readable diagnostic, with suggested rewrite

  std::string ToString() const;
};

/// Everything the verifier found for one graph, in deterministic order
/// (check family by check family, nodes/edges in graph order).
struct VerifyReport {
  std::vector<VerifyIssue> issues;

  size_t num_errors() const;
  size_t num_warnings() const;
  /// True when the graph may execute (warnings allowed, errors not).
  bool ok() const { return num_errors() == 0; }
  bool HasCode(std::string_view code) const;

  void Add(Severity severity, std::string code, std::string stage,
           std::string edge, std::string message);

  /// "2 errors, 1 warning: [VY_...] ...; [VY_...] ..." ("clean" when empty).
  std::string ToString() const;
};

}  // namespace dflow::verify

#endif  // DFLOW_VERIFY_VERIFY_REPORT_H_
