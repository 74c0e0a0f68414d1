#include "dflow/verify/verify_report.h"

#include <algorithm>

namespace dflow::verify {

namespace {
VerifyMode g_default_mode = VerifyMode::kStrict;
}  // namespace

std::string_view SeverityToString(Severity s) {
  switch (s) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

Result<VerifyMode> ParseVerifyMode(std::string_view text) {
  if (text == "off") return VerifyMode::kOff;
  if (text == "warn") return VerifyMode::kWarn;
  if (text == "strict") return VerifyMode::kStrict;
  return Status::InvalidArgument("unknown verify mode '" + std::string(text) +
                                 "' (expected strict|warn|off)");
}

VerifyMode DefaultMode() { return g_default_mode; }

void SetDefaultMode(VerifyMode mode) { g_default_mode = mode; }

std::string VerifyIssue::ToString() const {
  std::string out = "[" + code + "] " + std::string(SeverityToString(severity));
  if (!stage.empty()) out += " stage=" + stage;
  if (!edge.empty()) out += " edge=" + edge;
  out += ": " + message;
  return out;
}

size_t VerifyReport::num_errors() const {
  return static_cast<size_t>(
      std::count_if(issues.begin(), issues.end(), [](const VerifyIssue& i) {
        return i.severity == Severity::kError;
      }));
}

size_t VerifyReport::num_warnings() const {
  return issues.size() - num_errors();
}

bool VerifyReport::HasCode(std::string_view code) const {
  return std::any_of(issues.begin(), issues.end(),
                     [&](const VerifyIssue& i) { return i.code == code; });
}

void VerifyReport::Add(Severity severity, std::string code, std::string stage,
                       std::string edge, std::string message) {
  issues.push_back(VerifyIssue{severity, std::move(code), std::move(stage),
                               std::move(edge), std::move(message)});
}

std::string VerifyReport::ToString() const {
  if (issues.empty()) return "clean";
  std::string out = std::to_string(num_errors()) + " error(s), " +
                    std::to_string(num_warnings()) + " warning(s)";
  for (const VerifyIssue& issue : issues) {
    out += "\n  " + issue.ToString();
  }
  return out;
}

}  // namespace dflow::verify
