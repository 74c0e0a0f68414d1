#include "dflow/common/string_util.h"

#include <cstdio>

namespace dflow {

std::vector<std::string> SplitString(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GB",
                  static_cast<double>(bytes) / (1ULL << 30));
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MB",
                  static_cast<double>(bytes) / (1ULL << 20));
  } else if (bytes >= (1ULL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KB",
                  static_cast<double>(bytes) / (1ULL << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatNanos(uint64_t nanos) {
  char buf[64];
  if (nanos >= 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f s",
                  static_cast<double>(nanos) / 1e9);
  } else if (nanos >= 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f ms",
                  static_cast<double>(nanos) / 1e6);
  } else if (nanos >= 1000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f us",
                  static_cast<double>(nanos) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu ns",
                  static_cast<unsigned long long>(nanos));
  }
  return buf;
}

bool LikeMatch(std::string_view value, std::string_view pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t v = 0, p = 0;
  size_t star_p = std::string_view::npos, star_v = 0;
  while (v < value.size()) {
    // '%' first: a '%' in the value must not consume it as a literal.
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || pattern[p] == value[v])) {
      ++v;
      ++p;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace dflow
