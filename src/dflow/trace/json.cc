#include "dflow/trace/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "dflow/common/logging.h"

namespace dflow::trace {

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

bool JsonValue::AsBool() const {
  DFLOW_CHECK(type_ == Type::kBool);
  return bool_;
}

uint64_t JsonValue::AsUInt64() const {
  DFLOW_CHECK(type_ == Type::kNumber);
  return std::strtoull(scalar_.c_str(), nullptr, 10);
}

int64_t JsonValue::AsInt64() const {
  DFLOW_CHECK(type_ == Type::kNumber);
  return std::strtoll(scalar_.c_str(), nullptr, 10);
}

double JsonValue::AsDouble() const {
  DFLOW_CHECK(type_ == Type::kNumber);
  return std::strtod(scalar_.c_str(), nullptr);
}

const std::string& JsonValue::AsString() const {
  DFLOW_CHECK(type_ == Type::kString);
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  DFLOW_CHECK(type_ == Type::kArray);
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  DFLOW_CHECK(type_ == Type::kObject);
  return object_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::FindPath(const std::string& dotted_path) const {
  const JsonValue* cur = this;
  size_t pos = 0;
  while (cur != nullptr && pos <= dotted_path.size()) {
    const size_t dot = dotted_path.find('.', pos);
    const std::string key = dotted_path.substr(
        pos, dot == std::string::npos ? std::string::npos : dot - pos);
    cur = cur->Find(key);
    if (dot == std::string::npos) return cur;
    pos = dot + 1;
  }
  return cur;
}

JsonValue JsonValue::MakeNull() { return JsonValue(); }

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(std::string raw_token) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::move(raw_token);
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.scalar_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

/// Deepest array/object nesting ParseJson accepts. The parser and
/// JsonValue's destructor recurse once per level, so a hostile document
/// is an InvalidArgument, never a stack overflow; no file this project
/// writes nests more than a few levels.
constexpr size_t kMaxJsonDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    DFLOW_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::InvalidArgument(std::string("json: expected '") + c +
                                     "' at offset " + std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  bool Consume(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("json: unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        return Status::InvalidArgument(
            "json: nested deeper than " + std::to_string(kMaxJsonDepth) +
            " levels at offset " + std::to_string(pos_));
      }
      ++depth_;
      Result<JsonValue> v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      DFLOW_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::MakeString(std::move(s));
    }
    if (Consume("null")) return JsonValue::MakeNull();
    if (Consume("true")) return JsonValue::MakeBool(true);
    if (Consume("false")) return JsonValue::MakeBool(false);
    return ParseNumber();
  }

  Result<std::string> ParseString() {
    DFLOW_RETURN_NOT_OK(Expect('"'));
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("json: truncated \\u escape");
          }
          const unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The exporters only emit \u00XX control escapes; decode the
          // Latin-1 range and pass anything wider through as '?'.
          out.push_back(code < 0x100 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Status::InvalidArgument("json: bad escape character");
      }
    }
    DFLOW_RETURN_NOT_OK(Expect('"'));
    return out;
  }

  Result<JsonValue> ParseNumber() {
    const size_t begin = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == begin) {
      return Status::InvalidArgument("json: invalid value at offset " +
                                     std::to_string(begin));
    }
    return JsonValue::MakeNumber(text_.substr(begin, pos_ - begin));
  }

  Result<JsonValue> ParseArray() {
    DFLOW_RETURN_NOT_OK(Expect('['));
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue::MakeArray(std::move(items));
    }
    while (true) {
      DFLOW_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      items.push_back(std::move(v));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    DFLOW_RETURN_NOT_OK(Expect(']'));
    return JsonValue::MakeArray(std::move(items));
  }

  Result<JsonValue> ParseObject() {
    DFLOW_RETURN_NOT_OK(Expect('{'));
    std::map<std::string, JsonValue> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue::MakeObject(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      DFLOW_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      DFLOW_RETURN_NOT_OK(Expect(':'));
      DFLOW_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      members.emplace(std::move(key), std::move(v));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    DFLOW_RETURN_NOT_OK(Expect('}'));
    return JsonValue::MakeObject(std::move(members));
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace dflow::trace
