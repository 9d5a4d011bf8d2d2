// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace knnshap {

namespace {

const JsonValue kNullValue;

// Parses the whole of [begin, end) as a double with strtod's grammar and
// value. from_chars covers the common token; anything it rejects or stops
// short on (a leading '+', overflow to +-inf, underflow, malformed text)
// goes to strtod on a NUL-terminated copy, so both the accepted set and
// the values stay exactly strtod's.
bool ParseDouble(const char* begin, const char* end, double* out) {
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec == std::errc() && ptr == end) return true;
  const std::string text(begin, end);
  char* parse_end = nullptr;
  *out = std::strtod(text.c_str(), &parse_end);
  return parse_end == text.c_str() + text.size();
}

// Recursive-descent parser over a bounded character range.
class Parser {
 public:
  Parser(const char* begin, const char* end) : p_(begin), end_(end) {}

  JsonParseResult Run() {
    JsonParseResult result;
    result.value = ParseValue(&result.error);
    if (!result.error.empty()) return result;
    SkipWhitespace();
    if (p_ != end_) result.error = "trailing characters after document";
    return result;
  }

 private:
  void SkipWhitespace() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const char* q = p_;
    while (*lit) {
      if (q == end_ || *q != *lit) return false;
      ++q;
      ++lit;
    }
    p_ = q;
    return true;
  }

  JsonValue ParseValue(std::string* error) {
    SkipWhitespace();
    if (p_ == end_) {
      *error = "unexpected end of input";
      return JsonValue();
    }
    switch (*p_) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxNestingDepth) {
          *error = "nesting deeper than " + std::to_string(kJsonMaxNestingDepth);
          return JsonValue();
        }
        ++depth_;
        JsonValue container = *p_ == '{' ? ParseObject(error) : ParseArray(error);
        --depth_;
        return container;
      }
      case '"':
        return ParseString(error);
      case 't':
        if (ConsumeLiteral("true")) return JsonValue(true);
        break;
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue(false);
        break;
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue();
        break;
      default:
        return ParseNumber(error);
    }
    *error = "invalid token";
    return JsonValue();
  }

  JsonValue ParseObject(std::string* error) {
    ++p_;  // '{'
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (p_ == end_ || *p_ != '"') {
        *error = "expected object key";
        return obj;
      }
      JsonValue key = ParseString(error);
      if (!error->empty()) return obj;
      SkipWhitespace();
      if (!Consume(':')) {
        *error = "expected ':' after key";
        return obj;
      }
      JsonValue value = ParseValue(error);
      if (!error->empty()) return obj;
      obj.Set(key.AsString(), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) {
        *error = "expected ',' or '}' in object";
        return obj;
      }
    }
  }

  JsonValue ParseArray(std::string* error) {
    ++p_;  // '['
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      JsonValue value = ParseValue(error);
      if (!error->empty()) return arr;
      arr.Append(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) {
        *error = "expected ',' or ']' in array";
        return arr;
      }
    }
  }

  JsonValue ParseString(std::string* error) {
    ++p_;  // '"'
    std::string out;
    // Plain runs are appended whole: memchr finds the next quote (end_ if
    // there is none), kept until an escape consumes it, and the next
    // backslash before it.
    const char* quote = nullptr;
    while (p_ != end_) {
      if (quote == nullptr || quote < p_) {
        quote = static_cast<const char*>(std::memchr(p_, '"', end_ - p_));
        if (quote == nullptr) quote = end_;
      }
      const char* backslash = static_cast<const char*>(
          std::memchr(p_, '\\', static_cast<size_t>(quote - p_)));
      const char* stop = backslash != nullptr ? backslash : quote;
      out.append(p_, stop);
      p_ = stop;
      if (p_ == end_) break;
      ++p_;
      if (stop == quote) return JsonValue(std::move(out));
      if (p_ == end_) break;
      char esc = *p_++;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_))) {
              *error = "bad \\u escape";
              return JsonValue(std::move(out));
            }
            char h = *p_++;
            code = code * 16 +
                   static_cast<unsigned>(h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          *error = "bad escape character";
          return JsonValue(std::move(out));
      }
    }
    *error = "unterminated string";
    return JsonValue(std::move(out));
  }

  JsonValue ParseNumber(std::string* error) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                          *p_ == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p_))) digits = true;
      ++p_;
    }
    if (!digits) {
      *error = "invalid number";
      return JsonValue();
    }
    double value = 0.0;
    if (!ParseDouble(start, p_, &value)) {
      *error = "invalid number";
      return JsonValue();
    }
    return JsonValue(value);
  }

  const char* p_;
  const char* end_;
  int depth_ = 0;
};

bool NeedsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void EscapeInto(const std::string& s, std::string* out) {
  out->push_back('"');
  const char* p = s.data();
  const char* const end = p + s.size();
  while (true) {
    // Append the plain run up to the next character that needs escaping.
    const char* run = p;
    while (p != end && !NeedsEscape(*p)) ++p;
    out->append(run, p);
    if (p == end) break;
    const char c = *p++;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->push_back('"');
}

void DumpInto(const JsonValue& v, std::string* out) {
  switch (v.GetType()) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += v.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber: {
      double n = v.AsNumber();
      if (!std::isfinite(n)) {
        *out += "null";  // JSON has no Inf/NaN.
        break;
      }
      if (n == 0.0) {
        // %g's bytes for both zeros, without the round-trip check: most of
        // a truncated valuation's values are exactly zero.
        *out += std::signbit(n) ? "-0" : "0";
        break;
      }
      // %g when it reads back losslessly, else %.17g (exact for every
      // double). to_chars with an explicit precision prints printf's bytes.
      char buf[32];
      char* end = std::to_chars(buf, buf + sizeof buf, n,
                                std::chars_format::general, 6).ptr;
      double back = 0.0;
      if (!ParseDouble(buf, end, &back) || back != n) {
        end = std::to_chars(buf, buf + sizeof buf, n,
                            std::chars_format::general, 17).ptr;
      }
      out->append(buf, end);
      break;
    }
    case JsonValue::Type::kString:
      EscapeInto(v.AsString(), out);
      break;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& item : v.Items()) {
        if (!first) out->push_back(',');
        first = false;
        DumpInto(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.Fields()) {
        if (!first) out->push_back(',');
        first = false;
        EscapeInto(key, out);
        out->push_back(':');
        DumpInto(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

const JsonValue& JsonValue::Get(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  return kNullValue;
}

bool JsonValue::Has(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return true;
  }
  return false;
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  if (type_ != Type::kObject) {
    *this = MakeObject();
  }
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  fields_.emplace_back(key, std::move(value));
}

void JsonValue::Append(JsonValue value) {
  if (type_ != Type::kArray) {
    *this = MakeArray();
  }
  items_.push_back(std::move(value));
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpInto(*this, &out);
  return out;
}

JsonParseResult ParseJson(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.Run();
}

}  // namespace knnshap
