// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Minimal JSON value type, parser and serializer — just enough for the
// JSONL request/response protocol of knnshap_serve (flat objects, arrays of
// numbers, nested arrays for inline feature rows). No external dependency;
// the container image is intentionally kept lean.
//
// Deliberate simplifications: numbers are doubles (JSON's own model),
// object key order is preserved on write but duplicate keys keep the last
// value, and \uXXXX escapes outside the BMP-ASCII range are replaced with
// '?'. These never matter for the serve protocol.

#ifndef KNNSHAP_UTIL_JSON_H_
#define KNNSHAP_UTIL_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace knnshap {

/// A JSON value (null, bool, number, string, array or object).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(int n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(const char* s) : type_(Type::kString), string_(s) {}

  static JsonValue MakeArray() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue MakeObject() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type GetType() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  /// Typed accessors; defaults are returned on type mismatch so protocol
  /// handlers can express "field with fallback" in one call.
  bool AsBool(bool fallback = false) const { return IsBool() ? bool_ : fallback; }
  double AsNumber(double fallback = 0.0) const {
    return IsNumber() ? number_ : fallback;
  }
  const std::string& AsString() const { return string_; }

  std::vector<JsonValue>& Items() { return items_; }
  const std::vector<JsonValue>& Items() const { return items_; }

  /// Object field lookup; returns a shared null value when absent.
  const JsonValue& Get(const std::string& key) const;
  bool Has(const std::string& key) const;

  /// Object field assignment (converts this value to an object if needed).
  void Set(const std::string& key, JsonValue value);
  const std::vector<std::pair<std::string, JsonValue>>& Fields() const {
    return fields_;
  }

  /// Appends to an array (converts this value to an array if needed).
  void Append(JsonValue value);

  /// Serializes to a compact single-line string.
  std::string Dump() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                          // array
  std::vector<std::pair<std::string, JsonValue>> fields_;  // object
};

/// Result of a parse: the value plus an error message (empty on success).
struct JsonParseResult {
  JsonValue value;
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Arrays and objects nest at most this deep; deeper input is a parse
/// error rather than unbounded recursion. The serve protocol nests ~5 deep.
inline constexpr int kJsonMaxNestingDepth = 256;

/// Parses one JSON document from `text`. Trailing non-whitespace is an
/// error (JSONL framing: exactly one document per line). Numbers take
/// strtod's grammar and values, a leading '+' included.
JsonParseResult ParseJson(const std::string& text);

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_JSON_H_
