// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Minimal JSON value type, parser and serializer — just enough for the
// JSONL request/response protocol of knnshap_serve (flat objects, arrays of
// numbers, nested arrays for inline feature rows). No external dependency;
// the container image is intentionally kept lean.
//
// Node layout: a JsonValue is 16 bytes, a type tag plus a union of a bool,
// a double, or one owning pointer to a std::string, an item vector or a
// field vector. A 200k-row x 17-cell `load` line is 3.4M nodes, so the
// node size is most of the parsed tree's memory. Copies are deep; a move
// steals the pointer and leaves the source null. The parser builds every
// array and object from its own stack into one exactly sized vector.
//
// Objects keep their key order on write. A duplicate key keeps the first
// key's position and the last key's value: {"a":1,"b":2,"a":3} parses to
// {"a":3,"b":2}. The parser finds duplicates by sorting the field
// positions by key, O(n log n) key comparisons per object in the worst
// case; no hash, so no chosen keys can make it quadratic.
//
// Numbers are doubles (JSON's own model). The parser takes strtod's
// grammar and bits. The serializer prints %g when that reads back to the
// same double, else %.17g (exact for every double), and Inf/NaN as null.
// For a normal |n| = m * 2^e in roughly [1e-16, 1e17), %.17g's digits are
// computed in integers: q = round(|n| * 10^k) is m * 5^k shifted right by
// -(e+k) bits, with k = 16 - x <= 32 for the decimal exponent x. m < 2^53
// and 5^32 < 2^75, so m * 5^k fits in 128 bits and q is exact; a remainder
// of exactly half rounds to the even q, as printf does. Other magnitudes
// and subnormals go through std::to_chars. Both give printf's bytes.
// \uXXXX escapes outside the BMP-ASCII range are replaced with '?'. These
// never matter for the serve protocol.

#ifndef KNNSHAP_UTIL_JSON_H_
#define KNNSHAP_UTIL_JSON_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace knnshap {

struct Dataset;
enum class CsvTarget;
class ThreadPool;

/// A JSON value (null, bool, number, string, array or object).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull), payload_{.number = 0.0} {}
  explicit JsonValue(bool b) : type_(Type::kBool), payload_{.boolean = b} {}
  explicit JsonValue(double n) : type_(Type::kNumber), payload_{.number = n} {}
  explicit JsonValue(int n)
      : type_(Type::kNumber), payload_{.number = static_cast<double>(n)} {}
  explicit JsonValue(std::string s);
  explicit JsonValue(const char* s);

  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept
      : type_(other.type_), payload_(other.payload_) {
    other.type_ = Type::kNull;
  }
  JsonValue& operator=(const JsonValue& other) {
    JsonValue copy(other);
    Swap(copy);
    return *this;
  }
  JsonValue& operator=(JsonValue&& other) noexcept {
    JsonValue taken(std::move(other));
    Swap(taken);
    return *this;
  }
  ~JsonValue() {
    if (type_ >= Type::kString) Release();
  }

  static JsonValue MakeArray();
  static JsonValue MakeObject();

  Type GetType() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  /// Typed accessors; defaults are returned on type mismatch so protocol
  /// handlers can express "field with fallback" in one call. AsString,
  /// Items and Fields return a shared empty constant on a mismatch.
  bool AsBool(bool fallback = false) const {
    return IsBool() ? payload_.boolean : fallback;
  }
  double AsNumber(double fallback = 0.0) const {
    return IsNumber() ? payload_.number : fallback;
  }
  const std::string& AsString() const {
    return IsString() ? *payload_.string : EmptyString();
  }

  /// Mutable items (converts this value to an array if needed).
  std::vector<JsonValue>& Items();
  const std::vector<JsonValue>& Items() const {
    return IsArray() ? *payload_.items : EmptyItems();
  }

  /// Object field lookup; returns a shared null value when absent.
  const JsonValue& Get(const std::string& key) const;
  bool Has(const std::string& key) const;

  /// Object field assignment (converts this value to an object if needed).
  void Set(const std::string& key, JsonValue value);
  const std::vector<std::pair<std::string, JsonValue>>& Fields() const {
    return IsObject() ? *payload_.fields : EmptyFields();
  }

  /// Appends to an array (converts this value to an array if needed).
  void Append(JsonValue value);

  /// Serializes to a compact single-line string.
  std::string Dump() const;

 private:
  friend class JsonParser;
  using FieldList = std::vector<std::pair<std::string, JsonValue>>;

  /// An array or object that owns the given children.
  explicit JsonValue(std::vector<JsonValue>&& items);
  explicit JsonValue(FieldList&& fields);

  union Payload {
    bool boolean;
    double number;
    std::string* string;
    std::vector<JsonValue>* items;
    FieldList* fields;
  };

  static const std::string& EmptyString();
  static const std::vector<JsonValue>& EmptyItems();
  static const FieldList& EmptyFields();

  void Swap(JsonValue& other) noexcept {
    std::swap(type_, other.type_);
    std::swap(payload_, other.payload_);
  }
  /// Frees the owned string or container (string, array and object only).
  void Release();

  Type type_;
  Payload payload_;
};

static_assert(sizeof(JsonValue) <= 16, "JsonValue is a tag plus one word");

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
JsonParseResult ParseJson(std::string_view text);

/// Lines shorter than this are never split: ParseJsonWithRows hands them
/// to ParseJson, whose tree costs less than a round of the pool there.
inline constexpr size_t kJsonRowsMinBytes = size_t{64} << 10;

/// ParseJsonWithRows decodes a `rows` array in chunks of about this many
/// bytes. Chunk k > 0 starts at the first '[' at or after byte
/// k * kJsonRowsChunkBytes of the array (counted from its own '['), so
/// every chunk starts on a row.
inline constexpr size_t kJsonRowsChunkBytes = size_t{16} << 10;

/// Picks how the decoded rows store each row's last cell, from the request
/// parsed without them; false declines the decode.
using JsonRowsTarget = std::function<bool(const JsonValue& request, CsvTarget* target)>;

/// ParseJson(line), except that a long line's top-level "rows" array of
/// number rows is decoded straight into `rows` (features, then labels or
/// targets by `target_of`), split at row boundaries and decoded chunk by
/// chunk across `pool`, and parsed into the tree as null; *rows_decoded
/// tells which. The cells go through ParseJson's number grammar and
/// FeatureFromCell / LabelFromCell, every row must match the first one's
/// arity, and `rows` must hold at least one row. Any deviation — a syntax
/// fault anywhere, a non-number, a ragged row, a cell out of range, a
/// repeated "rows" key, a line under kJsonRowsMinBytes, or `target_of`
/// declining — returns exactly ParseJson(line) with *rows_decoded false,
/// so the caller's tree path finds the same errors in the same order.
/// Safe on a pool worker or beside jobs that hold the pool: the caller
/// decodes any chunk no worker picks up.
JsonParseResult ParseJsonWithRows(std::string_view line, ThreadPool& pool,
                                  const JsonRowsTarget& target_of, Dataset* rows,
                                  bool* rows_decoded);

/// The largest integer a request field may carry: every integer up to it
/// is exact in a double.
inline constexpr size_t kMaxJsonInteger = 1'000'000'000'000'000;  // 1e15

/// The integer request field `value`, in [min_value, max_value], into
/// *out. False for a non-number, a fraction or a value out of range; the
/// range is checked before the cast, which a double outside size_t would
/// make undefined. max_value must not exceed kMaxJsonInteger.
bool JsonInteger(const JsonValue& value, size_t min_value, size_t max_value,
                 size_t* out);

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_JSON_H_
