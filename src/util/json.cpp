// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/json.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <numeric>
#include <system_error>

#include "dataset/io.h"
#include "util/thread_pool.h"

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

const char* SkipJsonSpace(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  return p;
}

// The number token at p: an optional sign, then every following digit,
// '.', 'e', 'E', '-' or '+'. Sets *digits when it holds a digit; the
// token is a number only if it does and ParseDouble takes all of it.
const char* ScanNumber(const char* p, const char* end, bool* digits) {
  if (p != end && (*p == '-' || *p == '+')) ++p;
  *digits = false;
  for (; p != end; ++p) {
    const char c = *p;
    if (c >= '0' && c <= '9') {
      *digits = true;
    } else if (c != '.' && c != 'e' && c != 'E' && c != '-' && c != '+') {
      break;
    }
  }
  return p;
}

}  // namespace

// Recursive-descent parser over a bounded character range. The children
// of every open array and object wait on the parser's two stacks; the
// closing bracket moves them into one exactly sized vector.
//
// With a `hole_key`, an array value of that key in the top-level object is
// skipped, not parsed: it becomes null in the tree and its bytes are left
// in [HoleBegin(), HoleEnd()) for ParseJsonWithRows to decode. The skip
// takes the array to end at its first ']' followed, past white space, by
// another ']' — true of an array of number rows, and the decoder rejects
// every other array. A hole key that repeats is an error. HoleSeen() is
// false while the parse has gone exactly as ParseJson's.
class JsonParser {
 public:
  JsonParser(const char* begin, const char* end, std::string_view hole_key = {})
      : p_(begin), end_(end), hole_key_(hole_key) {}

  bool HoleSeen() const { return hole_seen_; }
  const char* HoleBegin() const { return hole_begin_; }
  const char* HoleEnd() const { return hole_end_; }

  JsonParseResult Run() {
    JsonParseResult result;
    result.value = ParseValue(&result.error);
    if (!result.error.empty()) return result;
    SkipWhitespace();
    if (p_ != end_) result.error = "trailing characters after document";
    return result;
  }

 private:
  void SkipWhitespace() { p_ = SkipJsonSpace(p_, end_); }

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
      case '"': {
        std::string s;
        ParseString(&s, error);
        return JsonValue(std::move(s));
      }
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
    SkipWhitespace();
    if (Consume('}')) return JsonValue::MakeObject();
    const size_t base = fields_.size();
    while (true) {
      SkipWhitespace();
      if (p_ == end_ || *p_ != '"') {
        *error = "expected object key";
        return JsonValue();
      }
      std::string key;
      if (!ParseString(&key, error)) return JsonValue();
      SkipWhitespace();
      if (!Consume(':')) {
        *error = "expected ':' after key";
        return JsonValue();
      }
      JsonValue value = AtHole(key) ? SkipHole(error) : ParseValue(error);
      if (!error->empty()) return JsonValue();
      fields_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return CloseObject(base);
      if (!Consume(',')) {
        *error = "expected ',' or '}' in object";
        return JsonValue();
      }
    }
  }

  // Whether the value at p_, of `key`, is the hole (see the class
  // comment): the hole key's array in the top-level object, or any
  // repeat of the hole key there.
  bool AtHole(const std::string& key) {
    if (depth_ != 1 || hole_key_.empty() || key != hole_key_) return false;
    SkipWhitespace();
    return hole_keys_++ > 0 || (p_ != end_ && *p_ == '[');
  }

  // Skips the hole's array; null in the tree.
  JsonValue SkipHole(std::string* error) {
    hole_seen_ = true;
    if (hole_keys_ > 1) {
      *error = "repeated array of rows";
      return JsonValue();
    }
    for (const char* close = p_;;) {
      close = static_cast<const char*>(std::memchr(close, ']', end_ - close));
      if (close == nullptr) {
        *error = "unterminated array of rows";
        return JsonValue();
      }
      const char* next = SkipJsonSpace(close + 1, end_);
      if (next != end_ && *next == ']') {
        hole_begin_ = p_;
        hole_end_ = p_ = next + 1;
        return JsonValue();
      }
      close = next;
    }
  }

  // Moves fields_[base..] into one object. A repeated key keeps its first
  // position and takes the last value. The positions are sorted by (key,
  // position), so each run of equal keys starts at the first position and
  // ends at the last value: O(n log n) key comparisons whatever the keys.
  JsonValue CloseObject(size_t base) {
    auto* const first = fields_.data() + base;
    const size_t count = fields_.size() - base;
    order_.resize(count);
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      const int c = first[a].first.compare(first[b].first);
      return c < 0 || (c == 0 && a < b);
    });
    dropped_.assign(count, 0);
    size_t kept = count;
    for (size_t run = 0; run < count;) {
      auto& head = first[order_[run]];
      size_t next = run + 1;
      while (next < count && first[order_[next]].first == head.first) {
        dropped_[order_[next]] = 1;
        ++next;
      }
      if (next - run > 1) {
        head.second = std::move(first[order_[next - 1]].second);
        kept -= next - run - 1;
      }
      run = next;
    }
    JsonValue::FieldList out;
    out.reserve(kept);
    for (size_t i = 0; i < count; ++i) {
      if (!dropped_[i]) out.push_back(std::move(first[i]));
    }
    fields_.resize(base);
    return JsonValue(std::move(out));
  }

  JsonValue ParseArray(std::string* error) {
    ++p_;  // '['
    SkipWhitespace();
    if (Consume(']')) return JsonValue::MakeArray();
    const size_t base = items_.size();
    while (true) {
      items_.push_back(ParseValue(error));
      if (!error->empty()) return JsonValue();
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) {
        *error = "expected ',' or ']' in array";
        return JsonValue();
      }
    }
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<JsonValue> items(std::make_move_iterator(first),
                                 std::make_move_iterator(items_.end()));
    items_.erase(first, items_.end());
    return JsonValue(std::move(items));
  }

  // Parses the string at p_ (on its opening quote) into *out; false (and
  // *error set) on a malformed string.
  bool ParseString(std::string* out, std::string* error) {
    ++p_;  // '"'
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
      out->append(p_, stop);
      p_ = stop;
      if (p_ == end_) break;
      ++p_;
      if (stop == quote) return true;
      if (p_ == end_) break;
      char esc = *p_++;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_))) {
              *error = "bad \\u escape";
              return false;
            }
            char h = *p_++;
            code = code * 16 +
                   static_cast<unsigned>(h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          *error = "bad escape character";
          return false;
      }
    }
    *error = "unterminated string";
    return false;
  }

  JsonValue ParseNumber(std::string* error) {
    const char* start = p_;
    bool digits = false;
    p_ = ScanNumber(p_, end_, &digits);
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
  std::string_view hole_key_;
  int hole_keys_ = 0;
  bool hole_seen_ = false;
  const char* hole_begin_ = nullptr;
  const char* hole_end_ = nullptr;
  int depth_ = 0;
  std::vector<JsonValue> items_;  // items of the open arrays
  JsonValue::FieldList fields_;   // fields of the open objects
  std::vector<size_t> order_;     // CloseObject's sorted field positions
  std::vector<char> dropped_;     // CloseObject's repeated-key marks
};

namespace {

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

using Uint128 = unsigned __int128;

constexpr uint64_t kPow10To16 = 10'000'000'000'000'000;
constexpr uint64_t kPow10To17 = 100'000'000'000'000'000;

// 5^0 .. 5^32. 5^32 < 2^75, so m * 5^k < 2^128 for every 53-bit m.
constexpr std::array<Uint128, 33> kPow5 = [] {
  std::array<Uint128, 33> pow5{};
  pow5[0] = 1;
  for (size_t k = 1; k < pow5.size(); ++k) pow5[k] = pow5[k - 1] * 5;
  return pow5;
}();

constexpr char kDigitPairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

// %.17g's digits of a = |n| = m * 2^e, exactly, in integer arithmetic:
// the 17-digit integer q = round(a * 10^k) and the decimal exponent x of
// its first digit, with k = 16 - x. a * 10^k = m * 5^k * 2^(e+k), so q is
// m * 5^k in 128 bits, shifted right by -(e+k) bits; the remainder
// against half the divisor rounds, and an exact tie goes to the even q,
// as printf does. Returns false, and the caller falls back to to_chars,
// for zero, subnormals, Inf/NaN and every a whose k leaves [0, 32]:
// roughly a < 1e-16 or a >= 1e17.
//
// x starts as floor(log10(2^b)) for a's binary exponent b (b * 78913 >>
// 18 is that floor for every normal b), which is x or one below it. The estimate is one low exactly when the unrounded quotient
// reaches 10^17; the pass then reruns with k one smaller. A q that rounds
// up to 10^17 is 10^16 with x one higher, as in %e. (DumpNumber never
// prints such a q: its digits 7-17 are zero, and %g reads it back.)
bool SeventeenDigits(double n, uint64_t* q_out, int* x_out) {
  uint64_t bits;
  std::memcpy(&bits, &n, sizeof bits);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0 || biased == 0x7ff) return false;
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int e = biased - 1075;
  int x = ((e + 52) * 78913) >> 18;
  for (;;) {
    const int k = 16 - x;
    if (k < 0 || k > 32) return false;
    const Uint128 scaled = m * kPow5[static_cast<size_t>(k)];
    const int shift = -(e + k);
    // For shift <= 0, a * 10^k is an integer: there is nothing to round.
    const Uint128 quotient = shift <= 0 ? scaled << -shift : scaled >> shift;
    if (quotient >= kPow10To17) {
      ++x;
      continue;
    }
    uint64_t q = static_cast<uint64_t>(quotient);
    if (shift > 0) {
      const Uint128 rem = scaled & ((Uint128{1} << shift) - 1);
      const Uint128 half = Uint128{1} << (shift - 1);
      if (rem > half || (rem == half && (q & 1) != 0)) ++q;
    }
    if (q == kPow10To17) {
      q = kPow10To16;
      ++x;
    }
    *q_out = q;
    *x_out = x;
    return true;
  }
}

void WriteEightDigits(uint32_t v, char* out) {
  const uint32_t high = v / 10000;
  const uint32_t low = v % 10000;
  std::memcpy(out, kDigitPairs + 2 * (high / 100), 2);
  std::memcpy(out + 2, kDigitPairs + 2 * (high % 100), 2);
  std::memcpy(out + 4, kDigitPairs + 2 * (low / 100), 2);
  std::memcpy(out + 6, kDigitPairs + 2 * (low % 100), 2);
}

// Writes SeventeenDigits' (q, x) by %.17g's rules at `p` and returns the
// end: trailing zeros stripped, scientific notation with a sign and at
// least two exponent digits when x < -4 or x >= 17, else fixed notation.
// |x| <= 17 here, so the exponent is always two digits.
char* FormatSeventeenDigits(bool negative, uint64_t q, int x, char* p) {
  char digits[17];
  digits[0] = static_cast<char>('0' + q / kPow10To16);
  const uint64_t rest = q % kPow10To16;
  WriteEightDigits(static_cast<uint32_t>(rest / 100'000'000), digits + 1);
  WriteEightDigits(static_cast<uint32_t>(rest % 100'000'000), digits + 9);
  int len = 17;
  while (digits[len - 1] == '0') --len;  // q >= 10^16: digits[0] != '0'
  if (negative) *p++ = '-';
  if (x < -4 || x >= 17) {
    *p++ = digits[0];
    if (len > 1) {
      *p++ = '.';
      std::memcpy(p, digits + 1, static_cast<size_t>(len - 1));
      p += len - 1;
    }
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    std::memcpy(p, kDigitPairs + 2 * std::abs(x), 2);
    return p + 2;
  }
  if (x < 0) {
    *p++ = '0';
    *p++ = '.';
    for (int i = 0; i < -x - 1; ++i) *p++ = '0';
    std::memcpy(p, digits, static_cast<size_t>(len));
    return p + len;
  }
  std::memcpy(p, digits, static_cast<size_t>(x + 1));
  p += x + 1;
  if (len > x + 1) {
    *p++ = '.';
    std::memcpy(p, digits + x + 1, static_cast<size_t>(len - x - 1));
    p += len - x - 1;
  }
  return p;
}

// %g when it reads back losslessly, else %.17g (exact for every double);
// null for Inf/NaN, which JSON lacks. to_chars with an explicit precision
// prints printf's bytes.
//
// The %.17g digits come first, from SeventeenDigits, and usually show
// that %g cannot read back, so no %g print or parse-back is needed. If
// %g's 6-digit decimal D6 reads back to n, then n is the double nearest
// D6, so |D6 - n| is at most half an ulp of n, below 11.2 units of n's
// 17th significant digit for every normal n. The 17-digit q is within
// half a unit of n. So q lies within 12 units of a multiple of 10^11 (D6's
// grid): digits 7-17, q % 10^11, are near 0 or near 10^11. Only then, or
// outside SeventeenDigits' range, does the exact %g check run.
void DumpNumber(double n, std::string* out) {
  if (!std::isfinite(n)) {
    *out += "null";
    return;
  }
  if (n == 0.0) {
    // %g's bytes for both zeros, without the round-trip check: most of a
    // truncated valuation's values are exactly zero.
    *out += std::signbit(n) ? "-0" : "0";
    return;
  }
  constexpr uint64_t kTailGrid = 100'000'000'000;  // 10^11
  constexpr uint64_t kTailSlack = 16;
  uint64_t q = 0;
  int x = 0;
  const bool exact = SeventeenDigits(std::fabs(n), &q, &x);
  const uint64_t tail = q % kTailGrid;
  char buf[32];
  if (!exact || tail <= kTailSlack || kTailGrid - tail <= kTailSlack) {
    char* const end =
        std::to_chars(buf, buf + sizeof buf, n, std::chars_format::general, 6).ptr;
    double back = 0.0;
    if (ParseDouble(buf, end, &back) && back == n) {
      out->append(buf, end);
      return;
    }
  }
  char* const end =
      exact ? FormatSeventeenDigits(std::signbit(n), q, x, buf)
            : std::to_chars(buf, buf + sizeof buf, n, std::chars_format::general, 17).ptr;
  out->append(buf, end);
}

void DumpInto(const JsonValue& v, std::string* out) {
  switch (v.GetType()) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += v.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      DumpNumber(v.AsNumber(), out);
      break;
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

JsonValue::JsonValue(std::string s)
    : type_(Type::kString), payload_{.string = new std::string(std::move(s))} {}

JsonValue::JsonValue(const char* s)
    : type_(Type::kString), payload_{.string = new std::string(s)} {}

JsonValue::JsonValue(const JsonValue& other)
    : type_(other.type_), payload_(other.payload_) {
  switch (type_) {
    case Type::kString:
      payload_.string = new std::string(*other.payload_.string);
      break;
    case Type::kArray:
      payload_.items = new std::vector<JsonValue>(*other.payload_.items);
      break;
    case Type::kObject:
      payload_.fields = new FieldList(*other.payload_.fields);
      break;
    default:
      break;
  }
}

void JsonValue::Release() {
  switch (type_) {
    case Type::kString:
      delete payload_.string;
      break;
    case Type::kArray:
      delete payload_.items;
      break;
    case Type::kObject:
      delete payload_.fields;
      break;
    default:
      break;
  }
}

JsonValue::JsonValue(std::vector<JsonValue>&& items)
    : type_(Type::kArray),
      payload_{.items = new std::vector<JsonValue>(std::move(items))} {}

JsonValue::JsonValue(FieldList&& fields)
    : type_(Type::kObject), payload_{.fields = new FieldList(std::move(fields))} {}

JsonValue JsonValue::MakeArray() { return JsonValue(std::vector<JsonValue>()); }

JsonValue JsonValue::MakeObject() { return JsonValue(FieldList()); }

const std::string& JsonValue::EmptyString() {
  static const std::string empty;
  return empty;
}

const std::vector<JsonValue>& JsonValue::EmptyItems() {
  static const std::vector<JsonValue> empty;
  return empty;
}

const JsonValue::FieldList& JsonValue::EmptyFields() {
  static const FieldList empty;
  return empty;
}

std::vector<JsonValue>& JsonValue::Items() {
  if (!IsArray()) *this = MakeArray();
  return *payload_.items;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  for (const auto& [k, v] : Fields()) {
    if (k == key) return v;
  }
  return kNullValue;
}

bool JsonValue::Has(const std::string& key) const {
  for (const auto& [k, v] : Fields()) {
    if (k == key) return true;
  }
  return false;
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  if (!IsObject()) *this = MakeObject();
  for (auto& [k, v] : *payload_.fields) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  payload_.fields->emplace_back(key, std::move(value));
}

void JsonValue::Append(JsonValue value) {
  if (!IsArray()) *this = MakeArray();
  payload_.items->push_back(std::move(value));
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpInto(*this, &out);
  return out;
}

JsonParseResult ParseJson(std::string_view text) {
  JsonParser parser(text.data(), text.data() + text.size());
  return parser.Run();
}

namespace {

// Where DecodeRowsChunk writes: `arity` cells per row, the first `cols` of
// them features, the last a label or target when `target` asks for one.
struct RowsSink {
  CsvTarget target;
  size_t arity;
  size_t cols;
  float* features;
  int* labels;
  double* targets;
};

constexpr double kExactPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                  1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

// The usual cell, a number token of an optional '-' and at most 15 digits
// around at most one '.', parsed in one pass: its value w / 10^k has
// w < 10^15 < 2^53 and k <= 15, both exact doubles, so the division is the
// correctly rounded value strtod returns. Returns the token's end, or null
// for any other token (an exponent, a '+', more digits), which
// ParseDouble then takes.
const char* ParseShortDecimal(const char* p, const char* end, double* out) {
  const bool negative = p != end && *p == '-';
  const char* q = p + (negative ? 1 : 0);
  uint64_t w = 0;
  int digits = 0;
  int fraction = -1;  // digits after the '.'; -1 before it
  for (; q != end; ++q) {
    const unsigned digit = static_cast<unsigned>(*q - '0');
    if (digit < 10) {
      w = w * 10 + digit;
      ++digits;
      if (fraction >= 0) ++fraction;
    } else if (*q == '.' && fraction < 0) {
      fraction = 0;
    } else {
      break;
    }
  }
  if (digits == 0 || digits > 15) return nullptr;
  // The token must end here, as ScanNumber would end it.
  if (q != end && (*q == '.' || *q == 'e' || *q == 'E' || *q == '+' || *q == '-')) {
    return nullptr;
  }
  double value = static_cast<double>(w);
  if (fraction > 0) value /= kExactPow10[fraction];
  *out = negative ? -value : value;
  return q;
}

// Decodes the rows of one chunk, [p, stop) with p on its first '[', into
// rows [row, row_end) of `sink`; false on any deviation, having written
// only inside those rows. A chunk but the last ends where the next one
// starts, right after a row's ',' and white space; the last ends just past
// the array's closing ']'.
bool DecodeRowsChunk(const char* p, const char* stop, bool last, size_t row,
                     size_t row_end, const RowsSink& sink) {
  for (;; ++row) {
    if (p == stop || *p != '[' || row == row_end) return false;
    ++p;
    float* const features = sink.features + row * sink.cols;
    for (size_t cell = 0;; ++cell) {
      p = SkipJsonSpace(p, stop);
      if (cell == sink.arity) return false;
      double value = 0.0;
      const char* token_end = ParseShortDecimal(p, stop, &value);
      if (token_end == nullptr) {
        bool digits = false;
        token_end = ScanNumber(p, stop, &digits);
        if (!digits || !ParseDouble(p, token_end, &value)) return false;
      }
      if (cell < sink.cols) {
        if (!FeatureFromCell(value, features + cell)) return false;
      } else if (sink.target == CsvTarget::kLabel) {
        if (!LabelFromCell(value, sink.labels + row)) return false;
      } else {
        sink.targets[row] = value;
      }
      p = SkipJsonSpace(token_end, stop);
      if (p == stop) return false;
      if (*p == ']') {
        if (cell + 1 != sink.arity) return false;
        ++p;
        break;
      }
      if (*p != ',') return false;
      ++p;
    }
    p = SkipJsonSpace(p, stop);
    if (p == stop) return false;
    if (*p == ']') return last && p + 1 == stop && row + 1 == row_end;
    if (*p != ',') return false;
    p = SkipJsonSpace(p + 1, stop);
    if (p == stop) return !last && row + 1 == row_end;
  }
}

// Decodes the array of number rows [begin, end) — begin on its '[', end
// just past its ']' — into *out, chunk by chunk across `pool`. Each row is
// one '[', so counting them per chunk gives every chunk its first row
// before any is decoded, and the chunks write straight into the corpus.
bool DecodeRows(const char* begin, const char* end, CsvTarget target,
                ThreadPool& pool, Dataset* out) {
  const char* const first = SkipJsonSpace(begin + 1, end);
  if (first == end || *first != '[') return false;
  // The first row's cells are its commas plus one; every row must match.
  // end[-1] is ']', so the search cannot miss.
  const char* const first_close =
      static_cast<const char*>(std::memchr(first, ']', end - first));
  const size_t arity = 1 + static_cast<size_t>(std::count(first, first_close, ','));
  const size_t cols = target == CsvTarget::kNone ? arity : arity - 1;
  if (cols == 0) return false;

  std::vector<const char*> starts = {first};
  const size_t bytes = static_cast<size_t>(end - begin);
  for (size_t offset = kJsonRowsChunkBytes; offset < bytes;
       offset += kJsonRowsChunkBytes) {
    const void* next = std::memchr(begin + offset, '[', bytes - offset);
    if (next == nullptr) break;
    if (next > starts.back()) starts.push_back(static_cast<const char*>(next));
  }
  const size_t chunks = starts.size();
  starts.push_back(end);
  std::vector<size_t> first_row(chunks + 1, 0);
  pool.ParallelForHelping(chunks, [&](size_t c) {
    first_row[c + 1] = static_cast<size_t>(std::count(starts[c], starts[c + 1], '['));
  });
  std::partial_sum(first_row.begin(), first_row.end(), first_row.begin());
  const size_t rows = first_row[chunks];
  // Every cell holds a digit: this bounds the buffers by the line.
  if (rows > bytes / arity) return false;

  Dataset data;
  data.features = Matrix(rows, cols);
  if (target == CsvTarget::kLabel) data.labels.resize(rows);
  if (target == CsvTarget::kTarget) data.targets.resize(rows);
  const RowsSink sink{target, arity, cols, &data.features.At(0, 0), data.labels.data(),
                      data.targets.data()};
  std::atomic<bool> failed{false};
  pool.ParallelForHelping(chunks, [&](size_t c) {
    if (failed.load(std::memory_order_relaxed)) return;
    if (!DecodeRowsChunk(starts[c], starts[c + 1], c + 1 == chunks, first_row[c],
                         first_row[c + 1], sink)) {
      failed.store(true, std::memory_order_relaxed);
    }
  });
  if (failed.load(std::memory_order_relaxed)) return false;
  *out = std::move(data);
  return true;
}

}  // namespace

JsonParseResult ParseJsonWithRows(std::string_view line, ThreadPool& pool,
                                  const JsonRowsTarget& target_of, Dataset* rows,
                                  bool* rows_decoded) {
  *rows_decoded = false;
  if (line.size() < kJsonRowsMinBytes) return ParseJson(line);
  JsonParser parser(line.data(), line.data() + line.size(), "rows");
  JsonParseResult result = parser.Run();
  // A parse that met no top-level "rows" key went exactly as ParseJson's.
  if (!parser.HoleSeen()) return result;
  CsvTarget target = CsvTarget::kNone;
  if (result.ok() && target_of(result.value, &target) &&
      DecodeRows(parser.HoleBegin(), parser.HoleEnd(), target, pool, rows)) {
    *rows_decoded = true;
    return result;
  }
  return ParseJson(line);
}

bool JsonInteger(const JsonValue& value, size_t min_value, size_t max_value,
                 size_t* out) {
  const double number = value.AsNumber(-1.0);
  if (!value.IsNumber() || !(number >= static_cast<double>(min_value) &&
                             number <= static_cast<double>(max_value)) ||
      number != std::floor(number)) {
    return false;
  }
  *out = static_cast<size_t>(number);
  return true;
}

}  // namespace knnshap
