// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Tests for the minimal JSON module backing the knnshap_serve protocol:
// the value type's ownership, the parser (including a seeded mutation
// suite over real request lines, which CI runs under ASan/UBSan), and the
// number codec against the printf/strtod rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/exact_knn_shapley.h"
#include "dataset/io.h"
#include "util/json.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace knnshap {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null").value.IsNull());
  EXPECT_TRUE(ParseJson("true").value.AsBool());
  EXPECT_FALSE(ParseJson("false").value.AsBool(true));
  EXPECT_DOUBLE_EQ(ParseJson("3.25").value.AsNumber(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-1e3").value.AsNumber(), -1000.0);
  EXPECT_EQ(ParseJson("\"hi\\nthere\"").value.AsString(), "hi\nthere");
}

TEST(JsonParseTest, NestedDocument) {
  auto result = ParseJson(
      R"({"op":"value","k":5,"rows":[[1,2,0],[3,4,1]],"cache":true,"who":null})");
  ASSERT_TRUE(result.ok()) << result.error;
  const JsonValue& v = result.value;
  EXPECT_EQ(v.Get("op").AsString(), "value");
  EXPECT_EQ(static_cast<int>(v.Get("k").AsNumber()), 5);
  ASSERT_TRUE(v.Get("rows").IsArray());
  ASSERT_EQ(v.Get("rows").Items().size(), 2u);
  EXPECT_DOUBLE_EQ(v.Get("rows").Items()[1].Items()[0].AsNumber(), 3.0);
  EXPECT_TRUE(v.Get("cache").AsBool());
  EXPECT_TRUE(v.Get("who").IsNull());
  EXPECT_FALSE(v.Has("absent"));
  EXPECT_TRUE(v.Get("absent").IsNull());
}

TEST(JsonParseTest, Whitespace) {
  auto result = ParseJson("  { \"a\" : [ 1 , 2 ] }  ");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value.Get("a").Items().size(), 2u);
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nulll").ok());        // trailing characters
  EXPECT_FALSE(ParseJson("{} {}").ok());        // two documents on one line
  EXPECT_FALSE(ParseJson("{1:2}").ok());        // non-string key
  EXPECT_FALSE(ParseJson("--3").ok());
}

TEST(JsonDumpTest, RoundTrip) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("ok", JsonValue(true));
  obj.Set("name", JsonValue("corpus \"a\"\n"));
  obj.Set("count", JsonValue(3.0));
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(JsonValue(0.1));
  arr.Append(JsonValue());
  obj.Set("values", arr);

  std::string text = obj.Dump();
  auto reparsed = ParseJson(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_TRUE(reparsed.value.Get("ok").AsBool());
  EXPECT_EQ(reparsed.value.Get("name").AsString(), "corpus \"a\"\n");
  EXPECT_DOUBLE_EQ(reparsed.value.Get("count").AsNumber(), 3.0);
  EXPECT_EQ(reparsed.value.Get("values").Items().size(), 2u);
}

TEST(JsonDumpTest, DoublesRoundTripExactly) {
  // The serve protocol carries Shapley values; serialization must not lose
  // bits (%.17g fallback when %g is lossy).
  for (double v : {1.0 / 3.0, 0.1, 1e-17, 123456789.123456789, -0.0037037}) {
    std::string text = JsonValue(v).Dump();
    auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value.AsNumber(), v) << text;
  }
}

TEST(JsonDumpTest, SetReplacesExistingKey) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("a", JsonValue(1.0));
  obj.Set("a", JsonValue(2.0));
  EXPECT_EQ(obj.Fields().size(), 1u);
  EXPECT_DOUBLE_EQ(obj.Get("a").AsNumber(), 2.0);
}

TEST(JsonValueTest, CopiesAreDeepAndIndependent) {
  JsonValue original = ParseJson(R"({"name":"a","rows":[[1,2],[3]],"meta":{"k":5}})").value;
  const std::string before = original.Dump();
  JsonValue copy = original;
  copy.Set("name", JsonValue("b"));
  copy.Items();  // converts the copy to an array
  EXPECT_TRUE(copy.IsArray());
  EXPECT_EQ(original.Dump(), before);

  JsonValue nested = original;
  JsonValue rows = nested.Get("rows");
  rows.Items()[0].Append(JsonValue(9.0));
  nested.Set("rows", rows);
  EXPECT_EQ(nested.Get("rows").Dump(), "[[1,2,9],[3]]");
  EXPECT_EQ(original.Get("rows").Dump(), "[[1,2],[3]]");
  EXPECT_EQ(original.Dump(), before);
}

TEST(JsonValueTest, AssignmentAcrossTypesAndToItself) {
  const JsonValue array = ParseJson("[1,\"two\",[3]]").value;
  const JsonValue object = ParseJson(R"({"a":{"b":[true,null]}})").value;
  JsonValue v("string");
  v = array;
  EXPECT_EQ(v.Dump(), "[1,\"two\",[3]]");
  v = object;
  EXPECT_EQ(v.Dump(), R"({"a":{"b":[true,null]}})");
  v = JsonValue(2.5);
  EXPECT_EQ(v.Dump(), "2.5");
  v = JsonValue("s");
  EXPECT_EQ(v.Dump(), "\"s\"");
  v = JsonValue();
  EXPECT_TRUE(v.IsNull());

  v = object;
  const JsonValue& alias = v;
  v = alias;  // self copy-assignment
  EXPECT_EQ(v.Dump(), object.Dump());
  v = v.Get("a");  // from a value v owns
  EXPECT_EQ(v.Dump(), R"({"b":[true,null]})");
  v = array;
  v = std::move(v.Items()[2]);  // steal from a value v owns
  EXPECT_EQ(v.Dump(), "[3]");
  JsonValue& same = v;
  v = std::move(same);  // self move-assignment keeps the value
  EXPECT_EQ(v.Dump(), "[3]");
}

TEST(JsonValueTest, MovedFromValuesAreNull) {
  for (JsonValue source : {JsonValue(true), JsonValue(1.5), JsonValue("text"),
                           ParseJson("[1,[2]]").value, ParseJson(R"({"a":"b"})").value}) {
    const std::string text = source.Dump();
    JsonValue target(std::move(source));
    EXPECT_TRUE(source.IsNull()) << text;
    EXPECT_EQ(target.Dump(), text);
    JsonValue assigned;
    assigned = std::move(target);
    EXPECT_TRUE(target.IsNull()) << text;
    EXPECT_EQ(assigned.Dump(), text);
  }
}

TEST(JsonValueTest, WrongTypeAccessorsReturnEmpty) {
  const JsonValue values[] = {JsonValue(),
                              JsonValue(false),
                              JsonValue(7.0),
                              JsonValue("s"),
                              ParseJson("[1]").value,
                              ParseJson(R"({"b":1})").value};
  for (const JsonValue& v : values) {
    EXPECT_EQ(v.AsString().empty(), !v.IsString()) << v.Dump();
    EXPECT_EQ(v.Items().empty(), !v.IsArray()) << v.Dump();
    EXPECT_EQ(v.Fields().empty(), !v.IsObject()) << v.Dump();
    EXPECT_TRUE(v.Get("a").IsNull());
    EXPECT_FALSE(v.Has("a"));
    EXPECT_EQ(v.AsNumber(-1.0), v.IsNumber() ? 7.0 : -1.0);
    EXPECT_EQ(v.AsBool(true), !v.IsBool());
  }
  // Mutators convert: Set makes an object, Append and Items an array.
  JsonValue v(3.0);
  v.Set("k", JsonValue(1));
  EXPECT_EQ(v.Dump(), R"({"k":1})");
  v.Append(JsonValue("x"));
  EXPECT_EQ(v.Dump(), R"(["x"])");
  JsonValue s("text");
  s.Items().emplace_back(2.0);
  EXPECT_EQ(s.Dump(), "[2]");
}

TEST(JsonParseTest, DuplicateKeysKeepFirstPositionAndLastValue) {
  EXPECT_EQ(ParseJson(R"({"a":1,"b":2,"a":3})").value.Dump(), R"({"a":3,"b":2})");
  EXPECT_EQ(ParseJson(R"({"a":1,"a":{"x":[1]},"a":null})").value.Dump(),
            R"({"a":null})");
  // Objects of 1-200 fields with many repeats must give the same object as
  // Set, which replaces in place.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t fields = 1 + rng.NextIndex(200);
    std::string text = "{";
    JsonValue expected = JsonValue::MakeObject();
    for (size_t f = 0; f < fields; ++f) {
      std::string key = "k";
      key += std::to_string(rng.NextIndex(fields / 2 + 1));
      text += f > 0 ? ",\"" : "\"";
      text += key;
      text += "\":";
      text += std::to_string(f);
      expected.Set(key, JsonValue(static_cast<double>(f)));
    }
    text += "}";
    const JsonParseResult parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(parsed.value.Dump(), expected.Dump()) << text;
  }
}

// One object of `count` fields; field i is "<prefix><key(i)>":i.
std::string ObjectText(size_t count, const std::string& prefix,
                       const std::function<size_t(size_t)>& key) {
  std::string text = "{";
  for (size_t i = 0; i < count; ++i) {
    text += i > 0 ? ",\"" : "\"";
    text += prefix + std::to_string(key(i));
    text += "\":";
    text += std::to_string(i);
  }
  return text + "}";
}

TEST(JsonParseTest, LargeObjectsParseQuickly) {
  // A quadratic duplicate scan takes minutes on 200k distinct keys and
  // stalls the server's reader thread. One key repeated 200k times and
  // descending keys behind a shared 256-byte prefix are a key sort's
  // worst cases.
  const std::string prefix(256, 'p');
  struct Case {
    std::string text;
    size_t fields;
    std::string first_key;
    std::string probe_key;
    double probe_value;
  };
  const Case cases[] = {
      {ObjectText(200'000, "key", [](size_t i) { return i; }), 200'000, "key0",
       "key123456", 123456.0},
      {ObjectText(200'000, "a", [](size_t) { return size_t{0}; }), 1, "a0", "a0",
       199'999.0},
      {ObjectText(50'000, prefix, [](size_t i) { return 49'999 - i; }), 50'000,
       prefix + "49999", prefix + "12345", 37'654.0},
  };
  for (const Case& c : cases) {
    const auto start = std::chrono::steady_clock::now();
    const JsonParseResult parsed = ParseJson(c.text);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_LT(seconds, 10.0);
    ASSERT_EQ(parsed.value.Fields().size(), c.fields);
    EXPECT_EQ(parsed.value.Fields().front().first, c.first_key);
    EXPECT_EQ(parsed.value.Get(c.probe_key).AsNumber(), c.probe_value);
  }
}

// Every line of the golden session plus one 1k-row inline load line.
std::vector<std::string> MutationSeeds() {
  std::vector<std::string> lines;
  std::ifstream session(std::string(KNNSHAP_TEST_DATA_DIR) + "/serve_session.jsonl");
  for (std::string line; std::getline(session, line);) lines.push_back(line);
  Rng rng(31);
  std::string load = R"({"op":"load","name":"big","target":"label","rows":[)";
  for (int r = 0; r < 1000; ++r) {
    load += r > 0 ? ",[" : "[";
    for (int d = 0; d < 16; ++d) {
      load += JsonValue(rng.NextGaussian()).Dump() + ",";
    }
    load += std::to_string(rng.NextIndex(3)) + "]";
  }
  lines.push_back(load + "]}");
  return lines;
}

TEST(JsonParseTest, SeededMutantsAreErrorsOrReachAFixedPoint) {
  const std::vector<std::string> seeds = MutationSeeds();
  ASSERT_GT(seeds.size(), 40u);
  Rng rng(2027);
  size_t accepted = 0, rejected = 0;
  for (const std::string& seed : seeds) {
    const JsonParseResult original = ParseJson(seed);
    ASSERT_TRUE(original.ok()) << original.error;
    const int trials = seed.size() > 10'000 ? 60 : 40;
    for (int trial = 0; trial < trials; ++trial) {
      std::string mutant = seed;
      switch (trial % 3) {
        case 0:  // truncate
          mutant.resize(rng.NextIndex(mutant.size()));
          break;
        case 1:  // flip one to three bytes
          for (uint64_t f = 0, n = 1 + rng.NextIndex(3); f < n; ++f) {
            mutant[rng.NextIndex(mutant.size())] = static_cast<char>(rng.NextIndex(256));
          }
          break;
        default:  // splice an opener
          mutant.insert(rng.NextIndex(mutant.size() + 1), 1, "[{\""[rng.NextIndex(3)]);
          break;
      }
      const JsonParseResult parsed = ParseJson(mutant);
      if (!parsed.ok()) {
        EXPECT_FALSE(parsed.error.empty());
        ++rejected;
        continue;
      }
      ++accepted;
      const std::string once = parsed.value.Dump();
      const JsonParseResult again = ParseJson(once);
      ASSERT_TRUE(again.ok()) << again.error << " in " << once;
      ASSERT_EQ(again.value.Dump(), once) << mutant;
    }
  }
  // Both outcomes occur, so the suite exercises each side.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Number codec oracle: the printf/strtod rule the serializer has always
// followed, kept here as the reference the to_chars/from_chars codec must
// reproduce byte for byte and bit for bit.
// ---------------------------------------------------------------------------

std::string OracleDump(double n) {
  if (!std::isfinite(n)) return "null";
  char full[40];
  std::snprintf(full, sizeof full, "%.17g", n);
  char shorter[40];
  std::snprintf(shorter, sizeof shorter, "%g", n);
  return std::strtod(shorter, nullptr) == std::strtod(full, nullptr) ? shorter
                                                                      : full;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// Seeded doubles in the shapes the serve protocol carries, plus the raw
// bit patterns that stress the digit boundaries: random bits (every
// exponent, subnormals included), floats widened to double (feature rows),
// k/N rationals (Shapley values), integers, and random decimals.
std::vector<double> CodecCorpus(size_t count) {
  std::vector<double> out = {123456.0,
                             1234567.0,
                             1e-5,
                             1e21,
                             0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             1e308,
                             -1e308,
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             static_cast<double>(0.1f),
                             static_cast<double>(1.0f / 3.0f),
                             static_cast<double>(-16777217.0f),
                             0.1,
                             1.0 / 3.0,
                             999999.5,
                             9.999995e-5};
  Rng rng(20261016);
  while (out.size() < count) {
    const uint64_t r = rng.NextUint64();
    double v = 0.0;
    switch (r % 6) {
      case 0:
        v = FromBits(rng.NextUint64());
        break;
      case 1: {
        uint32_t f = static_cast<uint32_t>(rng.NextUint64());
        float x;
        std::memcpy(&x, &f, sizeof x);
        v = static_cast<double>(x);
        break;
      }
      case 2:
        v = static_cast<double>(rng.NextIndex(1000)) /
            static_cast<double>(1 + rng.NextIndex(200000));
        break;
      case 3:
        v = static_cast<double>(static_cast<int64_t>(rng.NextUint64() >> (r % 60)));
        break;
      case 4:
        v = FromBits(rng.NextUint64() & 0x000fffffffffffffull);  // subnormal
        break;
      default:
        v = rng.NextGaussian() * std::pow(10.0, static_cast<double>(r % 41) - 20.0);
        break;
    }
    if (!std::isfinite(v)) continue;  // dumped as null on both sides
    out.push_back(v);
  }
  return out;
}

TEST(JsonNumberCodecTest, DumpMatchesPrintfRuleByteForByte) {
  for (double v : CodecCorpus(1'000'000)) {
    ASSERT_EQ(JsonValue(v).Dump(), OracleDump(v)) << std::hexfloat << v;
  }
  EXPECT_EQ(JsonValue(123456.0).Dump(), "123456");
  EXPECT_EQ(JsonValue(1234567.0).Dump(), "1234567");
  EXPECT_EQ(JsonValue(1e-5).Dump(), "1e-05");
  EXPECT_EQ(JsonValue(1e21).Dump(), "1e+21");
  EXPECT_EQ(JsonValue(0.0).Dump(), "0");
  EXPECT_EQ(JsonValue(-0.0).Dump(), "-0");
  EXPECT_EQ(JsonValue(0.1).Dump(), "0.1");
  EXPECT_EQ(JsonValue(1.0 / 3.0).Dump(), "0.33333333333333331");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
}

// Values shaped like a fullrank reply: Theorem 1's recursion on 4
// queries with seeded 3-class labels, averaged per training row.
std::vector<double> ShapleyShapedValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n, 0.0);
  std::vector<int> labels(n);
  std::vector<size_t> rows(n);
  for (int query = 0; query < 4; ++query) {
    for (int& label : labels) label = static_cast<int>(rng.NextIndex(3));
    for (size_t i = 0; i < n; ++i) rows[i] = i;
    rng.Shuffle(&rows);
    const std::vector<double> by_rank = KnnShapleyRecursion(labels, 0, 5);
    for (size_t rank = 0; rank < n; ++rank) values[rows[rank]] += by_rank[rank] / 4;
  }
  return values;
}

// The integer %.17g printer against snprintf where it is easiest to get
// wrong: exact ties at the 18th digit (printf rounds them to even),
// decimal exponents at the edges of its range, and reply-shaped values.
TEST(JsonNumberCodecTest, IntegerPrinterMatchesPrintfAtTiesAndEdges) {
  std::vector<double> inputs;
  // base + j/2^f with f = 17 - x and j odd, for a base of x+1 integer
  // digits: a * 10^(16-x) is an integer plus j * 5^(16-x) / 2, an exact
  // tie. The base stays below 2^(53-f) so the sum is a double.
  Rng rng(20261018);
  for (int x = 4; x <= 15; ++x) {
    const int f = 17 - x;
    const double low = std::pow(10.0, x);
    const double high = std::min(std::pow(10.0, x + 1), std::ldexp(1.0, 53 - f));
    for (int i = 0; i < 20000; ++i) {
      const double base = std::floor(low + (high - low) * rng.NextDouble());
      const double j = static_cast<double>(2 * rng.NextIndex(uint64_t{1} << (f - 1)) + 1);
      inputs.push_back(base + std::ldexp(j, -f));
    }
  }
  for (double edge : {1e-17, 1e-16, 1e-15, 1e15, 1e16, 1e17,
                      std::nextafter(1e17, 0.0)}) {
    for (int ulps = -2000; ulps <= 2000; ++ulps) {
      const double v = FromBits(Bits(edge) + static_cast<uint64_t>(ulps));
      inputs.push_back(v);
      inputs.push_back(-v);
    }
  }
  for (double v : ShapleyShapedValues(50000, 7)) inputs.push_back(v);
  for (double v : inputs) {
    ASSERT_EQ(JsonValue(v).Dump(), OracleDump(v)) << std::hexfloat << v;
  }
  // Two ties: rounding half up prints the first as ...3, and truncating
  // prints the second as ...7.
  EXPECT_EQ(JsonValue(1234567890123456.25).Dump(), "1234567890123456.2");
  EXPECT_EQ(JsonValue(1234567890123456.75).Dump(), "1234567890123456.8");
  EXPECT_EQ(JsonValue(std::nextafter(1e17, 0.0)).Dump(), "99999999999999984");
  EXPECT_EQ(JsonValue(-1e-15).Dump(), "-1e-15");
}

TEST(JsonNumberCodecTest, ParseMatchesStrtodBitForBit) {
  std::vector<std::string> texts;
  for (double v : CodecCorpus(1'000'000)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    texts.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%g", v);
    texts.emplace_back(buf);
  }
  for (const char* extra :
       {"+1", "1e400", "-1e400", "1e-400", "-1e-400", ".5", "5.", "1e5",
        "1E+05", "-.25e-3", "0.000", "2.4703282292062328e-324",
        "2.4703282292062327e-324", "1.7976931348623158e308",
        "1.7976931348623159e308", "00012", "-0"}) {
    texts.emplace_back(extra);
  }
  for (const std::string& text : texts) {
    const JsonParseResult parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.error;
    ASSERT_EQ(Bits(parsed.value.AsNumber()), Bits(std::strtod(text.c_str(), nullptr)))
        << text;
  }
  EXPECT_EQ(ParseJson("1e400").value.AsNumber(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(ParseJson("+1").value.AsNumber(), 1.0);
}

TEST(JsonNumberCodecTest, MalformedNumbersStayErrors) {
  for (const char* text : {"-", "+", "1e", "1e+", "+-1", "1.2.3", "1-2", "--3",
                           ".", "e5", "[1e]", "{\"a\":1.2.3}"}) {
    EXPECT_FALSE(ParseJson(text).ok()) << text;
  }
}

// A character-at-a-time escaper: the oracle EscapeInto's bytes must
// match.
std::string ReferenceEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

TEST(JsonStringTest, EscapesEveryControlCharacter) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string s(1, static_cast<char>(c));
    const std::string text = JsonValue(s).Dump();
    const char* expected = c == '\n'   ? "\"\\n\""
                           : c == '\r' ? "\"\\r\""
                           : c == '\t' ? "\"\\t\""
                                       : nullptr;
    if (expected != nullptr) {
      EXPECT_EQ(text, expected) << c;
    } else {
      char buf[16];
      std::snprintf(buf, sizeof buf, "\"\\u%04x\"", c);
      EXPECT_EQ(text, buf) << c;
    }
    const JsonParseResult back = ParseJson(text);
    ASSERT_TRUE(back.ok()) << back.error;
    EXPECT_EQ(back.value.AsString(), s) << c;
  }
  // DEL and bytes >= 0x80 are not escaped.
  EXPECT_EQ(JsonValue("\x7f\xc3\xa9").Dump(), "\"\x7f\xc3\xa9\"");
}

TEST(JsonStringTest, EscapesAtTheStartMiddleAndEndOfARun) {
  for (const std::string& s :
       {std::string(""), std::string("plain"), std::string("\"lead"),
        std::string("trail\\"), std::string("mid\"dle"), std::string("\\\\"),
        std::string("\"\""), std::string("\n"), std::string("a\x01b\x1f"),
        std::string("\x00zero", 5), std::string(70'000, 'x') + "\"",
        "\\" + std::string(70'000, 'y')}) {
    const std::string text = JsonValue(s).Dump();
    EXPECT_EQ(text, ReferenceEscape(s));
    const JsonParseResult back = ParseJson(text);
    ASSERT_TRUE(back.ok()) << back.error;
    EXPECT_EQ(back.value.AsString(), s);
  }
  // \u escapes and the short escapes, anywhere in a run.
  EXPECT_EQ(ParseJson(R"("\u0041bc")").value.AsString(), "Abc");
  EXPECT_EQ(ParseJson(R"("ab\u0043")").value.AsString(), "abC");
  EXPECT_EQ(ParseJson(R"("a\u00e9b")").value.AsString(), "a?b");
  EXPECT_EQ(ParseJson(R"("\/\b\f\n\r\t\"\\")").value.AsString(),
            "/\b\f\n\r\t\"\\");
  EXPECT_EQ(ParseJson(R"("x\"y\"z")").value.AsString(), "x\"y\"z");
  // Escape errors stay errors wherever they sit.
  for (const char* bad : {R"("\q")", R"("ab\u12")", R"("ab\u12zz")", R"("ab\")",
                          "\"ab\\", "\"no end", "\"\\\""}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(JsonStringTest, SeededStringsMatchTheReferenceEscaper) {
  const char alphabet[] = {'a', 'Z', '"', '\\', '\n', '\t', '\x01', '\x1f',
                           '\x7f', '\xff', ' ', '/'};
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string s(rng.NextIndex(40), '\0');
    for (char& c : s) c = alphabet[rng.NextIndex(sizeof alphabet)];
    const std::string text = JsonValue(s).Dump();
    ASSERT_EQ(text, ReferenceEscape(s));
    const JsonParseResult back = ParseJson(text);
    ASSERT_TRUE(back.ok()) << back.error;
    ASSERT_EQ(back.value.AsString(), s);
  }
}

TEST(JsonParseTest, NestingDepthIsBounded) {
  auto nested = [](int depth, char open, char close) {
    std::string inner = open == '{' ? "1" : "[]";
    std::string text;
    for (int i = 0; i < depth; ++i) text += open == '{' ? "{\"a\":" : "[";
    text += inner;
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  // The cap counts containers: an empty array innermost is one more.
  EXPECT_TRUE(ParseJson(nested(kJsonMaxNestingDepth - 1, '[', ']')).ok());
  EXPECT_FALSE(ParseJson(nested(kJsonMaxNestingDepth, '[', ']')).ok());
  EXPECT_TRUE(ParseJson(nested(kJsonMaxNestingDepth, '{', '}')).ok());
  const JsonParseResult deep_object =
      ParseJson(nested(kJsonMaxNestingDepth + 1, '{', '}'));
  EXPECT_FALSE(deep_object.ok());
  EXPECT_NE(deep_object.error.find("nesting"), std::string::npos)
      << deep_object.error;

  // 100 KB of '[' used to overflow the stack; now it is a plain error.
  const JsonParseResult hostile = ParseJson(std::string(100'000, '['));
  EXPECT_FALSE(hostile.ok());
  EXPECT_NE(hostile.error.find("nesting"), std::string::npos) << hostile.error;
}

// A load line of `rows` random rows of `arity` cells, the numbers printed
// in several spellings, padded to at least kJsonRowsMinBytes.
std::string RowsLine(size_t rows, size_t arity, uint64_t seed) {
  Rng rng(seed);
  std::string line = R"({"op":"load","name":"x","rows":[)";
  for (size_t r = 0; r < rows; ++r) {
    line += r > 0 ? ", [" : "[";
    for (size_t c = 0; c < arity; ++c) {
      char cell[40];
      const double v = rng.NextGaussian() * 100.0;
      switch (rng.NextIndex(4)) {
        case 0: std::snprintf(cell, sizeof cell, "%.17g", v); break;
        case 1: std::snprintf(cell, sizeof cell, "%d", static_cast<int>(v)); break;
        case 2: std::snprintf(cell, sizeof cell, "%.3e", v); break;
        default: std::snprintf(cell, sizeof cell, " %.4f\t", v); break;
      }
      if (c > 0) line += ',';
      line += cell;
    }
    line += "]";
  }
  return line + R"(],"target":"label"})";
}

TEST(JsonRowsTest, DecodesWhatTheTreeHoldsForEveryTarget) {
  ThreadPool pool(3);
  const std::string line = RowsLine(3000, 5, 71);
  ASSERT_GE(line.size(), 4 * kJsonRowsChunkBytes);
  const JsonValue tree = ParseJson(line).value;
  const auto& items = tree.Get("rows").Items();
  for (const CsvTarget target : {CsvTarget::kLabel, CsvTarget::kTarget, CsvTarget::kNone}) {
    Dataset rows;
    bool decoded = false;
    const JsonParseResult parsed = ParseJsonWithRows(
        line, pool,
        [&](const JsonValue&, CsvTarget* out) {
          *out = target;
          return true;
        },
        &rows, &decoded);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(decoded) << CsvTargetName(target);
    // The tree holds every other field and null where the rows were.
    EXPECT_TRUE(parsed.value.Has("rows"));
    EXPECT_TRUE(parsed.value.Get("rows").IsNull());
    EXPECT_EQ(parsed.value.Get("target").AsString(), "label");
    const size_t cols = target == CsvTarget::kNone ? 5 : 4;
    ASSERT_EQ(rows.Size(), items.size());
    ASSERT_EQ(rows.Dim(), cols);
    EXPECT_EQ(rows.HasLabels(), target == CsvTarget::kLabel);
    EXPECT_EQ(rows.HasTargets(), target == CsvTarget::kTarget);
    for (size_t r = 0; r < items.size(); ++r) {
      const auto& cells = items[r].Items();
      for (size_t c = 0; c < cols; ++c) {
        float want = 0.0f;
        ASSERT_TRUE(FeatureFromCell(cells[c].AsNumber(), &want));
        ASSERT_EQ(std::memcmp(&want, &rows.features.At(r, c), sizeof want), 0)
            << "row " << r << " cell " << c;
      }
      if (target == CsvTarget::kLabel) {
        int want = 0;
        ASSERT_TRUE(LabelFromCell(cells[4].AsNumber(), &want));
        ASSERT_EQ(rows.labels[r], want) << "row " << r;
      } else if (target == CsvTarget::kTarget) {
        ASSERT_EQ(rows.targets[r], cells[4].AsNumber()) << "row " << r;
      }
    }
  }
}

TEST(JsonRowsTest, DecimalCellsMatchStrtodBitForBit) {
  // Targets keep the parsed double, so every spelling below, short or
  // long, must decode to strtod's exact bits.
  Rng rng(77);
  std::vector<std::string> tokens = {"0",     "-0",     "-0.000", "7.",   ".5",
                                     "-.25",  "0005",   "1e3",    "+2",   "1E-2",
                                     "0.1",   "9007199254740993", "123456789012345",
                                     "1234567890123456", "0.000000000000001",
                                     "99999999999999.9", "-4.9406564584124654e-324"};
  while (tokens.size() < 4000) {
    std::string token = rng.NextIndex(2) == 0 ? "-" : "";
    const size_t digits = 1 + rng.NextIndex(18);
    const size_t dot = rng.NextIndex(digits + 2);
    for (size_t d = 0; d < digits; ++d) {
      if (d == dot) token += '.';
      token += static_cast<char>('0' + rng.NextIndex(10));
    }
    if (dot == digits) token += '.';
    tokens.push_back(token);
  }
  std::string line = R"({"rows":[)";
  for (size_t i = 0; i < tokens.size(); ++i) {
    line += i > 0 ? ",[0.5," : "[0.5,";
    line += tokens[i];
    line += "]";
  }
  line += "]}";
  ASSERT_GE(line.size(), kJsonRowsMinBytes);
  ThreadPool pool(2);
  Dataset rows;
  bool decoded = false;
  ParseJsonWithRows(
      line, pool,
      [](const JsonValue&, CsvTarget* target) {
        *target = CsvTarget::kTarget;
        return true;
      },
      &rows, &decoded);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(rows.targets.size(), tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    const double want = std::strtod(tokens[i].c_str(), nullptr);
    ASSERT_EQ(std::memcmp(&want, &rows.targets[i], sizeof want), 0) << tokens[i];
  }
}

TEST(JsonRowsTest, OtherwiseReturnsParseJsonItself) {
  ThreadPool pool(2);
  const JsonRowsTarget label = [](const JsonValue&, CsvTarget* target) {
    *target = CsvTarget::kLabel;
    return true;
  };
  auto decode = [&](const std::string& line, const JsonRowsTarget& target_of,
                    JsonValue* tree) {
    Dataset rows;
    bool decoded = false;
    JsonParseResult parsed = ParseJsonWithRows(line, pool, target_of, &rows, &decoded);
    const JsonParseResult whole = ParseJson(line);
    EXPECT_EQ(parsed.error, whole.error);
    if (!decoded) {
      EXPECT_EQ(parsed.value.Dump(), whole.value.Dump());
    }
    *tree = std::move(parsed.value);
    return decoded;
  };
  const std::string big = RowsLine(3000, 5, 72);
  const std::string rows = big.substr(big.find('['), big.rfind(']') - big.find('[') + 1);
  JsonValue tree;
  EXPECT_TRUE(decode(big, label, &tree));
  // Declined by the caller, or under the size floor: the whole tree.
  EXPECT_FALSE(decode(big, [](const JsonValue&, CsvTarget*) { return false; }, &tree));
  EXPECT_FALSE(decode(RowsLine(20, 5, 73), label, &tree));
  EXPECT_TRUE(tree.Get("rows").IsArray());
  // Only a top-level "rows" key, however it is spelled, is decoded.
  EXPECT_TRUE(decode(R"({"meta":{"rows":[[1,2]]},"ro\u0077s":)" + rows + "}", label,
                     &tree));
  EXPECT_EQ(tree.Get("meta").Dump(), R"({"rows":[[1,2]]})");
  EXPECT_FALSE(decode(R"({"meta":{"rows":)" + rows + "}}", label, &tree));
  EXPECT_FALSE(decode("[" + rows + "]", label, &tree));
  // A repeated key, either way round, or a non-array value.
  EXPECT_FALSE(decode(R"({"rows":[[1,2]],"rows":)" + rows + "}", label, &tree));
  EXPECT_FALSE(decode(R"({"rows":)" + rows + R"(,"rows":[[1,2]]})", label, &tree));
  EXPECT_FALSE(decode(R"({"rows":"x","pad":)" + rows + "}", label, &tree));
  // Syntax faults before, inside and after the rows.
  EXPECT_FALSE(decode(R"({"x":tru,"rows":)" + rows + "}", label, &tree));
  EXPECT_FALSE(decode(R"({"rows":)" + rows.substr(0, rows.size() - 1) + "}", label,
                      &tree));
  EXPECT_FALSE(decode(R"({"rows":)" + rows + "]}", label, &tree));
  EXPECT_FALSE(decode(R"({"rows":)" + rows + "} x", label, &tree));
  // An empty array of rows, and one whose first row is empty.
  EXPECT_FALSE(decode(R"({"rows":[],"pad":)" + rows + "}", label, &tree));
  EXPECT_FALSE(decode(R"({"rows":[[],)" + rows.substr(1) + "}", label, &tree));
}

}  // namespace
}  // namespace knnshap
