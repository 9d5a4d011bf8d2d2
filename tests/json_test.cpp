// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Tests for the minimal JSON module backing the knnshap_serve protocol.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/random.h"

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

}  // namespace
}  // namespace knnshap
