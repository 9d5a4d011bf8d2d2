// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// The byte-at-a-time base64 codec that wire::EncodeBase64/DecodeBase64
// replaced, kept as the oracle they are checked against: wire_test's
// differential suite requires the same text and the same accept/reject
// decisions, and bench_kernel's base64 arm times the wire codec against
// it. Padded RFC 4648; the decoder takes only a whole number of quanta,
// '=' only as the padding of the last quantum, and zero padding bits.

#ifndef KNNSHAP_TESTS_BASE64_ORACLE_H_
#define KNNSHAP_TESTS_BASE64_ORACLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace knnshap {
namespace oracle {

inline constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// 0..63 for the alphabet's characters, 64 for every other byte.
inline constexpr std::array<uint8_t, 256> kBase64Values = [] {
  std::array<uint8_t, 256> values{};
  values.fill(64);
  for (uint8_t i = 0; i < 64; ++i) {
    values[static_cast<uint8_t>(kBase64Alphabet[i])] = i;
  }
  return values;
}();

inline std::string EncodeBase64(std::string_view bytes) {
  std::string out((bytes.size() + 2) / 3 * 4, '=');
  char* o = out.data();
  const auto byte = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<uint8_t>(bytes[i]));
  };
  size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const uint32_t v = byte(i) << 16 | byte(i + 1) << 8 | byte(i + 2);
    *o++ = kBase64Alphabet[v >> 18];
    *o++ = kBase64Alphabet[(v >> 12) & 63];
    *o++ = kBase64Alphabet[(v >> 6) & 63];
    *o++ = kBase64Alphabet[v & 63];
  }
  if (const size_t rest = bytes.size() - i; rest > 0) {
    const uint32_t v = byte(i) << 16 | (rest == 2 ? byte(i + 1) << 8 : 0);
    *o++ = kBase64Alphabet[v >> 18];
    *o++ = kBase64Alphabet[(v >> 12) & 63];
    if (rest == 2) *o = kBase64Alphabet[(v >> 6) & 63];
  }
  return out;
}

inline bool DecodeBase64(std::string_view text, std::string* bytes) {
  if (text.size() % 4 != 0) return false;
  size_t pad = 0;
  if (!text.empty() && text.back() == '=') {
    pad = text[text.size() - 2] == '=' ? 2 : 1;
  }
  bytes->resize(text.size() / 4 * 3 - pad);
  char* o = bytes->data();
  const auto value = [&](size_t i) {
    return kBase64Values[static_cast<uint8_t>(text[i])];
  };
  const size_t quanta = text.size() / 4;
  for (size_t q = 0; q < quanta; ++q) {
    const size_t at = 4 * q;
    const bool last = q + 1 == quanta;
    const uint32_t a = value(at), b = value(at + 1);
    const uint32_t c = last && pad == 2 ? 0 : value(at + 2);
    const uint32_t d = last && pad > 0 ? 0 : value(at + 3);
    if ((a | b | c | d) & 64) return false;
    const uint32_t v = a << 18 | b << 12 | c << 6 | d;
    *o++ = static_cast<char>(v >> 16);
    if (last && pad == 2) return (v & 0xffff) == 0;
    *o++ = static_cast<char>(v >> 8);
    if (last && pad == 1) return (v & 0xff) == 0;
    *o++ = static_cast<char>(v);
  }
  return true;
}

}  // namespace oracle
}  // namespace knnshap

#endif  // KNNSHAP_TESTS_BASE64_ORACLE_H_
