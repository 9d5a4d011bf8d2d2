// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/cli.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <system_error>

#include "util/common.h"

namespace knnshap {

// GCC 12 at -O2 issues a -Wrestrict false positive through the inlined
// std::string assignments below, claiming an impossible self-overlap with
// offsets near SIZE_MAX/2 (GCC bug 105329, fixed in GCC 13). Suppressed
// locally so the library builds warning-clean under -Werror in CI.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

CommandLine::CommandLine(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

bool CommandLine::Has(const std::string& name) const { return values_.count(name) > 0; }

const std::string* CommandLine::Raw(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::vector<std::string> CommandLine::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double CommandLine::GetDouble(const std::string& name, double fallback) const {
  double value = 0.0;
  std::string error;
  KNNSHAP_CHECK(ParseDouble(name, fallback, std::numeric_limits<double>::lowest(),
                            &value, &error),
                error);
  return value;
}

int CommandLine::GetInt(const std::string& name, int fallback) const {
  int value = 0;
  std::string error;
  KNNSHAP_CHECK(ParseInt(name, fallback, std::numeric_limits<int>::min(), &value, &error),
                error);
  return value;
}

bool CommandLine::ParseInt(const std::string& name, int fallback, int min_value,
                           int* out, std::string* error) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    *out = fallback;
    return true;
  }
  const std::string& text = it->second;
  int value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < min_value) {
    *error = "--" + name + " must be an integer in [" + std::to_string(min_value) +
             ", " + std::to_string(std::numeric_limits<int>::max()) + "], got '" +
             text + "'";
    return false;
  }
  *out = value;
  return true;
}

bool CommandLine::ParseDouble(const std::string& name, double fallback,
                              double min_value, double* out,
                              std::string* error) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    *out = fallback;
    return true;
  }
  const std::string& text = it->second;
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || !std::isfinite(value) ||
      value < min_value) {
    char bound[32];
    std::snprintf(bound, sizeof bound, "%g", min_value);
    *error = "--" + name + " must be a finite number >= " + bound + ", got '" + text +
             "'";
    return false;
  }
  *out = value;
  return true;
}

}  // namespace knnshap
