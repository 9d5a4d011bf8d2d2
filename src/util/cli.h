// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Minimal command-line flag parsing for the bench and example binaries.
// Supports --name=value and --name value forms plus bare --flag booleans.

#ifndef KNNSHAP_UTIL_CLI_H_
#define KNNSHAP_UTIL_CLI_H_

#include <map>
#include <string>
#include <vector>

namespace knnshap {

/// Parsed command line. Unknown flags are retained (benches share a parser),
/// but a typo in a known flag's value aborts with a message.
class CommandLine {
 public:
  CommandLine(int argc, char** argv);

  bool Has(const std::string& name) const;

  /// Raw flag value, or nullptr when absent — the non-aborting accessor
  /// the schema-derived flag parser validates through (GetDouble/GetInt
  /// abort on malformed values; request parsing must answer errors).
  const std::string* Raw(const std::string& name) const;

  /// All flag names present, sorted — lets strict tools (knnshap_value)
  /// reject typo'd flags the way the serve pipeline rejects unknown
  /// request fields. Benches keep ignoring unknown flags.
  std::vector<std::string> Names() const;

  std::string GetString(const std::string& name, const std::string& fallback) const;
  /// Aborts, like GetInt, unless the value is a finite decimal number.
  double GetDouble(const std::string& name, double fallback) const;
  /// Aborts, like GetDouble, unless the value is a base-10 integer in
  /// int's range.
  int GetInt(const std::string& name, int fallback) const;

  /// The integer flag `name` into *out (`fallback` when absent). Returns
  /// false, with a message naming the flag in *error, unless the value is
  /// a base-10 integer in [min_value, INT_MAX]: "2.5", "1e3" and "-1" with
  /// min_value 0 are errors, never truncated or wrapped.
  bool ParseInt(const std::string& name, int fallback, int min_value, int* out,
                std::string* error) const;

  /// The number flag `name` into *out (`fallback` when absent). Returns
  /// false, with a message naming the flag in *error, unless the whole
  /// value is a finite decimal number >= min_value: "abc", "5abc" and
  /// "inf" are errors, never read as a prefix or aborted on.
  bool ParseDouble(const std::string& name, double fallback, double min_value,
                   double* out, std::string* error) const;

  /// Dataset-size multiplier shared by all benches (--scale).
  double Scale() const { return GetDouble("scale", 1.0); }

  /// Optional CSV export path (--csv).
  std::string CsvPath() const { return GetString("csv", ""); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_CLI_H_
