// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Declarative method descriptors — the single source of truth for the
// engine's public API. Every registered Valuator publishes a MethodSchema:
// which hyperparameters it reads (typed ParamSpecs with defaults, valid
// ranges and doc strings), which KNN tasks it supports, and capability
// flags such as per-query decomposability. Everything else derives from
// the schema instead of being hand-rolled per surface:
//
//   * JSON request parsing/validation in the serve pipeline and flag
//     parsing in knnshap_value both run through ApplyJsonParams /
//     ApplyCliParams, so an out-of-range "epsilon" answers the identical
//     structured error (code, message, offending field) on both paths;
//   * cache and fitted-valuator fingerprints hash only the params a
//     method declares (ParamsFingerprint), so e.g. an "exact" result
//     survives a "seed" change and mixed-method traffic hits more;
//   * the serve "describe" op and the CLI --describe/--help text are
//     generated from the same specs.
//
// The parameter *vocabulary* is global (ParamVocabulary: every spec knows
// how to read/write its ValuatorParams field); a method's schema selects
// the subset it declares. A request field naming a vocabulary param the
// method does not declare is accepted — validated against the spec's range
// but neither applied nor fingerprinted — while a field outside the
// vocabulary (and the protocol whitelist) is an invalid_argument naming
// the field.

#ifndef KNNSHAP_ENGINE_SCHEMA_H_
#define KNNSHAP_ENGINE_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/valuator.h"
#include "util/status.h"

namespace knnshap {

class CommandLine;
class JsonValue;
class Fnv64;

/// Wire type of a hyperparameter.
enum class ParamType {
  kInt,     ///< Integer-valued number.
  kDouble,  ///< Real-valued number.
  kUint,    ///< Non-negative integer-valued number (seeds, sample counts).
  kEnum,    ///< One of a fixed set of strings.
};

/// Stable name of a ParamType ("int", "double", "uint", "enum").
const char* ParamTypeName(ParamType type);

/// One typed hyperparameter: name, type, valid range, doc string, and the
/// accessors binding it to its ValuatorParams field. Numeric values move
/// through double (the JSON number model); enums move through the index
/// into `enum_values`.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kDouble;
  std::string doc;
  double min_value = 0.0;  ///< Inclusive unless min_exclusive.
  double max_value = 0.0;
  bool min_exclusive = false;
  /// The max bound exists only to keep the double→integer casts of the
  /// JSON/CLI parse surfaces defined (e.g. seed ≤ 2^53, the largest
  /// integer a JSON double carries exactly); programmatic ValuatorParams
  /// already hold the native-width value and are not capped by it.
  bool max_is_parse_bound = false;
  std::vector<std::string> enum_values;  ///< kEnum only.

  /// Read/write against ValuatorParams (enum values = index).
  std::function<double(const ValuatorParams&)> get;
  std::function<void(ValuatorParams*, double)> set;
  /// Hashes the field's native representation (exact for uint64 seeds,
  /// where a double round trip would not be).
  std::function<void(const ValuatorParams&, Fnv64*)> add_to_hash;

  /// Default = the field's value on a default-constructed ValuatorParams.
  double DefaultValue() const { return get(ValuatorParams{}); }

  /// Range/type check of a numeric candidate; OK status or
  /// invalid_argument naming this param. Enum specs validate strings via
  /// EnumIndex instead. `parse_surface` = false (engine-side validation of
  /// an already-native ValuatorParams) skips max bounds that exist only
  /// to keep parse-time casts defined (max_is_parse_bound).
  Status ValidateNumber(double value, bool parse_surface = true) const;

  /// Index of `value` in enum_values, or -1.
  int EnumIndex(const std::string& value) const;

  /// "uniform|inverse|gaussian" — for docs and error messages.
  std::string EnumValuesJoined() const;
};

/// The global hyperparameter vocabulary, in canonical order. Every spec's
/// accessors bind to one ValuatorParams field; method schemas reference
/// these by pointer.
const std::vector<ParamSpec>& ParamVocabulary();

/// Vocabulary lookup by name; nullptr when `name` is no known parameter.
const ParamSpec* FindParamSpec(const std::string& name);

/// Stable task names ("classification", "weighted-regression", ...).
const char* TaskName(KnnTask task);

/// Parses a task name; false on an unknown one.
bool ParseTaskName(const std::string& name, KnnTask* task);

/// Declarative descriptor of a registered valuation method.
struct MethodSchema {
  std::string name;         ///< Registry key.
  std::string description;  ///< One line, including the paper section.
  /// Declared hyperparameters (subset of ParamVocabulary, in its order).
  std::vector<const ParamSpec*> params;
  /// Supported KNN tasks; front() is the default. Single-task methods have
  /// their task canonicalized by the engine; multi-task methods validate.
  std::vector<KnnTask> tasks;
  /// Multi-test value decomposes per query (Eq 8) and the engine may shard
  /// queries across threads; false = batch-only (the MC estimator).
  bool per_query = true;
  /// Smallest training corpus the method can value (the LSH pipeline needs
  /// two rows to estimate contrast). The engine rejects smaller corpora
  /// with a structured error so the request never reaches the adapter's
  /// fatal internal check.
  size_t min_train_rows = 1;
  /// Optional joint params-x-data precondition beyond min_train_rows and
  /// the per-param ranges: the engine calls it with the canonicalized
  /// params, the training corpus and the test batch after validation, and
  /// a non-OK status becomes the request's structured response.
  /// weighted-fast uses it to bound its (K, weight_bits) count-table
  /// footprint (WknnTableBudget), weighted to screen a Gaussian `sigma`
  /// whose weights underflow, so no request reaches a fatal core check.
  std::function<Status(const ValuatorParams&, const Dataset& train,
                       const Dataset& test)>
      precondition;
  /// Params listed here are omitted from ParamsToJson (the value-response
  /// echo) while they sit at their default value. Retrofitting a parameter
  /// onto a long-lived method (approx_error on exact/exact-corrected) would
  /// otherwise change the params echo of every existing default request —
  /// a wire-compat break the golden serve transcript pins. Fingerprints are
  /// unaffected: a default-valued param hashes identically either way.
  std::vector<std::string> echo_if_nondefault;
  /// Optional sup-norm error bound of the method's approximation for the
  /// canonicalized params against a corpus of `train_rows` rows. When set
  /// and positive, the engine stores it in ValuationReport::approx_bound
  /// and the serve layer echoes it as "approx_bound". The exact methods use
  /// it to report the analytic truncation bound of the approx_error path.
  std::function<double(const ValuatorParams&, size_t train_rows)> approx_bound;

  bool Declares(const std::string& param_name) const;
  KnnTask DefaultTask() const;
  bool AllowsTask(KnnTask task) const;
  /// "classification, regression" — for error messages.
  std::string TaskNamesJoined() const;

  /// True when the method's tasks need labels (classification family) /
  /// targets (regression family) for the given effective task.
  bool RequiresLabels(KnnTask task) const;
  bool RequiresTargets(KnnTask task) const;

  /// Canonicalizes params->task against `tasks` (single-task methods get
  /// their fixed task; multi-task methods must already carry an allowed
  /// one) and range-checks every declared param. OK, or invalid_argument
  /// naming the offending field.
  Status Canonicalize(ValuatorParams* params) const;

  /// Content hash over the method name plus *declared* params only (and
  /// the task when the method supports more than one): the identity used
  /// for cache keys and fitted-valuator reuse. Undeclared fields cannot
  /// perturb it — changing `seed` does not invalidate an "exact" result.
  uint64_t ParamsFingerprint(const ValuatorParams& params) const;
};

/// Helper for schema construction: resolves vocabulary names, aborting on
/// a typo (registration happens at startup; a bad name is a bug).
std::vector<const ParamSpec*> ResolveParams(
    const std::vector<std::string>& names);

// ---------------------------------------------------------------------------
// Schema-derived parsing — the one validator behind every API surface.
// ---------------------------------------------------------------------------

/// Applies a JSON request's hyperparameter fields onto `params` per the
/// schema: sets the default task then applies "task" and every vocabulary
/// field present. Declared params are range-checked and applied;
/// undeclared vocabulary params are range-checked and ignored. Returns OK
/// or invalid_argument with the offending field. Protocol fields
/// (op/train/test/...) are skipped; reject unknown fields separately with
/// CheckRequestFields.
Status ApplyJsonParams(const MethodSchema& schema, const JsonValue& request,
                       ValuatorParams* params);

/// Rejects request fields that are neither in `allowed` (the protocol
/// whitelist) nor in the parameter vocabulary nor "task" — catching typos
/// like "epsilonn" with a structured error naming the field.
Status CheckRequestFields(const JsonValue& request,
                          const std::vector<std::string>& allowed);

/// The CLI twin of ApplyJsonParams: applies --k/--epsilon/... flags onto
/// `params`. Same specs, same checks, byte-identical error messages — the
/// CLI and the serve pipeline cannot drift. `task_override`, when set,
/// replaces the --task flag's value (the knnshap_value legacy --weighted
/// shim maps classification/regression onto their weighted tasks before
/// validation).
Status ApplyCliParams(const MethodSchema& schema, const CommandLine& cli,
                      ValuatorParams* params,
                      const std::string* task_override = nullptr);

/// Serializes the declared params (and the task for multi-task methods) to
/// a JSON object — the response echo of a value request's effective
/// hyperparameters, and the round-trip half of the schema property tests:
/// ApplyJsonParams(ParamsToJson(p)) reproduces p's fingerprint.
JsonValue ParamsToJson(const MethodSchema& schema, const ValuatorParams& params);

/// Full introspection record of one method — the "describe" op's payload
/// and the source of the generated CLI help: description, capability
/// flags, tasks, and per-param {name,type,default,min,max,doc,values}.
JsonValue SchemaToJson(const MethodSchema& schema);

/// Plain-text rendering of SchemaToJson for `knnshap_value --describe`.
std::string FormatSchemaHelp(const MethodSchema& schema);

}  // namespace knnshap

#endif  // KNNSHAP_ENGINE_SCHEMA_H_
