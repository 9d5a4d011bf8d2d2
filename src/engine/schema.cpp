// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "engine/schema.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/cli.h"
#include "util/fingerprint.h"
#include "util/json.h"

namespace knnshap {

namespace {

/// Shortest lossless rendering of a number for error messages and docs
/// (the same %g policy the JSON serializer trims toward).
std::string NumberText(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

/// Shared message shapes — every surface (serve JSON, CLI flags, direct
/// engine requests) fails with byte-identical text for the same offense.
Status NotANumber(const std::string& name) {
  return Status::InvalidArgument("'" + name + "' must be a number", name);
}
Status NotAString(const std::string& name) {
  return Status::InvalidArgument("'" + name + "' must be a string", name);
}

}  // namespace

const char* ParamTypeName(ParamType type) {
  switch (type) {
    case ParamType::kInt:
      return "int";
    case ParamType::kDouble:
      return "double";
    case ParamType::kUint:
      return "uint";
    case ParamType::kEnum:
      return "enum";
  }
  return "unknown";
}

Status ParamSpec::ValidateNumber(double value, bool parse_surface) const {
  if (type == ParamType::kEnum) {
    const int count = static_cast<int>(enum_values.size());
    if (value != std::floor(value) || value < 0 || value >= count) {
      return Status::InvalidArgument(
          "'" + name + "' must be one of " + EnumValuesJoined(), name);
    }
    return Status::Ok();
  }
  if (std::isnan(value)) return NotANumber(name);
  if ((type == ParamType::kInt || type == ParamType::kUint) &&
      value != std::floor(value)) {
    return Status::InvalidArgument(
        "'" + name + "' must be an integer (got " + NumberText(value) + ")",
        name);
  }
  if (min_exclusive ? value <= min_value : value < min_value) {
    return Status::InvalidArgument(
        "'" + name + "' must be " + (min_exclusive ? "> " : ">= ") +
            NumberText(min_value) + " (got " + NumberText(value) + ")",
        name);
  }
  if (value > max_value && (parse_surface || !max_is_parse_bound)) {
    return Status::InvalidArgument(
        "'" + name + "' must be <= " + NumberText(max_value) + " (got " +
            NumberText(value) + ")",
        name);
  }
  return Status::Ok();
}

int ParamSpec::EnumIndex(const std::string& value) const {
  for (size_t i = 0; i < enum_values.size(); ++i) {
    if (enum_values[i] == value) return static_cast<int>(i);
  }
  return -1;
}

std::string ParamSpec::EnumValuesJoined() const {
  std::string out;
  for (const auto& value : enum_values) {
    if (!out.empty()) out += "|";
    out += value;
  }
  return out;
}

namespace {

ParamSpec NumberSpec(const char* name, ParamType type, const char* doc,
                     double min_value, double max_value, bool min_exclusive,
                     std::function<double(const ValuatorParams&)> get,
                     std::function<void(ValuatorParams*, double)> set) {
  ParamSpec spec;
  spec.name = name;
  spec.type = type;
  spec.doc = doc;
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.min_exclusive = min_exclusive;
  spec.get = std::move(get);
  spec.set = std::move(set);
  // Default native hash: the double representation (exact for every
  // numeric field narrower than 53 bits; seed overrides below).
  auto get_copy = spec.get;
  spec.add_to_hash = [get_copy](const ValuatorParams& p, Fnv64* hash) {
    hash->Add(get_copy(p));
  };
  return spec;
}

ParamSpec EnumSpec(const char* name, const char* doc,
                   std::vector<std::string> values,
                   std::function<double(const ValuatorParams&)> get,
                   std::function<void(ValuatorParams*, double)> set) {
  ParamSpec spec = NumberSpec(name, ParamType::kEnum, doc, 0,
                              static_cast<double>(values.size()) - 1, false,
                              std::move(get), std::move(set));
  spec.enum_values = std::move(values);
  return spec;
}

std::vector<ParamSpec> BuildVocabulary() {
  std::vector<ParamSpec> specs;
  specs.push_back(NumberSpec(
      "k", ParamType::kInt, "KNN hyperparameter K (neighbors that vote)", 1,
      1e6, false, [](const ValuatorParams& p) { return double(p.k); },
      [](ValuatorParams* p, double v) { p->k = static_cast<int>(v); }));
  specs.push_back(NumberSpec(
      "epsilon", ParamType::kDouble,
      "Approximation budget epsilon (Theorems 2/4/5)", 0, 1e6, true,
      [](const ValuatorParams& p) { return p.epsilon; },
      [](ValuatorParams* p, double v) { p->epsilon = v; }));
  specs.push_back(NumberSpec(
      "delta", ParamType::kDouble,
      "Failure probability delta in (0,1] (Theorems 4/5)", 0, 1, true,
      [](const ValuatorParams& p) { return p.delta; },
      [](ValuatorParams* p, double v) { p->delta = v; }));
  ParamSpec seed = NumberSpec(
      "seed", ParamType::kUint, "Seed for MC sampling / LSH hashing", 0,
      9007199254740992.0 /* 2^53: exactly representable */, false,
      [](const ValuatorParams& p) { return static_cast<double>(p.seed); },
      [](ValuatorParams* p, double v) { p->seed = static_cast<uint64_t>(v); });
  seed.max_is_parse_bound = true;  // engine callers may exceed 2^53
  seed.add_to_hash = [](const ValuatorParams& p, Fnv64* hash) {
    hash->Add(p.seed);  // native width, matching the parse-only max bound
  };
  specs.push_back(std::move(seed));
  specs.push_back(EnumSpec(
      "metric", "Distance metric over feature vectors",
      {"l2", "squared-l2", "l1", "cosine"},
      [](const ValuatorParams& p) { return double(static_cast<int>(p.metric)); },
      [](ValuatorParams* p, double v) { p->metric = static_cast<Metric>(int(v)); }));
  specs.push_back(EnumSpec(
      "kernel", "Neighbor weight kernel for the weighted utilities",
      {"uniform", "inverse", "gaussian"},
      [](const ValuatorParams& p) {
        return double(static_cast<int>(p.weights.kernel));
      },
      [](ValuatorParams* p, double v) {
        p->weights.kernel = static_cast<WeightKernel>(int(v));
      }));
  specs.push_back(NumberSpec(
      "kernel_epsilon", ParamType::kDouble,
      "Regularizer of the inverse-distance kernel", 0, 1e6, true,
      [](const ValuatorParams& p) { return p.weights.epsilon; },
      [](ValuatorParams* p, double v) { p->weights.epsilon = v; }));
  specs.push_back(NumberSpec(
      "sigma", ParamType::kDouble, "Bandwidth of the Gaussian kernel", 0, 1e6,
      true, [](const ValuatorParams& p) { return p.weights.sigma; },
      [](ValuatorParams* p, double v) { p->weights.sigma = v; }));
  specs.push_back(NumberSpec(
      "contrast_sample", ParamType::kInt,
      "Corpus rows sampled for the LSH contrast estimate", 1, 1e9, false,
      [](const ValuatorParams& p) { return double(p.contrast_sample); },
      [](ValuatorParams* p, double v) {
        p->contrast_sample = static_cast<size_t>(v);
      }));
  specs.push_back(NumberSpec(
      "utility_range", ParamType::kDouble,
      "MC utility range r; 0 selects the 1/K default", 0, 1e6, false,
      [](const ValuatorParams& p) { return p.utility_range; },
      [](ValuatorParams* p, double v) { p->utility_range = v; }));
  ParamSpec max_permutations = NumberSpec(
      "max_permutations", ParamType::kInt,
      "MC permutation cap; -1 leaves only the stopping rule", -1,
      9007199254740992.0, false,
      [](const ValuatorParams& p) { return double(p.max_permutations); },
      [](ValuatorParams* p, double v) {
        p->max_permutations = static_cast<int64_t>(v);
      });
  max_permutations.max_is_parse_bound = true;  // native int64
  max_permutations.add_to_hash = [](const ValuatorParams& p, Fnv64* hash) {
    hash->Add(p.max_permutations);  // native width, like seed
  };
  specs.push_back(std::move(max_permutations));
  specs.push_back(NumberSpec(
      "weight_bits", ParamType::kInt,
      "Weight discretization bits b for weighted-fast (levels = 2^b - 1)", 1,
      8, false, [](const ValuatorParams& p) { return double(p.weight_bits); },
      [](ValuatorParams* p, double v) { p->weight_bits = static_cast<int>(v); }));
  specs.push_back(NumberSpec(
      "approx_error", ParamType::kDouble,
      "deterministic truncation budget (sup-norm); 0 = exact", 0, 1, false,
      [](const ValuatorParams& p) { return p.approx_error; },
      [](ValuatorParams* p, double v) { p->approx_error = v; }));
  return specs;
}

}  // namespace

const std::vector<ParamSpec>& ParamVocabulary() {
  static const std::vector<ParamSpec>* vocabulary =
      new std::vector<ParamSpec>(BuildVocabulary());
  return *vocabulary;
}

const ParamSpec* FindParamSpec(const std::string& name) {
  for (const auto& spec : ParamVocabulary()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const char* TaskName(KnnTask task) {
  switch (task) {
    case KnnTask::kClassification:
      return "classification";
    case KnnTask::kWeightedClassification:
      return "weighted-classification";
    case KnnTask::kRegression:
      return "regression";
    case KnnTask::kWeightedRegression:
      return "weighted-regression";
  }
  return "unknown";
}

bool ParseTaskName(const std::string& name, KnnTask* task) {
  for (KnnTask candidate :
       {KnnTask::kClassification, KnnTask::kWeightedClassification,
        KnnTask::kRegression, KnnTask::kWeightedRegression}) {
    if (name == TaskName(candidate)) {
      *task = candidate;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// MethodSchema
// ---------------------------------------------------------------------------

bool MethodSchema::Declares(const std::string& param_name) const {
  for (const ParamSpec* spec : params) {
    if (spec->name == param_name) return true;
  }
  return false;
}

KnnTask MethodSchema::DefaultTask() const {
  KNNSHAP_CHECK(!tasks.empty(), "schema '" + name + "' declares no tasks");
  return tasks.front();
}

bool MethodSchema::AllowsTask(KnnTask task) const {
  for (KnnTask allowed : tasks) {
    if (allowed == task) return true;
  }
  return false;
}

std::string MethodSchema::TaskNamesJoined() const {
  std::string out;
  for (KnnTask task : tasks) {
    if (!out.empty()) out += ", ";
    out += TaskName(task);
  }
  return out;
}

bool MethodSchema::RequiresLabels(KnnTask task) const {
  return task == KnnTask::kClassification ||
         task == KnnTask::kWeightedClassification;
}

bool MethodSchema::RequiresTargets(KnnTask task) const {
  return !RequiresLabels(task);
}

Status MethodSchema::Canonicalize(ValuatorParams* params) const {
  // Single-task methods define their task; requests cannot disagree with
  // it, so it is canonicalized silently (and fingerprints stay canonical).
  if (tasks.size() == 1) {
    params->task = tasks.front();
  } else if (!AllowsTask(params->task)) {
    return Status::InvalidArgument(
        "method '" + name + "' supports tasks: " + TaskNamesJoined() +
            " (got '" + TaskName(params->task) + "')",
        "task");
  }
  // Engine-side validation of native values: parse-only max bounds (the
  // 2^53 seed cap that keeps JSON/CLI double→uint64 casts defined) do not
  // apply to a ValuatorParams built programmatically at full width.
  for (const ParamSpec* spec : this->params) {
    Status status =
        spec->ValidateNumber(spec->get(*params), /*parse_surface=*/false);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

uint64_t MethodSchema::ParamsFingerprint(const ValuatorParams& params) const {
  Fnv64 hash;
  hash.AddString(name);
  if (tasks.size() > 1) hash.Add(static_cast<int>(params.task));
  for (const ParamSpec* spec : this->params) {
    hash.AddString(spec->name);
    spec->add_to_hash(params, &hash);
  }
  return hash.Digest();
}

std::vector<const ParamSpec*> ResolveParams(
    const std::vector<std::string>& names) {
  std::vector<const ParamSpec*> specs;
  specs.reserve(names.size());
  for (const auto& name : names) {
    const ParamSpec* spec = FindParamSpec(name);
    KNNSHAP_CHECK(spec != nullptr, "schema names unknown param '" + name + "'");
    specs.push_back(spec);
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Schema-derived parsing
// ---------------------------------------------------------------------------

namespace {

/// Validates a candidate against the spec and applies it when the method
/// declares it — the one code path both surfaces reduce to.
Status ValidateAndMaybeApply(const MethodSchema& schema, const ParamSpec& spec,
                             double value, ValuatorParams* params) {
  Status status = spec.ValidateNumber(value);
  if (!status.ok()) return status;
  if (schema.Declares(spec.name)) spec.set(params, value);
  return Status::Ok();
}

Status ApplyTask(const MethodSchema& schema, const std::string& task_name,
                 ValuatorParams* params) {
  KnnTask task;
  if (!ParseTaskName(task_name, &task)) {
    return Status::InvalidArgument("unknown task '" + task_name + "'", "task");
  }
  // An *explicit* task the method does not support is an error on every
  // surface — silent canonicalization (Canonicalize) is reserved for
  // requests that leave the task unset.
  if (!schema.AllowsTask(task)) {
    return Status::InvalidArgument(
        "method '" + schema.name + "' supports tasks: " +
            schema.TaskNamesJoined() + " (got '" + task_name + "')",
        "task");
  }
  params->task = task;
  return Status::Ok();
}

}  // namespace

Status ApplyJsonParams(const MethodSchema& schema, const JsonValue& request,
                       ValuatorParams* params) {
  params->task = schema.DefaultTask();
  if (request.Has("task")) {
    const JsonValue& task = request.Get("task");
    if (!task.IsString()) return NotAString("task");
    Status status = ApplyTask(schema, task.AsString(), params);
    if (!status.ok()) return status;
  }
  for (const ParamSpec& spec : ParamVocabulary()) {
    if (!request.Has(spec.name)) continue;
    const JsonValue& field = request.Get(spec.name);
    double value = 0.0;
    if (spec.type == ParamType::kEnum) {
      if (!field.IsString()) return NotAString(spec.name);
      int index = spec.EnumIndex(field.AsString());
      if (index < 0) {
        return Status::InvalidArgument("'" + spec.name + "' must be one of " +
                                           spec.EnumValuesJoined() + " (got '" +
                                           field.AsString() + "')",
                                       spec.name);
      }
      value = index;
    } else {
      if (!field.IsNumber()) return NotANumber(spec.name);
      value = field.AsNumber();
    }
    Status status = ValidateAndMaybeApply(schema, spec, value, params);
    if (!status.ok()) return status;
  }
  return schema.Canonicalize(params);
}

Status CheckRequestFields(const JsonValue& request,
                          const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : request.Fields()) {
    (void)value;
    if (key == "task" || FindParamSpec(key) != nullptr) continue;
    bool known = false;
    for (const auto& name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown field '" + key + "'", key);
    }
  }
  return Status::Ok();
}

Status ApplyCliParams(const MethodSchema& schema, const CommandLine& cli,
                      ValuatorParams* params,
                      const std::string* task_override) {
  params->task = schema.DefaultTask();
  const std::string* task = task_override ? task_override : cli.Raw("task");
  if (task != nullptr) {
    Status status = ApplyTask(schema, *task, params);
    if (!status.ok()) return status;
  }
  for (const ParamSpec& spec : ParamVocabulary()) {
    const std::string* raw = cli.Raw(spec.name);
    if (raw == nullptr) continue;
    double value = 0.0;
    if (spec.type == ParamType::kEnum) {
      int index = spec.EnumIndex(*raw);
      if (index < 0) {
        return Status::InvalidArgument("'" + spec.name + "' must be one of " +
                                           spec.EnumValuesJoined() + " (got '" +
                                           *raw + "')",
                                       spec.name);
      }
      value = index;
    } else {
      char* end = nullptr;
      value = std::strtod(raw->c_str(), &end);
      if (raw->empty() || end != raw->c_str() + raw->size()) {
        return NotANumber(spec.name);
      }
    }
    Status status = ValidateAndMaybeApply(schema, spec, value, params);
    if (!status.ok()) return status;
  }
  return schema.Canonicalize(params);
}

JsonValue ParamsToJson(const MethodSchema& schema,
                       const ValuatorParams& params) {
  JsonValue out = JsonValue::MakeObject();
  if (schema.tasks.size() > 1) {
    out.Set("task", JsonValue(TaskName(params.task)));
  }
  for (const ParamSpec* spec : schema.params) {
    double value = spec->get(params);
    if (value == spec->DefaultValue() &&
        std::find(schema.echo_if_nondefault.begin(),
                  schema.echo_if_nondefault.end(),
                  spec->name) != schema.echo_if_nondefault.end()) {
      // Omitted at default by declaration (wire compat for params
      // retrofitted onto a long-lived method); re-applying the echo
      // reproduces the same params, so the round-trip property holds.
      continue;
    }
    if (spec->type == ParamType::kEnum) {
      out.Set(spec->name, JsonValue(spec->enum_values[static_cast<size_t>(value)]));
    } else {
      out.Set(spec->name, JsonValue(value));
    }
  }
  return out;
}

JsonValue SchemaToJson(const MethodSchema& schema) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue(schema.name));
  out.Set("description", JsonValue(schema.description));
  out.Set("per_query", JsonValue(schema.per_query));
  JsonValue tasks = JsonValue::MakeArray();
  for (KnnTask task : schema.tasks) tasks.Append(JsonValue(TaskName(task)));
  out.Set("tasks", tasks);
  const bool labels = schema.RequiresLabels(schema.DefaultTask());
  const bool multi = schema.tasks.size() > 1;
  out.Set("requires", JsonValue(multi ? "labels-or-targets-by-task"
                                      : (labels ? "labels" : "targets")));
  if (schema.min_train_rows > 1) {
    out.Set("min_train_rows",
            JsonValue(static_cast<double>(schema.min_train_rows)));
  }
  JsonValue params = JsonValue::MakeArray();
  for (const ParamSpec* spec : schema.params) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("name", JsonValue(spec->name));
    entry.Set("type", JsonValue(ParamTypeName(spec->type)));
    if (spec->type == ParamType::kEnum) {
      JsonValue values = JsonValue::MakeArray();
      for (const auto& value : spec->enum_values) values.Append(JsonValue(value));
      entry.Set("values", values);
      entry.Set("default",
                JsonValue(spec->enum_values[static_cast<size_t>(
                    spec->DefaultValue())]));
    } else {
      entry.Set("default", JsonValue(spec->DefaultValue()));
      entry.Set("min", JsonValue(spec->min_value));
      entry.Set("max", JsonValue(spec->max_value));
      if (spec->min_exclusive) entry.Set("min_exclusive", JsonValue(true));
    }
    entry.Set("doc", JsonValue(spec->doc));
    params.Append(entry);
  }
  out.Set("params", params);
  return out;
}

std::string FormatSchemaHelp(const MethodSchema& schema) {
  std::string out = schema.name + "  —  " + schema.description + "\n";
  out += "  tasks: " + schema.TaskNamesJoined() +
         (schema.per_query ? "   (per-query decomposable)\n" : "   (batch-only)\n");
  for (const ParamSpec* spec : schema.params) {
    char line[256];
    if (spec->type == ParamType::kEnum) {
      std::snprintf(line, sizeof line, "  --%-17s %-7s %-21s %s\n",
                    spec->name.c_str(), ParamTypeName(spec->type),
                    spec->EnumValuesJoined().c_str(), spec->doc.c_str());
    } else {
      char range[64];
      std::snprintf(range, sizeof range, "%s%g, %g]",
                    spec->min_exclusive ? "(" : "[", spec->min_value,
                    spec->max_value);
      std::snprintf(line, sizeof line, "  --%-17s %-7s %-21s %s (default %g)\n",
                    spec->name.c_str(), ParamTypeName(spec->type), range,
                    spec->doc.c_str(), spec->DefaultValue());
    }
    out += line;
  }
  return out;
}

}  // namespace knnshap
