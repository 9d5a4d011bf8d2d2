// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/cancel.h"
#include "util/common.h"

namespace knnshap {
namespace wire {

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

bool ParseHexFingerprint(const std::string& hex, uint64_t* out) {
  if (hex.size() < 3 || hex[0] != '0' || (hex[1] != 'x' && hex[1] != 'X')) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(hex.c_str() + 2, &end, 16);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

std::string TargetMode(const Dataset& data) {
  if (data.HasLabels()) return "label";
  if (data.HasTargets()) return "target";
  return "none";
}

namespace {

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// 0..63 for the alphabet's characters, 64 for every other byte.
constexpr std::array<uint8_t, 256> kBase64Values = [] {
  std::array<uint8_t, 256> values{};
  values.fill(64);
  for (uint8_t i = 0; i < 64; ++i) {
    values[static_cast<uint8_t>(kBase64Alphabet[i])] = i;
  }
  return values;
}();

/// Bytes per packed candidate: u32 row index + f64 distance bits.
constexpr size_t kRunEntryBytes = 12;
/// Packed rows carry at most this many rows: row indices are ints.
constexpr double kMaxPackedRows = 2147483647.0;

/// Little-endian bytes of an unsigned integer, whatever the host order.
template <typename T>
void PutLittleEndian(T value, char* out) {
  for (size_t b = 0; b < sizeof(T); ++b) {
    out[b] = static_cast<char>(value >> (8 * b));
  }
}

template <typename T>
T GetLittleEndian(const char* in) {
  T value = 0;
  for (size_t b = 0; b < sizeof(T); ++b) {
    value |= static_cast<T>(static_cast<uint8_t>(in[b])) << (8 * b);
  }
  return value;
}

/// Decodes the base64 string field `field` of `payload` into *bytes and
/// checks it holds exactly `expected` bytes.
bool DecodeColumn(const JsonValue& payload, const char* field, size_t expected,
                  std::string* bytes, std::string* error) {
  const JsonValue& text = payload.Get(field);
  if (!text.IsString() || !DecodeBase64(text.AsString(), bytes)) {
    *error = std::string("'") + field + "' must be a base64 string";
    return false;
  }
  if (bytes->size() != expected) {
    *error = std::string("'") + field + "' holds " +
             std::to_string(bytes->size()) + " bytes, expected " +
             std::to_string(expected);
    return false;
  }
  return true;
}

Status ParseRun(const std::string& line, const ShardRange& range,
                size_t max_count, bool exact_count, std::span<double> dists,
                std::vector<int>* run) {
  KNNSHAP_CHECK(range.row_end <= dists.size(), "dists buffer too small");
  run->clear();
  JsonParseResult parsed = ParseJson(line);
  if (!parsed.ok()) {
    return Status::Error(StatusCode::kInternal,
                         "shard worker sent an unparseable response");
  }
  const JsonValue& response = parsed.value;
  if (!response.Get("ok").AsBool(false)) {
    if (response.Get("code").AsString() == "deadline_exceeded") {
      return Status::DeadlineExceeded("shard worker deadline");
    }
    return Status::Unavailable("shard worker error: " +
                               response.Get("error").AsString());
  }
  const auto malformed = [](const std::string& what) {
    return Status::Error(StatusCode::kInternal,
                         "shard worker returned " + what);
  };
  thread_local std::string bytes;
  const JsonValue& packed = response.Get("run");
  if (!packed.IsString() || !DecodeBase64(packed.AsString(), &bytes) ||
      bytes.size() % kRunEntryBytes != 0) {
    return malformed("a malformed candidate run");
  }
  const size_t count = bytes.size() / kRunEntryBytes;
  if (count > max_count || (exact_count && count != max_count)) {
    return malformed("a candidate run of " + std::to_string(count) +
                     " entries, expected " + (exact_count ? "" : "at most ") +
                     std::to_string(max_count));
  }
  run->reserve(count);
  // The last entry with a number for a distance. The merge trusts each
  // run's (distance, index) order; NaN distances have no place in it and
  // pass through as computed, but cannot hide a descent around them.
  double previous = 0.0;
  uint32_t previous_index = 0;
  bool have_previous = false;
  // The merge reads each distance back from `dists` by index, so a row
  // named twice would make one entry read the other's distance.
  thread_local std::vector<bool> seen;
  seen.assign(range.Rows(), false);
  for (size_t e = 0; e < count; ++e) {
    const char* entry = bytes.data() + e * kRunEntryBytes;
    const uint32_t index = GetLittleEndian<uint32_t>(entry);
    const double dist =
        std::bit_cast<double>(GetLittleEndian<uint64_t>(entry + 4));
    if (index < range.row_begin || index >= range.row_end) {
      run->clear();
      return malformed("an out-of-range candidate");
    }
    if (seen[index - range.row_begin]) {
      run->clear();
      return malformed("a candidate run naming a row twice");
    }
    seen[index - range.row_begin] = true;
    if (!std::isnan(dist)) {
      if (have_previous && !(previous < dist || (previous == dist &&
                                                  previous_index < index))) {
        run->clear();
        return malformed("a candidate run out of (distance, index) order");
      }
      previous = dist;
      previous_index = index;
      have_previous = true;
    }
    dists[index] = dist;
    run->push_back(static_cast<int>(index));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeBase64(std::string_view bytes) {
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

bool DecodeBase64(std::string_view text, std::string* bytes) {
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

std::string PackCandidateRun(std::span<const int> indices,
                             std::span<const double> distances) {
  KNNSHAP_CHECK(indices.size() == distances.size(),
                "candidate run: one distance per index");
  std::string bytes(indices.size() * kRunEntryBytes, '\0');
  for (size_t e = 0; e < indices.size(); ++e) {
    char* entry = bytes.data() + e * kRunEntryBytes;
    PutLittleEndian(static_cast<uint32_t>(indices[e]), entry);
    PutLittleEndian(std::bit_cast<uint64_t>(distances[e]), entry + 4);
  }
  return EncodeBase64(bytes);
}

JsonValue BuildCandidatesRequest(const ShardRange& range,
                                 const std::string& corpus_name, Metric metric,
                                 std::span<const float> query, size_t r) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", JsonValue("candidates"));
  request.Set("train", JsonValue(corpus_name));
  request.Set("metric", JsonValue(MetricName(metric)));
  request.Set("r", JsonValue(static_cast<double>(r)));
  request.Set("row_begin", JsonValue(static_cast<double>(range.row_begin)));
  request.Set("row_end", JsonValue(static_cast<double>(range.row_end)));
  request.Set("fingerprint", JsonValue(FingerprintHex(range.fingerprint)));
  JsonValue q = JsonValue::MakeArray();
  for (float f : query) q.Append(JsonValue(static_cast<double>(f)));
  request.Set("query", std::move(q));
  // Forward the *remaining* budget: the worker's token, constructed after
  // this read, can never fire later than the router's — so a worker-side
  // deadline_exceeded implies the router token is (about to be) expired
  // and the router's own post-fan-out check stays the authority.
  const CancelToken* token = ActiveCancelToken();
  if (token != nullptr && token->has_deadline()) {
    request.Set("deadline_ms",
                JsonValue(static_cast<double>(token->RemainingMs())));
  }
  return request;
}

Status ParseCandidatesResponse(const std::string& line, const ShardRange& range,
                               size_t r, std::span<double> dists,
                               std::vector<int>* run) {
  return ParseRun(line, range, std::min(r, range.Rows()), true, dists, run);
}

Status ParseCandidatesResponse(const std::string& line, const ShardRange& range,
                               std::span<double> dists, std::vector<int>* run) {
  return ParseRun(line, range, range.Rows(), false, dists, run);
}

void SetPackedRows(const Dataset& corpus, size_t begin, size_t end,
                   JsonValue* out) {
  KNNSHAP_CHECK(begin < end && end <= corpus.Size(),
                "packed rows out of range");
  const size_t count = end - begin, dim = corpus.Dim();
  out->Set("count", JsonValue(static_cast<double>(count)));
  std::string bytes(count * dim * 4, '\0');
  char* o = bytes.data();
  for (size_t i = begin; i < end; ++i) {
    for (float f : corpus.features.Row(i)) {
      PutLittleEndian(std::bit_cast<uint32_t>(f), o);
      o += 4;
    }
  }
  out->Set("features", JsonValue(EncodeBase64(bytes)));
  if (corpus.HasLabels()) {
    bytes.assign(count * 4, '\0');
    for (size_t i = begin; i < end; ++i) {
      PutLittleEndian(static_cast<uint32_t>(corpus.labels[i]),
                      &bytes[(i - begin) * 4]);
    }
    out->Set("labels", JsonValue(EncodeBase64(bytes)));
  } else if (corpus.HasTargets()) {
    bytes.assign(count * 8, '\0');
    for (size_t i = begin; i < end; ++i) {
      PutLittleEndian(std::bit_cast<uint64_t>(corpus.targets[i]),
                      &bytes[(i - begin) * 8]);
    }
    out->Set("targets", JsonValue(EncodeBase64(bytes)));
  }
}

bool AppendPackedRows(const JsonValue& payload, size_t dim, CsvTarget target,
                      size_t expected_rows, Dataset* data, std::string* error) {
  const JsonValue& count_json = payload.Get("count");
  const double raw = count_json.IsNumber() ? count_json.AsNumber() : 0.0;
  if (!(raw >= 1.0 && raw <= kMaxPackedRows) ||
      raw != static_cast<double>(static_cast<size_t>(raw))) {
    *error = "'count' must be a positive integer";
    return false;
  }
  const size_t count = static_cast<size_t>(raw);
  if (expected_rows != 0 && count != expected_rows) {
    *error = "'count' is " + std::to_string(count) + ", expected " +
             std::to_string(expected_rows);
    return false;
  }
  if (dim == 0 || dim > SIZE_MAX / 4 / count ||
      (!data->features.Empty() && dim != data->Dim())) {
    *error = "packed rows do not match the corpus dim";
    return false;
  }
  const char* column = target == CsvTarget::kLabel    ? "labels"
                       : target == CsvTarget::kTarget ? "targets"
                                                      : nullptr;
  for (const char* field : {"labels", "targets"}) {
    if (payload.Has(field) &&
        (column == nullptr || std::string_view(column) != field)) {
      *error = std::string("'") + field + "' does not match the target mode";
      return false;
    }
  }
  thread_local std::string features, values;
  if (!DecodeColumn(payload, "features", count * dim * 4, &features, error) ||
      (column != nullptr &&
       !DecodeColumn(payload, column,
                     count * (target == CsvTarget::kLabel ? 4 : 8), &values,
                     error))) {
    return false;
  }
  // Reject before appending, so a bad payload leaves *data untouched.
  for (size_t i = 0; i < count * dim; ++i) {
    if (!std::isfinite(
            std::bit_cast<float>(GetLittleEndian<uint32_t>(&features[i * 4])))) {
      *error = "packed features must be finite";
      return false;
    }
  }
  thread_local std::vector<float> row;
  row.resize(dim);
  for (size_t i = 0; i < count; ++i) {
    for (size_t c = 0; c < dim; ++c) {
      row[c] = std::bit_cast<float>(
          GetLittleEndian<uint32_t>(&features[(i * dim + c) * 4]));
    }
    data->features.AppendRow(row);
    if (target == CsvTarget::kLabel) {
      data->labels.push_back(
          static_cast<int32_t>(GetLittleEndian<uint32_t>(&values[i * 4])));
    } else if (target == CsvTarget::kTarget) {
      data->targets.push_back(
          std::bit_cast<double>(GetLittleEndian<uint64_t>(&values[i * 8])));
    }
  }
  return true;
}

JsonValue BuildInlineLoadRequest(const std::string& corpus_name,
                                 const Dataset& corpus) {
  JsonValue load = JsonValue::MakeObject();
  load.Set("op", JsonValue("load"));
  load.Set("name", JsonValue(corpus_name));
  load.Set("target", JsonValue(TargetMode(corpus)));
  load.Set("dim", JsonValue(static_cast<double>(corpus.Dim())));
  SetPackedRows(corpus, 0, corpus.Size(), &load);
  return load;
}

JsonValue BuildDigestsRequest(const std::string& corpus_name) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", JsonValue("digests"));
  request.Set("name", JsonValue(corpus_name));
  return request;
}

uint64_t BlockDigest(const CorpusDigests& digests, size_t block) {
  KNNSHAP_CHECK(block < digests.NumBlocks(), "block index out of range");
  Fnv64 hash;
  hash.Add(digests.feature_blocks[block]);
  // Presence flags keep "no labels" distinct from "labels hashing to 0".
  hash.Add(!digests.label_blocks.empty());
  if (!digests.label_blocks.empty()) hash.Add(digests.label_blocks[block]);
  hash.Add(!digests.target_blocks.empty());
  if (!digests.target_blocks.empty()) hash.Add(digests.target_blocks[block]);
  return hash.Digest();
}

CorpusSyncPlan PlanCorpusSync(const Dataset& corpus, const CorpusDigests& local,
                              const JsonValue& remote_response) {
  CorpusSyncPlan plan;
  plan.mode = CorpusSyncPlan::Mode::kFull;
  if (!remote_response.Get("ok").AsBool(false)) return plan;  // not_found etc.
  // A delta splices blocks into the worker's existing corpus, so every
  // structural parameter must match; anything else falls back to a full
  // load (correct by construction, just more bytes).
  if (static_cast<size_t>(remote_response.Get("dim").AsNumber(0)) !=
          local.cols ||
      static_cast<size_t>(remote_response.Get("block_rows").AsNumber(0)) !=
          local.block_rows ||
      remote_response.Get("target").AsString() != TargetMode(corpus)) {
    return plan;
  }
  uint64_t remote_fingerprint = 0;
  if (!ParseHexFingerprint(remote_response.Get("fingerprint").AsString(),
                           &remote_fingerprint)) {
    return plan;
  }
  if (remote_fingerprint == local.Combined()) {
    plan.mode = CorpusSyncPlan::Mode::kNone;
    return plan;
  }
  const JsonValue& remote_blocks = remote_response.Get("blocks");
  if (!remote_blocks.IsArray()) return plan;
  plan.mode = CorpusSyncPlan::Mode::kDelta;
  plan.blocks.clear();
  for (size_t b = 0; b < local.NumBlocks(); ++b) {
    uint64_t remote_digest = 0;
    const bool have_remote =
        b < remote_blocks.Items().size() &&
        ParseHexFingerprint(remote_blocks.Items()[b].AsString(),
                            &remote_digest);
    if (!have_remote || remote_digest != BlockDigest(local, b)) {
      plan.blocks.push_back(b);
    }
  }
  return plan;
}

JsonValue BuildDeltaLoadRequest(const std::string& corpus_name,
                                const Dataset& corpus,
                                const CorpusDigests& digests,
                                const std::vector<size_t>& blocks) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", JsonValue("load_delta"));
  request.Set("name", JsonValue(corpus_name));
  request.Set("target", JsonValue(TargetMode(corpus)));
  request.Set("rows", JsonValue(static_cast<double>(corpus.Size())));
  request.Set("dim", JsonValue(static_cast<double>(corpus.Dim())));
  request.Set("fingerprint", JsonValue(FingerprintHex(digests.Combined())));
  JsonValue block_array = JsonValue::MakeArray();
  for (size_t b : blocks) {
    KNNSHAP_CHECK(b < digests.NumBlocks(), "delta block out of range");
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("block", JsonValue(static_cast<double>(b)));
    const size_t begin = b * digests.block_rows;
    SetPackedRows(corpus, begin,
                  std::min(begin + digests.block_rows, corpus.Size()), &entry);
    block_array.Append(std::move(entry));
  }
  request.Set("blocks", std::move(block_array));
  return request;
}

}  // namespace wire
}  // namespace knnshap
