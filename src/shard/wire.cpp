// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "knn/distance_kernel.h"
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
  // from_chars, not strtoull: no sign, no whitespace, no wraparound.
  const char* end = hex.data() + hex.size();
  const auto [stop, ec] = std::from_chars(hex.data() + 2, end, *out, 16);
  return ec == std::errc() && stop == end;
}

JsonValue OkResponse() {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue(true));
  return out;
}

JsonValue ErrorResponse(const Status& status) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue(false));
  out.Set("error", JsonValue(status.message()));
  out.Set("code", JsonValue(StatusCodeName(status.code())));
  if (!status.field().empty()) out.Set("field", JsonValue(status.field()));
  return out;
}

JsonValue ErrorResponse(const std::string& message) {
  return ErrorResponse(Status::InvalidArgument(message));
}

JsonValue ProtocolResponse() {
  JsonValue out = OkResponse();
  out.Set("protocol", JsonValue(kProtocolVersion));
  out.Set("kernel", JsonValue(KernelName(ActiveKernel())));
  out.Set("kernel_auto", JsonValue(KernelChoiceIsAuto()));
  return out;
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

/// The two characters of every 12-bit value: a 3-byte group encodes with
/// two lookups.
constexpr std::array<std::array<char, 2>, 4096> kBase64Pairs = [] {
  std::array<std::array<char, 2>, 4096> pairs{};
  for (size_t v = 0; v < 4096; ++v) {
    pairs[v] = {kBase64Alphabet[v >> 6], kBase64Alphabet[v & 63]};
  }
  return pairs;
}();

/// kBase64Shifted[k][c]: character c's six bits placed for position k of a
/// quantum, so a quantum decodes to the OR of four lookups. A byte outside
/// the alphabet sets the top byte, which no valid quantum reaches.
constexpr uint32_t kBase64Invalid = 0xff000000u;
constexpr std::array<std::array<uint32_t, 256>, 4> kBase64Shifted = [] {
  std::array<std::array<uint32_t, 256>, 4> shifted{};
  for (size_t k = 0; k < 4; ++k) {
    for (size_t c = 0; c < 256; ++c) {
      shifted[k][c] = kBase64Values[c] == 64
                          ? kBase64Invalid
                          : uint32_t{kBase64Values[c]} << (18 - 6 * k);
    }
  }
  return shifted;
}();

/// The byte count padded base64 `text` decodes to. `text` must be a
/// non-empty whole number of quanta.
size_t DecodedSize(std::string_view text) {
  size_t pad = 0;
  if (text.back() == '=') pad = text[text.size() - 2] == '=' ? 2 : 1;
  return text.size() / 4 * 3 - pad;
}

/// Decodes `text`, a whole number of quanta, into out[0, DecodedSize).
/// False on any byte outside the alphabet, '=' anywhere but the padding of
/// the last quantum, or nonzero padding bits; out is then unspecified.
bool DecodeBase64To(std::string_view text, char* out) {
  if (text.empty()) return true;
  const auto* in = reinterpret_cast<const uint8_t*>(text.data());
  const size_t quanta = text.size() / 4;
  // Every quantum but the last: '=' is outside the alphabet here, and the
  // lookups' invalid bits accumulate into one check after the loop.
  uint32_t seen = 0;
  for (size_t q = 0; q + 1 < quanta; ++q, in += 4, out += 3) {
    const uint32_t v = kBase64Shifted[0][in[0]] | kBase64Shifted[1][in[1]] |
                       kBase64Shifted[2][in[2]] | kBase64Shifted[3][in[3]];
    seen |= v;
    out[0] = static_cast<char>(v >> 16);
    out[1] = static_cast<char>(v >> 8);
    out[2] = static_cast<char>(v);
  }
  if (seen & kBase64Invalid) return false;
  // The last quantum may end in one or two '='.
  const size_t pad = in[3] != '=' ? 0 : in[2] == '=' ? 2 : 1;
  const uint32_t a = kBase64Values[in[0]], b = kBase64Values[in[1]];
  const uint32_t c = pad == 2 ? 0 : kBase64Values[in[2]];
  const uint32_t d = pad > 0 ? 0 : kBase64Values[in[3]];
  if ((a | b | c | d) & 64) return false;
  const uint32_t v = a << 18 | b << 12 | c << 6 | d;
  out[0] = static_cast<char>(v >> 16);
  if (pad == 2) return (v & 0xffff) == 0;
  out[1] = static_cast<char>(v >> 8);
  if (pad == 1) return (v & 0xff) == 0;
  out[2] = static_cast<char>(v);
  return true;
}

/// Bytes per packed candidate: u32 row index + f64 distance bits.
constexpr size_t kRunEntryBytes = 12;
/// Packed rows carry at most this many rows: row indices are ints.
constexpr size_t kMaxPackedRows = 2147483647;

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

/// Decodes a `dists` column of range.Rows() distances into `dists` at the
/// range's rows.
bool DecodeDistanceColumn(const JsonValue& column, const ShardRange& range,
                          std::span<double> dists) {
  if (!column.IsString()) return false;
  const std::string& text = column.AsString();
  const size_t bytes = range.Rows() * sizeof(double);
  if (text.size() % 4 != 0 || (text.empty() ? 0 : DecodedSize(text)) != bytes) {
    return false;
  }
  double* out = dists.data() + range.row_begin;
  if constexpr (std::endian::native == std::endian::little) {
    return DecodeBase64To(text, reinterpret_cast<char*>(out));
  } else {
    thread_local std::string raw;
    raw.resize(bytes);
    if (!DecodeBase64To(text, raw.data())) return false;
    for (size_t i = 0; i < range.Rows(); ++i) {
      out[i] = std::bit_cast<double>(GetLittleEndian<uint64_t>(&raw[i * 8]));
    }
    return true;
  }
}

/// `r` for a caller that does not know the request's rank.
constexpr size_t kUnknownRank = SIZE_MAX;

Status ParseCandidates(std::string_view line, const ShardRange& range,
                       size_t r, std::span<double> dists,
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
  const bool known = r != kUnknownRank;
  const bool column = response.Has("dists");
  if (column == response.Has("run")) {
    return malformed("a candidates reply without exactly one of run, dists");
  }
  if (column) {
    if (known && !RepliesWithColumn(r, range.Rows())) {
      return malformed("a distance column for an r below the shard's rows");
    }
    if (!DecodeDistanceColumn(response.Get("dists"), range, dists)) {
      return malformed("a malformed distance column");
    }
    return Status::Ok();
  }
  if (known && RepliesWithColumn(r, range.Rows())) {
    return malformed("a candidate run for an r that covers the shard");
  }
  const size_t max_count = known ? r : range.Rows() - 1;
  thread_local std::string bytes;
  const JsonValue& packed = response.Get("run");
  if (!packed.IsString() || !DecodeBase64(packed.AsString(), &bytes) ||
      bytes.size() % kRunEntryBytes != 0) {
    return malformed("a malformed candidate run");
  }
  const size_t count = bytes.size() / kRunEntryBytes;
  if (count > max_count || (known && count != max_count)) {
    return malformed("a candidate run of " + std::to_string(count) +
                     " entries, expected " + (known ? "" : "at most ") +
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
  for (; i + 3 <= bytes.size(); i += 3, o += 4) {
    const uint32_t v = byte(i) << 16 | byte(i + 1) << 8 | byte(i + 2);
    std::memcpy(o, kBase64Pairs[v >> 12].data(), 2);
    std::memcpy(o + 2, kBase64Pairs[v & 0xfff].data(), 2);
  }
  if (const size_t rest = bytes.size() - i; rest > 0) {
    const uint32_t v = byte(i) << 16 | (rest == 2 ? byte(i + 1) << 8 : 0);
    std::memcpy(o, kBase64Pairs[v >> 12].data(), 2);
    if (rest == 2) o[2] = kBase64Alphabet[(v >> 6) & 63];
  }
  return out;
}

bool DecodeBase64(std::string_view text, std::string* bytes) {
  if (text.size() % 4 != 0) return false;
  bytes->resize(text.empty() ? 0 : DecodedSize(text));
  return DecodeBase64To(text, bytes->data());
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

std::string PackDistanceColumn(std::span<const double> distances) {
  if constexpr (std::endian::native == std::endian::little) {
    return EncodeBase64(std::string_view(
        reinterpret_cast<const char*>(distances.data()),
        distances.size_bytes()));
  } else {
    std::string bytes(distances.size_bytes(), '\0');
    for (size_t i = 0; i < distances.size(); ++i) {
      PutLittleEndian(std::bit_cast<uint64_t>(distances[i]), &bytes[i * 8]);
    }
    return EncodeBase64(bytes);
  }
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

Status ParseCandidatesResponse(std::string_view line, const ShardRange& range,
                               size_t r, std::span<double> dists,
                               std::vector<int>* run) {
  return ParseCandidates(line, range, std::min(r, range.Rows()), dists, run);
}

Status ParseCandidatesResponse(std::string_view line, const ShardRange& range,
                               std::span<double> dists, std::vector<int>* run) {
  return ParseCandidates(line, range, kUnknownRank, dists, run);
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
  size_t count = 0;
  if (!JsonInteger(payload.Get("count"), 1, kMaxPackedRows, &count)) {
    *error = "'count' must be a positive integer";
    return false;
  }
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
  load.Set("target", JsonValue(CsvTargetName(TargetOf(corpus))));
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
                              const ShardRange& window,
                              const JsonValue& remote_response) {
  const size_t block_rows = local.block_rows;
  const size_t first_block = window.row_begin / block_rows;
  const size_t end_block = (window.row_end + block_rows - 1) / block_rows;
  CorpusSyncPlan plan;
  plan.mode = CorpusSyncPlan::Mode::kFull;
  for (size_t b = first_block; b < end_block; ++b) plan.blocks.push_back(b);
  if (!remote_response.Get("ok").AsBool(false)) return plan;  // not_found etc.
  // Kept blocks are spliced next to shipped ones, so every structural
  // parameter must match; anything else ships every block (correct by
  // construction, just more bytes).
  size_t dim = 0, remote_block_rows = 0, held_rows = 0, held_begin = 0;
  if (!JsonInteger(remote_response.Get("dim"), 1, kMaxJsonInteger, &dim) ||
      !JsonInteger(remote_response.Get("block_rows"), 1, kMaxJsonInteger,
                   &remote_block_rows) ||
      !JsonInteger(remote_response.Get("rows"), 1, kMaxJsonInteger,
                   &held_rows) ||
      (remote_response.Has("row_begin") &&
       !JsonInteger(remote_response.Get("row_begin"), 0, kMaxJsonInteger,
                    &held_begin)) ||
      dim != local.cols || remote_block_rows != block_rows ||
      held_begin % block_rows != 0 ||
      remote_response.Get("target").AsString() !=
          CsvTargetName(TargetOf(corpus))) {
    return plan;
  }
  uint64_t remote_fingerprint = 0;
  if (!ParseHexFingerprint(remote_response.Get("fingerprint").AsString(),
                           &remote_fingerprint)) {
    return plan;
  }
  if (held_begin == window.row_begin && held_rows == window.Rows() &&
      remote_fingerprint ==
          WindowDigests(local, window.row_begin, window.row_end).Combined()) {
    plan.mode = CorpusSyncPlan::Mode::kNone;
    plan.blocks.clear();
    return plan;
  }
  const JsonValue& remote_blocks = remote_response.Get("blocks");
  if (!remote_blocks.IsArray()) return plan;
  // Blocks are addressed by corpus block index: the worker's i-th digest
  // is block held_first + i, so a window whose boundaries moved keeps the
  // overlap with the one it holds.
  const size_t held_first = held_begin / block_rows;
  const auto& held = remote_blocks.Items();
  plan.mode = CorpusSyncPlan::Mode::kDelta;
  plan.blocks.clear();
  for (size_t b = first_block; b < end_block; ++b) {
    uint64_t remote_digest = 0;
    const bool kept = b >= held_first && b - held_first < held.size() &&
                      ParseHexFingerprint(held[b - held_first].AsString(),
                                          &remote_digest) &&
                      remote_digest == BlockDigest(local, b);
    if (!kept) plan.blocks.push_back(b);
  }
  return plan;
}

JsonValue BuildDeltaLoadRequest(const std::string& corpus_name,
                                const Dataset& corpus,
                                const CorpusDigests& digests,
                                const ShardRange& window,
                                const std::vector<size_t>& blocks) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", JsonValue("load_delta"));
  request.Set("name", JsonValue(corpus_name));
  request.Set("target", JsonValue(CsvTargetName(TargetOf(corpus))));
  request.Set("rows", JsonValue(static_cast<double>(corpus.Size())));
  request.Set("dim", JsonValue(static_cast<double>(corpus.Dim())));
  if (window.row_begin != 0 || window.row_end != corpus.Size()) {
    request.Set("row_begin", JsonValue(static_cast<double>(window.row_begin)));
    request.Set("row_end", JsonValue(static_cast<double>(window.row_end)));
  }
  request.Set("fingerprint",
              JsonValue(FingerprintHex(
                  WindowDigests(digests, window.row_begin, window.row_end)
                      .Combined())));
  JsonValue block_array = JsonValue::MakeArray();
  for (size_t b : blocks) {
    const size_t begin = b * digests.block_rows;
    KNNSHAP_CHECK(begin >= window.row_begin && begin < window.row_end,
                  "delta block outside the window");
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("block", JsonValue(static_cast<double>(b)));
    SetPackedRows(corpus, begin,
                  std::min(begin + digests.block_rows, window.row_end), &entry);
    block_array.Append(std::move(entry));
  }
  request.Set("blocks", std::move(block_array));
  return request;
}

}  // namespace wire
}  // namespace knnshap
