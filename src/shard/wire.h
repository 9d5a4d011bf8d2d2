// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// The shard wire layer: builders and parsers for the JSONL messages the
// router exchanges with shard workers over the socket transport
// (socket_worker.h; spawned children and remote replicas alike). The
// messages are ordinary serve-protocol requests (docs/PROTOCOL.md is the
// normative spec); this header is the single in-tree encoding of them, so
// a framing change cannot drift between the router and the worker ops in
// serve/pipeline.cpp.
//
// Bulk payloads (protocol 2) are packed: one base64 string field of
// little-endian raw bits instead of a JSON array of numbers. A candidate
// run is count x (u32 global row index, f64 distance bits); corpus rows
// are count x dim f32 features plus an i32 label or f64 target column.
// Raw bits make every value round-trip exactly, and JSONL stays the only
// framing.
//
// Also here: corpus-sync planning. A remote worker is a long-lived
// process that keeps its corpus between router re-fits, so the router
// asks it for its per-block content digests (`digests` op) and ships only
// the blocks that changed (`load_delta`) instead of the full inline
// `load`. The plan is computed from CorpusStore's incrementally
// maintained CorpusDigests — the same digests that content-address the
// shards — so "what changed" costs zero rehashing.

#ifndef KNNSHAP_SHARD_WIRE_H_
#define KNNSHAP_SHARD_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/io.h"
#include "knn/metric.h"
#include "shard/shard_planner.h"
#include "util/fingerprint.h"
#include "util/json.h"
#include "util/status.h"

namespace knnshap {
namespace wire {

/// The protocol version this build speaks: the `protocol` op reports it,
/// and a router refuses a worker that reports another.
inline constexpr int kProtocolVersion = 2;

/// Padded RFC 4648 base64, the text form of every packed payload.
std::string EncodeBase64(std::string_view bytes);
/// Strict decoder: the length must be a multiple of 4, '=' may only pad
/// the last quantum, and the padding bits must be zero. False on any
/// other input (*bytes is then unspecified).
bool DecodeBase64(std::string_view text, std::string* bytes);

/// The packed `run` of a `candidates` reply: entry i is (indices[i],
/// distances[i]) as a u32 and the f64's bits, little-endian.
std::string PackCandidateRun(std::span<const int> indices,
                             std::span<const double> distances);

/// Canonical fingerprint encoding on the wire: "0x%016llx".
std::string FingerprintHex(uint64_t fingerprint);
bool ParseHexFingerprint(const std::string& hex, uint64_t* out);

/// The trailing-column target mode of a dataset ("label"|"target"|"none").
/// Datasets with both channels cannot ship over the one-column wire.
std::string TargetMode(const Dataset& data);

/// One `candidates` request for a planned shard. Forwards the *remaining*
/// budget of the active CancelToken (if any) as `deadline_ms`, so a
/// worker-side deadline can never fire before the router's own.
JsonValue BuildCandidatesRequest(const ShardRange& range,
                                 const std::string& corpus_name, Metric metric,
                                 std::span<const float> query, size_t r);

/// Parses the `candidates` response to a request with rank `r` into the
/// global row-indexed `dists` buffer and the candidate run. The run must
/// hold exactly min(r, range.Rows()) entries, each index inside `range`,
/// strictly ascending in (distance, index); the merge trusts all three.
/// Returns:
///   OK                  — run is usable
///   kDeadlineExceeded   — the worker propagated the forwarded deadline
///                         (health stays OK; the router's token is the
///                         authority)
///   kUnavailable        — the worker answered a structured error
///   kInternal           — unparseable / malformed / out-of-range payload
Status ParseCandidatesResponse(const std::string& line, const ShardRange& range,
                               size_t r, std::span<double> dists,
                               std::vector<int>* run);
/// As above for a caller that does not know `r`: the run may hold any
/// number of entries up to range.Rows().
Status ParseCandidatesResponse(const std::string& line, const ShardRange& range,
                               std::span<double> dists, std::vector<int>* run);

/// Sets the packed-rows fields (`count`, `features`, and `labels` or
/// `targets` by the corpus's target mode) for rows [begin, end) on *out.
void SetPackedRows(const Dataset& corpus, size_t begin, size_t end,
                   JsonValue* out);

/// Appends the packed rows `payload` carries (fields as SetPackedRows
/// writes them) to *data, which must be empty or have `dim` columns.
/// Checks `count` against `expected_rows` (0: any positive count), every
/// byte length against count and `dim`, and that every feature is finite
/// before touching *data; on failure returns false with *error set.
bool AppendPackedRows(const JsonValue& payload, size_t dim, CsvTarget target,
                      size_t expected_rows, Dataset* data, std::string* error);

/// The full `load` op in packed form: `dim` plus the packed rows of the
/// whole corpus. Raw bits round-trip exactly, so the receiver's
/// independently computed content fingerprint must equal the sender's.
JsonValue BuildInlineLoadRequest(const std::string& corpus_name,
                                 const Dataset& corpus);

/// `digests` op: ask a worker which corpus version (per-block) it holds.
JsonValue BuildDigestsRequest(const std::string& corpus_name);

/// Per-block combined digest (features + labels + targets of one row
/// block) — the unit of delta sync, and what the `digests` op reports.
uint64_t BlockDigest(const CorpusDigests& digests, size_t block);

/// How to bring a worker's corpus up to date with `local`.
struct CorpusSyncPlan {
  enum class Mode {
    kNone,   ///< Fingerprints match — nothing to send.
    kDelta,  ///< Ship only `blocks` via `load_delta`.
    kFull,   ///< Unknown/incompatible remote state — full packed `load`.
  };
  Mode mode = Mode::kFull;
  std::vector<size_t> blocks;  ///< Changed block indices (kDelta only).
};

/// Plans the sync from the local digests and the worker's parsed
/// `digests` response (ok:false — typically not_found — plans a full
/// load, as does any shape/target/block-size mismatch).
CorpusSyncPlan PlanCorpusSync(const Dataset& corpus,
                              const CorpusDigests& local,
                              const JsonValue& remote_response);

/// `load_delta` op carrying exactly `blocks` (ascending) of `corpus`, each
/// as packed rows, the new row/dim totals and the expected combined
/// fingerprint.
JsonValue BuildDeltaLoadRequest(const std::string& corpus_name,
                                const Dataset& corpus,
                                const CorpusDigests& digests,
                                const std::vector<size_t>& blocks);

}  // namespace wire
}  // namespace knnshap

#endif  // KNNSHAP_SHARD_WIRE_H_
