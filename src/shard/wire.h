// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// The shard wire layer: builders and parsers for the JSONL messages the
// router exchanges with shard workers over the socket transport
// (socket_worker.h; spawned children and remote replicas alike). The
// messages are ordinary serve-protocol requests (docs/PROTOCOL.md is the
// normative spec); this header is the single in-tree encoding of them, so
// a framing change cannot drift between the router and the worker ops
// (`candidates`, `digests`, `load_delta`) in shard_service.cpp.
//
// Bulk payloads are packed: one base64 string field of little-endian raw
// bits instead of a JSON array of numbers. A `candidates` reply (protocol
// 3) takes one of two forms, fixed by the request's `r`: when r covers
// the shard's rows it is the distance column, rows x f64 in row order, and
// the worker does not sort; below that it is the shard's top-r run,
// count x (u32 global row index, f64 distance bits). Corpus rows are
// count x dim f32 features plus an i32 label or f64 target column. Raw
// bits make every value round-trip exactly, and JSONL stays the only
// framing.
//
// Also here: window-sync planning. A worker holds only its shard's
// window of the router's corpus, block-aligned corpus rows [row_begin,
// row_end), and a remote worker keeps it between router re-fits. The
// router asks which rows it holds and their per-block content digests
// (`digests` op) and ships, in one `load_delta`, only the blocks of the
// window the worker lacks: none when it holds the window already, the
// changed or entering blocks after a mutation or a re-plan, every block
// when it holds nothing usable. The plan is computed from CorpusStore's
// incrementally maintained CorpusDigests — the same digests that
// content-address the shards — so "what changed" costs zero rehashing.

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
inline constexpr int kProtocolVersion = 4;

/// The `protocol` reply: the version, this process's resolved distance
/// kernel and whether auto-detection chose it (`kernel_auto`). A router
/// refuses a worker on another version or (kernel, kernel_auto) pair,
/// since it orders rows by the distances its workers computed, and an
/// auto-chosen kernel reroutes some passes (ResolveDistanceKernel) where a
/// pinned one does not.
JsonValue ProtocolResponse();

/// Padded RFC 4648 base64, the text form of every packed payload.
std::string EncodeBase64(std::string_view bytes);
/// Strict decoder: the length must be a multiple of 4, '=' may only pad
/// the last quantum, and the padding bits must be zero. False on any
/// other input (*bytes is then unspecified).
bool DecodeBase64(std::string_view text, std::string* bytes);

/// Whether the `candidates` reply to rank `r` over a `rows`-row range is
/// the distance column (r covers the range) rather than a top-r run. The
/// worker, the parser and the router all pick the form here.
constexpr bool RepliesWithColumn(size_t r, size_t rows) { return r >= rows; }

/// The packed `run` of a `candidates` reply: entry i is (indices[i],
/// distances[i]) as a u32 and the f64's bits, little-endian.
std::string PackCandidateRun(std::span<const int> indices,
                             std::span<const double> distances);
/// The packed `dists` column of a `candidates` reply whose `r` covers the
/// shard: the f64 bits of each row's distance, in row order.
std::string PackDistanceColumn(std::span<const double> distances);

/// Canonical fingerprint encoding on the wire: "0x%016llx".
std::string FingerprintHex(uint64_t fingerprint);
bool ParseHexFingerprint(const std::string& hex, uint64_t* out);

/// {"ok":true}, the start of every successful reply.
JsonValue OkResponse();
/// A failed reply carries the Status parts: "error" is the message,
/// "code" the stable snake_case class, and "field" — present for
/// parameter errors — names the offending request field.
JsonValue ErrorResponse(const Status& status);
/// An invalid_argument reply: the request itself is malformed.
JsonValue ErrorResponse(const std::string& message);

/// One `candidates` request for a planned shard. Forwards the *remaining*
/// budget of the active CancelToken (if any) as `deadline_ms`, so a
/// worker-side deadline can never fire before the router's own.
JsonValue BuildCandidatesRequest(const ShardRange& range,
                                 const std::string& corpus_name, Metric metric,
                                 std::span<const float> query, size_t r);

/// Parses the `candidates` response to a request with rank `r`. When `r`
/// covers the range (r >= range.Rows()) the reply must be a `dists`
/// column of exactly range.Rows() distances, which fills `dists` at
/// [row_begin, row_end) and leaves *run empty. Below that it must be a
/// `run` of exactly r entries, each index inside `range`, no row twice,
/// strictly ascending in (distance, index); the merge trusts all three.
/// Each run entry's distance lands in `dists` at its row. Returns:
///   OK                  — the reply is usable
///   kDeadlineExceeded   — the worker propagated the forwarded deadline
///                         (health stays OK; the router's token is the
///                         authority)
///   kUnavailable        — the worker answered a structured error
///   kInternal           — unparseable / malformed / out-of-range payload,
///                         or the form that does not match `r`
Status ParseCandidatesResponse(std::string_view line, const ShardRange& range,
                               size_t r, std::span<double> dists,
                               std::vector<int>* run);
/// As above for a caller that does not know `r`: either form is accepted,
/// and a run may hold any number of entries below range.Rows().
Status ParseCandidatesResponse(std::string_view line, const ShardRange& range,
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

/// A client `load` op in packed form: `dim` plus the packed rows of the
/// whole corpus. Raw bits round-trip exactly, so the receiver's
/// independently computed content fingerprint must equal the sender's.
/// (A router syncs its workers' windows with BuildDeltaLoadRequest.)
JsonValue BuildInlineLoadRequest(const std::string& corpus_name,
                                 const Dataset& corpus);

/// `digests` op: ask a worker which rows of which corpus version it holds
/// (per block).
JsonValue BuildDigestsRequest(const std::string& corpus_name);

/// Per-block combined digest (features + labels + targets of one row
/// block) — the unit of delta sync, and what the `digests` op reports.
uint64_t BlockDigest(const CorpusDigests& digests, size_t block);

/// How to bring a worker's window up to date with the router's.
struct CorpusSyncPlan {
  enum class Mode {
    kNone,   ///< The worker holds the window — nothing to send.
    kDelta,  ///< Ship `blocks`; the worker keeps the rest of the window.
    kFull,   ///< Unknown/incompatible worker state — ship every block.
  };
  Mode mode = Mode::kFull;
  /// Corpus block indices to ship, ascending: the window's blocks the
  /// worker lacks (kDelta) or all of them (kFull); empty for kNone.
  std::vector<size_t> blocks;
};

/// Plans the sync of `window` (block-aligned rows of the corpus `local`
/// describes) from the worker's parsed `digests` response. ok:false —
/// typically not_found — plans every block, as does any
/// shape/target/block-size mismatch. Otherwise the worker keeps each
/// block of the window it holds with the router's digest; the others ship.
CorpusSyncPlan PlanCorpusSync(const Dataset& corpus,
                              const CorpusDigests& local,
                              const ShardRange& window,
                              const JsonValue& remote_response);

/// `load_delta` op for `window` of `corpus`, carrying exactly `blocks`
/// (ascending corpus block indices inside the window) as packed rows, the
/// corpus's row total and dim, the window's bounds (omitted for the whole
/// corpus) and the window's expected content fingerprint
/// (WindowDigests(...).Combined()).
JsonValue BuildDeltaLoadRequest(const std::string& corpus_name,
                                const Dataset& corpus,
                                const CorpusDigests& digests,
                                const ShardRange& window,
                                const std::vector<size_t>& blocks);

}  // namespace wire
}  // namespace knnshap

#endif  // KNNSHAP_SHARD_WIRE_H_
