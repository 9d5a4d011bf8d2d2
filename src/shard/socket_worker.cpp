// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/socket_worker.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "knn/distance_kernel.h"
#include "obs/trace.h"
#include "shard/wire.h"
#include "util/fault.h"
#include "util/json.h"

namespace knnshap {

namespace {

/// Sleep before the first dial retry; doubles on each further retry.
constexpr int kDialBackoffInitialMs = 50;

inline void Bump(Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Add(n);
}

void IgnoreSigpipe() {
  // A dead peer makes the next write raise SIGPIPE, which would kill the
  // *router* process; with it ignored the write fails with EPIPE and the
  // worker latches Unavailable instead. Installed once, process-wide.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

}  // namespace

ShardTransportCounters ShardTransportCounters::From(MetricsRegistry* metrics) {
  ShardTransportCounters counters;
  if (metrics == nullptr) return counters;
  counters.connects = metrics->GetCounter("knnshap_shard_connects_total");
  counters.connect_failures =
      metrics->GetCounter("knnshap_shard_connect_failures_total");
  counters.failovers = metrics->GetCounter("knnshap_shard_failovers_total");
  counters.full_loads = metrics->GetCounter("knnshap_shard_full_loads_total");
  counters.delta_loads = metrics->GetCounter("knnshap_shard_delta_loads_total");
  counters.delta_blocks =
      metrics->GetCounter("knnshap_shard_delta_blocks_total");
  counters.bytes_sent = metrics->GetCounter("knnshap_shard_bytes_sent_total");
  counters.bytes_received =
      metrics->GetCounter("knnshap_shard_bytes_received_total");
  return counters;
}

std::vector<std::string> ShardWorkerCommand(std::string binary) {
  return {std::move(binary), "--serial", "--no-timing", "--no-obs",
          "--kernel=" + std::string(KernelName(ActiveKernel()))};
}

ShardConnection::ShardConnection(ShardRange range, std::string corpus_name,
                                 Metric metric, SocketWorkerOptions options,
                                 ShardTransportCounters counters)
    : range_(range),
      corpus_name_(std::move(corpus_name)),
      metric_(metric),
      options_(options),
      counters_(counters) {}

ShardConnection::~ShardConnection() {
  // Closing the connection is a spawned child's shutdown signal: its serve
  // loop sees EOF, drains and exits; the wait reaps it so no zombie
  // outlives a router re-fit.
  CloseStreams();
  std::free(read_buffer_);
  if (child_pid_ > 0) {
    int status = 0;
    while (waitpid(child_pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

void ShardConnection::CloseStreams() {
  // write_stream_ owns a dup of the socket fd; read_stream_ owns the fd
  // itself. Closing both fully shuts the connection down.
  if (write_stream_ != nullptr) std::fclose(write_stream_);
  if (read_stream_ != nullptr) std::fclose(read_stream_);
  write_stream_ = nullptr;
  read_stream_ = nullptr;
}

Status ShardConnection::Fail(Status status) {
  if (health_.ok()) health_ = status;
  CloseStreams();
  return status;
}

Status ShardConnection::Adopt(int fd) {
  // Close-on-exec on both fds: a LATER sibling's fork+exec must not
  // inherit this connection, or a spawned child would never see EOF when
  // the router closes it (shutdown would wait forever on the reap).
  read_stream_ = fdopen(fd, "r");
  const int write_fd =
      read_stream_ != nullptr ? fcntl(fd, F_DUPFD_CLOEXEC, 0) : -1;
  write_stream_ = write_fd >= 0 ? fdopen(write_fd, "w") : nullptr;
  if (read_stream_ == nullptr || write_stream_ == nullptr) {
    if (read_stream_ == nullptr) close(fd);
    if (write_stream_ == nullptr && write_fd >= 0) close(write_fd);
    return Fail(
        Status::Unavailable("shard worker " + peer_ + ": fdopen() failed"));
  }
  return Status::Ok();
}

Status ShardConnection::Open(const ShardPeer& peer) {
  if (const auto* endpoint = std::get_if<Endpoint>(&peer)) {
    return Dial(*endpoint);
  }
  return Spawn(std::get<std::vector<std::string>>(peer));
}

Status ShardConnection::Dial(const Endpoint& endpoint) {
  IgnoreSigpipe();
  ScopedPhase span(ActiveTrace(), Phase::kShardConnect);
  peer_ = endpoint.ToString();
  // Bounded dial attempts with doubling backoff: a worker that is
  // restarting (or not yet up in a deploy race) gets a short grace window;
  // one that is truly gone fails fast enough for its ShardWorker to move
  // on to the next replica.
  int fd = -1;
  std::string error;
  int backoff_ms = kDialBackoffInitialMs;
  const int attempts = options_.connect_attempts > 0 ? options_.connect_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    if (FaultInjectionEnabled() && Fault("shard_connect")) {
      error = "injected shard_connect fault";
      Bump(counters_.connect_failures);
      continue;
    }
    fd = DialTcp(endpoint, options_.connect_timeout_ms, options_.io_timeout_ms,
                 &error);
    if (fd >= 0) break;
    Bump(counters_.connect_failures);
  }
  if (fd < 0) {
    return Fail(
        Status::Unavailable("shard worker " + peer_ + " unreachable: " + error));
  }
  return Adopt(fd);
}

Status ShardConnection::Spawn(const std::vector<std::string>& command) {
  if (command.empty()) {
    return Fail(Status::InvalidArgument("shard worker: empty worker command"));
  }
  IgnoreSigpipe();
  ScopedPhase span(ActiveTrace(), Phase::kShardConnect);
  int fds[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return Fail(Status::Unavailable("shard worker: socketpair() failed"));
  }
  // argv is built before fork: the child may only make async-signal-safe
  // calls until exec.
  std::vector<char*> argv;
  argv.reserve(command.size() + 1);
  for (const std::string& arg : command) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Fail(Status::Unavailable("shard worker: fork() failed"));
  }
  if (pid == 0) {
    // dup2 clears close-on-exec on the two copies the child uses; both
    // socketpair fds (and every other shard connection) close at exec.
    dup2(fds[1], STDIN_FILENO);
    dup2(fds[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  child_pid_ = pid;
  peer_ = "pid " + std::to_string(pid);
  // The I/O timeout goes on the router's end only: the child idles on its
  // stdin between requests, and a read timeout there would end its loop.
  SetSocketIoTimeout(fds[0], options_.io_timeout_ms);
  return Adopt(fds[0]);
}

Status ShardConnection::Sync(const Dataset& corpus,
                             const CorpusDigests& digests) {
  ScopedPhase span(ActiveTrace(), Phase::kShardConnect);
  // Version first: a worker on another protocol would misread every
  // packed payload that follows.
  std::string_view line;
  if (!Exchange(R"({"op":"protocol"})", &line)) return health_;
  JsonParseResult parsed = ParseJson(line);
  const JsonValue& version = parsed.value.Get("protocol");
  if (!version.IsNumber() || version.AsNumber() != wire::kProtocolVersion) {
    return Fail(Status::FailedPrecondition(
        "shard worker " + peer_ + " speaks protocol " +
        (version.IsNumber() ? version.Dump() : "unknown") +
        "; this router speaks protocol " +
        std::to_string(wire::kProtocolVersion)));
  }
  // The router orders rows by the distances its workers computed, so both
  // sides must run the same kernel: kernels differ in the last bits.
  const std::string kernel = parsed.value.Get("kernel").AsString();
  if (kernel != KernelName(ActiveKernel())) {
    return Fail(Status::FailedPrecondition(
        "shard worker " + peer_ + " runs the " +
        (kernel.empty() ? "unknown" : kernel) +
        " distance kernel; this router runs the " +
        KernelName(ActiveKernel()) + " kernel"));
  }
  // Window sync: ask what the worker holds, ship what its window lacks. A
  // worker that kept its window across a router re-fit (the common warm
  // case) costs one digests round trip and zero rows; a mutation or a
  // re-plan costs only the window's changed or entering blocks;
  // everything else — a fresh spawned child included — ships every block
  // of the window, never the rest of the corpus.
  if (!Exchange(wire::BuildDigestsRequest(corpus_name_).Dump(), &line)) {
    return health_;
  }
  parsed = ParseJson(line);
  if (!parsed.ok()) {
    return Fail(Status::Unavailable("shard worker " + peer_ +
                                    " sent an unparseable digests response"));
  }
  wire::CorpusSyncPlan plan =
      wire::PlanCorpusSync(corpus, digests, range_, parsed.value);
  // One load_delta exchange; false when the transport failed (health_ says
  // so) or the worker rejected it.
  const auto load = [&](const std::vector<size_t>& blocks) {
    if (!Exchange(wire::BuildDeltaLoadRequest(corpus_name_, corpus, digests,
                                              range_, blocks)
                      .Dump(),
                  &line)) {
      return false;
    }
    parsed = ParseJson(line);
    return parsed.ok() && parsed.value.Get("ok").AsBool(false);
  };
  if (plan.mode == wire::CorpusSyncPlan::Mode::kDelta) {
    if (load(plan.blocks)) {
      Bump(counters_.delta_loads);
      Bump(counters_.delta_blocks, plan.blocks.size());
    } else if (!health_.ok()) {
      return health_;
    } else {
      // A worker that rejects the delta (held rows it cannot splice, an
      // injected delta_apply fault) is still usable: plan as for a worker
      // that holds nothing, and ship every block of the window.
      plan = wire::PlanCorpusSync(corpus, digests, range_, JsonValue());
    }
  }
  if (plan.mode == wire::CorpusSyncPlan::Mode::kFull) {
    if (!load(plan.blocks)) {
      if (!health_.ok()) return health_;
      return Fail(Status::Unavailable("shard worker " + peer_ +
                                      " rejected the window load: " +
                                      std::string(line)));
    }
    Bump(counters_.full_loads);
  }

  // Every path ends fingerprint-verified: kNone verified inside
  // PlanCorpusSync (the digests response fingerprint equals the window's),
  // delta and full loads via the echo below.
  if (plan.mode != wire::CorpusSyncPlan::Mode::kNone) {
    const uint64_t expected =
        WindowDigests(digests, range_.row_begin, range_.row_end).Combined();
    uint64_t echoed = 0;
    if (!wire::ParseHexFingerprint(parsed.value.Get("fingerprint").AsString(),
                                   &echoed) ||
        echoed != expected) {
      return Fail(Status::Error(
          StatusCode::kDataLoss,
          "shard worker " + peer_ +
              " window fingerprint mismatch after sync (expected " +
              wire::FingerprintHex(expected) + ", got " +
              parsed.value.Get("fingerprint").AsString() + ")"));
    }
  }
  Bump(counters_.connects);
  return Status::Ok();
}

bool ShardConnection::WriteLine(const std::string& line) {
  if (write_stream_ == nullptr || read_stream_ == nullptr) {
    Fail(Status::Unavailable("shard worker " + peer_ + " is not connected"));
    return false;
  }
  if (std::fwrite(line.data(), 1, line.size(), write_stream_) != line.size() ||
      std::fputc('\n', write_stream_) == EOF ||
      std::fflush(write_stream_) != 0) {
    Fail(Status::Unavailable("shard worker " + peer_ +
                             " closed the connection on write"));
    return false;
  }
  Bump(counters_.bytes_sent, line.size() + 1);
  return true;
}

bool ShardConnection::ReadLine(std::string_view* response) {
  if (read_stream_ == nullptr) {
    Fail(Status::Unavailable("shard worker " + peer_ + " is not connected"));
    return false;
  }
  if (FaultInjectionEnabled() && Fault("shard_read")) {
    Fail(Status::Unavailable("injected shard_read fault (" + peer_ + ")"));
    return false;
  }
  const ssize_t len = getline(&read_buffer_, &read_capacity_, read_stream_);
  if (len < 0) {
    // EOF or SO_RCVTIMEO expiry — either way this connection is done (a
    // timed-out response would desynchronize the one-line framing if we
    // kept reading).
    Fail(Status::Unavailable("shard worker " + peer_ +
                             " died or timed out on read"));
    return false;
  }
  Bump(counters_.bytes_received, static_cast<uint64_t>(len));
  *response = std::string_view(read_buffer_, static_cast<size_t>(len));
  while (!response->empty() &&
         (response->back() == '\n' || response->back() == '\r')) {
    response->remove_suffix(1);
  }
  return true;
}

bool ShardConnection::SendCandidates(std::span<const float> query,
                                     size_t r) {
  return health_.ok() &&
         WriteLine(wire::BuildCandidatesRequest(range_, corpus_name_, metric_,
                                                query, r)
                       .Dump());
}

bool ShardConnection::ReadCandidates(size_t r, std::span<double> dists,
                                     std::vector<int>* run) {
  run->clear();
  std::string_view line;
  if (!ReadLine(&line)) return false;
  Status status = wire::ParseCandidatesResponse(line, range_, r, dists, run);
  if (status.ok()) return true;
  // A propagated deadline leaves health OK (no failover — the router's
  // token is the authority); any other failure latches this connection
  // dead.
  if (status.code() != StatusCode::kDeadlineExceeded) Fail(std::move(status));
  return false;
}

}  // namespace knnshap
