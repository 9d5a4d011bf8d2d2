// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// knnshap_serve — JSONL serving front end: one JSON request per stdin
// line, one JSON response per stdout line. All of the serving machinery —
// the versioned CorpusStore, the concurrent RequestPipeline, schema-driven
// request validation ({"op":"describe"} lists every method's typed
// hyperparameters at runtime), in-order response emission, engine
// invalidation and cache persistence — lives in src/serve/; this binary
// just parses flags and runs the loop.
//
// Flags:
//   --serial          process requests inline on the reader thread (the
//                     pre-pipeline behavior; value requests still shard
//                     queries across the pool)
//   --no-timing       omit "seconds" from value responses, making the
//                     transcript byte-for-byte reproducible (golden tests)
//   --threads=N       run value jobs on a private pool of N workers
//                     instead of the shared machine-sized pool
//   --in-flight=N     cap on concurrently dispatched value requests
//   --cache=N         result-cache capacity in entries (default 64)
//   --kernel=K        force the distance kernel (reference|blocked|avx2|
//                     auto); outranks the KNNSHAP_KERNEL environment
//                     variable, and an unknown value of either exits 1
//                     at startup — used with --no-timing for
//                     deterministic transcripts; spawned shard workers
//                     are pinned to the router's active kernel
//   --no-obs          disable the metrics registry entirely (no metrics
//                     clock reads; the `metrics` op errors)
//   --trace-all       record deep per-query trace spans on every value
//                     request, as if each carried {"trace":true}
//   --slow-ms=N       log one JSONL line (with the full phase breakdown)
//                     to stderr for every ok value request slower than N
//                     milliseconds, engine time + queue wait
//   --metrics-file=P  dump the metrics registry as JSON to P on exit
//   --shards=N        route exact / exact-corrected / weighted-fast /
//                     truncated value requests through N shard worker
//                     processes; responses stay byte-identical to the
//                     unsharded server, which ranks in process
//                     (src/shard/README.md)
//   --shard-workers=W the binary spawned once per shard: "self" (the
//                     default) re-execs this binary via /proc/self/exe;
//                     anything else is the path of a serve binary.
//                     Children speak the JSONL protocol over a socketpair
//                     on their stdin/stdout, get the same corpus sync as
//                     remote workers, exit when the router closes the
//                     connection, and inherit the environment
//                     (KNNSHAP_FAULTS included)
//
// Remote shards over TCP (docs/DEPLOYMENT.md; docs/PROTOCOL.md is the
// wire spec):
//   --shard-listen=[HOST:]PORT   run as a remote shard worker: serve the
//                     JSONL protocol to every TCP connection (serial,
//                     thread-per-connection over one shared store, so the
//                     synced shard windows persist across router
//                     reconnects for delta sync). HOST defaults to
//                     127.0.0.1 (loopback); name an interface or 0.0.0.0
//                     to accept other hosts. Port
//                     0 binds an ephemeral port; the bound endpoint is
//                     announced on stderr. Workers must run the
//                     router's kernel (pinned or auto-selected alike): a
//                     router refuses a worker whose kernel name differs.
//   --shard-remote=SPEC          route shards to remote workers: replica
//                     groups separated by ';', replicas within a group by
//                     ',' — e.g. "h1:7001,h2:7001;h1:7002,h2:7002" is two
//                     shards with a failover replica each. Group count
//                     must equal --shards (and sets it when --shards is
//                     absent). Conflicts with --shard-workers.
//
// Socket transport knobs, for spawned and remote workers alike:
//   --shard-connect-timeout-ms=N per dial attempt (default 2000; remote)
//   --shard-io-timeout-ms=N      per request/response read/write on a
//                                worker socket (default 30000; 0 = none)
//   --shard-connect-attempts=N   bounded dial retries with doubling
//                                backoff before a replica is marked dead
//                                (default 3; remote)
//
// Robustness flags (see src/serve/README.md, "Failure semantics"):
//   --max-queue=N            shed value requests arriving while N are
//                            already in flight ({"code":"unavailable"} +
//                            retry_after_ms) instead of blocking the
//                            reader; -1 (default) keeps blocking
//                            backpressure
//   --default-deadline-ms=N  server-wide deadline for value requests that
//                            carry no "deadline_ms" of their own
//   --snapshot=P             crash-safe result-cache snapshot path
//                            (atomic tmp+fsync+rename), flushed on exit
//   --snapshot-every=N       also snapshot after every N value requests
//   --max-line-bytes=N       reject request lines longer than N bytes
//
// Any other flag is rejected at startup (exit 1), naming it. So is an
// integer flag whose value is not a base-10 integer in int's range, or is
// negative (--max-queue takes -1, --shards starts at 1), and a --slow-ms
// that is not a finite, non-negative number.
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop reading, drain
// in-flight work, flush the snapshot and the metrics file, exit 0.
//
// See README.md for the protocol and src/serve/README.md for the
// ordering/concurrency contract and the observability surface.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "knn/distance_kernel.h"
#include "serve/pipeline.h"
#include "shard/socket_worker.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/net.h"
#include "util/thread_pool.h"

using namespace knnshap;

namespace {

std::atomic<bool> g_shutdown{false};
// Self-pipe: the handler writes a byte, and the stdin reader (an FdInBuf
// polling the read end) sees EOF. EINTR alone is not enough: the kernel
// may run the handler on a pool thread, or before the reader enters read().
int g_wake_pipe[2] = {-1, -1};

extern "C" void HandleShutdownSignal(int) {
  g_shutdown.store(true);
  if (g_wake_pipe[1] >= 0) {
    const int saved_errno = errno;
    [[maybe_unused]] const ssize_t written = write(g_wake_pipe[1], "x", 1);
    errno = saved_errno;
  }
}

// Installed without SA_RESTART, so a signal that lands on the main thread
// interrupts a blocking accept() in --shard-listen mode; the stdin reader
// is woken through the self-pipe whichever thread takes the signal. Either
// way the serve loop falls out into its drain + snapshot-flush exit path
// instead of waiting for the next line.
void InstallShutdownHandlers() {
#if defined(__unix__) || defined(__APPLE__)
  // On failure pipe() leaves both ends at -1 and stdin gets no wake-up.
  if (pipe(g_wake_pipe) == 0) {
    for (int fd : g_wake_pipe) fcntl(fd, F_SETFD, FD_CLOEXEC);
    // A burst of signals must never block the handler on a full pipe.
    fcntl(g_wake_pipe[1], F_SETFL, O_NONBLOCK);
  }
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
#else
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
#endif
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine args(argc, argv);
  // Strict flags, like knnshap_value: a typo such as --shard-remtoe fails
  // at startup instead of silently serving unsharded.
  static const char* kFlags[] = {
      "serial", "no-timing", "threads", "in-flight", "cache", "kernel",
      "no-obs", "trace-all", "slow-ms", "metrics-file", "max-queue",
      "default-deadline-ms", "snapshot", "snapshot-every", "max-line-bytes",
      "shards", "shard-workers", "shard-listen", "shard-remote",
      "shard-connect-timeout-ms", "shard-io-timeout-ms",
      "shard-connect-attempts"};
  for (const std::string& name : args.Names()) {
    if (std::none_of(std::begin(kFlags), std::end(kFlags),
                     [&](const char* flag) { return name == flag; })) {
      std::fprintf(stderr, "unknown flag '--%s'\n", name.c_str());
      return 1;
    }
  }

  // The library reads an unknown KNNSHAP_KERNEL as auto; the server
  // refuses it, so a mistyped kernel never serves silently.
  KernelKind kernel_kind = KernelKind::kAuto;
  const char* env_kernel = std::getenv("KNNSHAP_KERNEL");
  if (env_kernel != nullptr && *env_kernel != '\0' &&
      !KernelFromName(env_kernel, &kernel_kind)) {
    std::fprintf(stderr, "unknown KNNSHAP_KERNEL '%s'\n", env_kernel);
    return 1;
  }
  const std::string kernel = args.GetString("kernel", "");
  if (!kernel.empty()) {
    if (!KernelFromName(kernel, &kernel_kind)) {
      std::fprintf(stderr, "unknown --kernel '%s'\n", kernel.c_str());
      return 1;
    }
    SetKernelOverride(kernel_kind);
  }

  // Number flags, read before any pool or worker starts. A count, size
  // or timeout is never negative (it would wrap to a huge size_t), a
  // non-integer such as "2.5" or "1e300" is an error, not truncated, and
  // no value is read from a prefix ("5abc").
  bool flags_ok = true;
  std::string flag_error;
  const auto int_flag = [&](const char* name, int fallback, int min_value) {
    int value = fallback;
    flags_ok = flags_ok &&
               args.ParseInt(name, fallback, min_value, &value, &flag_error);
    return value;
  };
  const int threads = int_flag("threads", 0, 0);
  const int in_flight = int_flag("in-flight", 0, 0);
  const int cache = int_flag("cache", 64, 0);
  const int max_queue = int_flag("max-queue", -1, -1);
  const int default_deadline_ms = int_flag("default-deadline-ms", 0, 0);
  const int snapshot_every = int_flag("snapshot-every", 0, 0);
  const int max_line_bytes = int_flag("max-line-bytes", 0, 0);
  const int shards = int_flag("shards", 1, 1);
  const int connect_timeout_ms = int_flag("shard-connect-timeout-ms", 2000, 0);
  const int io_timeout_ms = int_flag("shard-io-timeout-ms", 30000, 0);
  const int connect_attempts = int_flag("shard-connect-attempts", 3, 0);
  double slow_ms = 0.0;
  flags_ok = flags_ok &&
             args.ParseDouble("slow-ms", 0.0, 0.0, &slow_ms, &flag_error);
  if (!flags_ok) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 1;
  }

  PipelineOptions options;
  options.pipelined = !args.Has("serial");
  options.emit_timing = !args.Has("no-timing");
  options.engine.result_cache_capacity = static_cast<size_t>(cache);
  if (in_flight > 0) options.max_in_flight = static_cast<size_t>(in_flight);
  options.observability = !args.Has("no-obs");
  options.trace_all = args.Has("trace-all");
  options.slow_ms = slow_ms;
  const std::string metrics_file = args.GetString("metrics-file", "");
  if (!options.observability && (!metrics_file.empty() || options.slow_ms > 0)) {
    std::fprintf(stderr, "--no-obs conflicts with --metrics-file/--slow-ms\n");
    return 1;
  }
  options.max_queue = max_queue;
  options.default_deadline_ms = default_deadline_ms;
  options.snapshot_path = args.GetString("snapshot", "");
  options.snapshot_every = static_cast<size_t>(snapshot_every);
  if (options.snapshot_every != 0 && options.snapshot_path.empty()) {
    std::fprintf(stderr, "--snapshot-every needs --snapshot=PATH\n");
    return 1;
  }
  options.max_line_bytes = static_cast<size_t>(max_line_bytes);
  options.shards = shards;
  const std::string shard_workers = args.GetString("shard-workers", "");
  if (shard_workers == "thread") {
    std::fprintf(stderr,
                 "--shard-workers=thread: in-process shards were removed; "
                 "unsharded serving (no --shards) is the in-process path\n");
    return 1;
  }
  if (!shard_workers.empty() && options.shards < 2) {
    std::fprintf(stderr, "--shard-workers needs --shards=N (N >= 2)\n");
    return 1;
  }
  const std::string shard_remote = args.GetString("shard-remote", "");
  if (!shard_remote.empty()) {
    if (!shard_workers.empty()) {
      std::fprintf(stderr, "--shard-remote conflicts with --shard-workers\n");
      return 1;
    }
    std::vector<std::vector<std::string>> groups;
    std::vector<std::string> group;
    std::string token;
    auto flush_token = [&] {
      if (!token.empty()) group.push_back(token);
      token.clear();
    };
    auto flush_group = [&]() -> bool {
      flush_token();
      if (group.empty()) return false;
      groups.push_back(group);
      group.clear();
      return true;
    };
    bool ok = true;
    for (char c : shard_remote) {
      if (c == ',') {
        flush_token();
        if (group.empty()) ok = false;  // ",h:p" / "h:p,," — empty replica
      } else if (c == ';') {
        if (!flush_group()) ok = false;
      } else {
        token.push_back(c);
      }
    }
    if (!flush_group()) ok = false;
    if (!ok || groups.empty()) {
      std::fprintf(stderr,
                   "--shard-remote: expected ';'-separated replica groups of "
                   "','-separated host:port endpoints, got '%s'\n",
                   shard_remote.c_str());
      return 1;
    }
    // Endpoints are validated here so a typo fails at startup, not at the
    // first value request.
    for (const auto& replicas : groups) {
      for (const std::string& spec : replicas) {
        Endpoint endpoint;
        std::string error;
        if (!ParseEndpoint(spec, &endpoint, &error)) {
          std::fprintf(stderr, "--shard-remote: bad endpoint '%s': %s\n",
                       spec.c_str(), error.c_str());
          return 1;
        }
      }
    }
    if (!args.Has("shards")) {
      options.shards = static_cast<int>(groups.size());
    } else if (options.shards != static_cast<int>(groups.size())) {
      std::fprintf(stderr,
                   "--shard-remote has %zu replica groups but --shards=%d\n",
                   groups.size(), options.shards);
      return 1;
    }
    if (options.shards < 2) {
      std::fprintf(stderr, "--shard-remote needs >= 2 replica groups\n");
      return 1;
    }
    options.shard_remote = std::move(groups);
  } else if (options.shards > 1) {
    options.shard_worker_command = ShardWorkerCommand(
        shard_workers.empty() || shard_workers == "self" ? "/proc/self/exe"
                                                         : shard_workers);
  }
  options.shard_transport.connect_timeout_ms = connect_timeout_ms;
  options.shard_transport.io_timeout_ms = io_timeout_ms;
  options.shard_transport.connect_attempts = connect_attempts;
  std::unique_ptr<ThreadPool> private_pool;
  if (threads > 0) {
    private_pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
    options.pool = private_pool.get();
  }
  InstallShutdownHandlers();
  options.shutdown = &g_shutdown;

  const std::string shard_listen = args.GetString("shard-listen", "");
  Endpoint listen_endpoint;
  int listen_fd = -1;
  if (!shard_listen.empty()) {
    if (options.shards != 1 || !shard_workers.empty()) {
      std::fprintf(stderr,
                   "--shard-listen is a worker mode; it conflicts with "
                   "--shards/--shard-workers/--shard-remote\n");
      return 1;
    }
    std::string error;
    if (!ParseEndpoint(shard_listen, &listen_endpoint, &error, "127.0.0.1",
                       /*allow_port_zero=*/true)) {
      std::fprintf(stderr, "--shard-listen: %s\n", error.c_str());
      return 1;
    }
    listen_fd = ListenTcp(listen_endpoint, /*backlog=*/64, &error);
    if (listen_fd < 0) {
      std::fprintf(stderr, "--shard-listen: %s\n", error.c_str());
      return 1;
    }
    options.pipelined = false;
  }

  RequestPipeline pipeline(options);
  if (listen_fd >= 0) {
    // Connections are served serially, one thread per connection, against
    // ONE shared pipeline: the corpus a router loaded survives its
    // reconnects, which is what makes `digests` + `load_delta` re-syncs
    // cheap. Concurrent connections are safe — the store and engine are
    // thread-safe — and each connection's own request stream stays ordered.
    // Announced on stderr (stdout belongs to nothing in this mode); tests
    // bind port 0 and parse this line for the ephemeral port.
    std::fprintf(stderr, "knnshap_serve: shard worker listening on %s:%d\n",
                 listen_endpoint.host.c_str(), BoundPort(listen_fd));
    std::fflush(stderr);
    std::mutex conn_mutex;
    std::vector<int> open_fds;
    std::vector<std::thread> handlers;
    // Handlers whose connection ended; the accept loop joins them, so a
    // worker that outlives many router connections keeps no dead stacks.
    std::vector<std::thread::id> finished;
    const auto join_finished = [&] {
      std::vector<std::thread::id> done;
      {
        std::lock_guard<std::mutex> lock(conn_mutex);
        done.swap(finished);
      }
      for (const std::thread::id id : done) {
        const auto it = std::find_if(
            handlers.begin(), handlers.end(),
            [id](const std::thread& t) { return t.get_id() == id; });
        it->join();
        handlers.erase(it);
      }
    };
    while (!g_shutdown.load(std::memory_order_relaxed)) {
      const int fd = AcceptTcp(listen_fd);
      join_finished();
      if (fd < 0) {
        if (errno == EINTR && !g_shutdown.load(std::memory_order_relaxed)) {
          continue;
        }
        break;
      }
      {
        std::lock_guard<std::mutex> lock(conn_mutex);
        open_fds.push_back(fd);
      }
      handlers.emplace_back([fd, &pipeline, &conn_mutex, &open_fds, &finished] {
        FdInBuf in_buf(fd);
        FdOutBuf out_buf(fd);
        std::istream in(&in_buf);
        std::ostream out(&out_buf);
        pipeline.Run(in, out);
        out.flush();
        std::lock_guard<std::mutex> lock(conn_mutex);
        const auto it = std::find(open_fds.begin(), open_fds.end(), fd);
        if (it != open_fds.end()) open_fds.erase(it);
        close(fd);
        finished.push_back(std::this_thread::get_id());
      });
    }
    close(listen_fd);
    {
      // Unblock handler threads still waiting on a read so join() cannot
      // hang past a SIGTERM: shutdown() forces their next read to EOF.
      std::lock_guard<std::mutex> lock(conn_mutex);
      for (int fd : open_fds) shutdown(fd, SHUT_RDWR);
    }
    for (auto& handler : handlers) handler.join();
  } else {
    // Requests are read from fd 0 through a 64 KB buffer: std::cin, synced
    // with stdio, makes one locked getc call per byte once threads exist.
    FdInBuf stdin_buf(STDIN_FILENO, g_wake_pipe[0]);
    std::istream in(&stdin_buf);
    pipeline.Run(in, std::cout);
  }
  if (!metrics_file.empty() && pipeline.Metrics() != nullptr) {
    std::ofstream out(metrics_file);
    if (!out) {
      std::fprintf(stderr, "cannot open --metrics-file '%s'\n",
                   metrics_file.c_str());
      return 1;
    }
    out << pipeline.Metrics()->ToJson().Dump() << '\n';
  }
  return 0;
}
