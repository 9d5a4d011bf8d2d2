// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Minimal TCP plumbing for the remote shard transport (src/shard): parse
// "host:port" endpoints, dial with a connect timeout, listen/accept, and
// adapt a connected fd to std::istream/std::ostream so the JSONL serve
// loop (serve/pipeline.h Run) can speak over a socket exactly as it does
// over stdin/stdout. POSIX sockets only — no third-party dependency.
//
// All functions report failures through a Status / error-string out
// parameter instead of throwing: the shard router treats every network
// failure as a health event (latch + failover), never as an exception.

#ifndef KNNSHAP_UTIL_NET_H_
#define KNNSHAP_UTIL_NET_H_

#include <cstddef>
#include <streambuf>
#include <string>

namespace knnshap {

/// A "host:port" pair. `host` may be a name ("localhost") or a numeric
/// IPv4/IPv6 address; resolution happens at dial/listen time.
struct Endpoint {
  std::string host;
  int port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port" (or bare "port"/":port", host defaulting to
/// `default_host` — loopback unless the caller names another). False with
/// *error set on malformed input; port 0 is allowed for listen
/// (ephemeral) but rejected when `allow_port_zero` is false.
bool ParseEndpoint(const std::string& spec, Endpoint* out, std::string* error,
                   const std::string& default_host = "127.0.0.1",
                   bool allow_port_zero = false);

/// Connects to `endpoint` with a bounded connect timeout (non-blocking
/// connect + poll), then switches the socket back to blocking with
/// SO_RCVTIMEO/SO_SNDTIMEO set to `io_timeout_ms` (0 = no I/O timeout)
/// and TCP_NODELAY on (the protocol is latency-bound one-line exchanges).
/// Returns the connected fd, or -1 with *error set.
int DialTcp(const Endpoint& endpoint, int connect_timeout_ms, int io_timeout_ms,
            std::string* error);

/// Sets SO_RCVTIMEO/SO_SNDTIMEO on a connected socket (0 = no timeout).
void SetSocketIoTimeout(int fd, int io_timeout_ms);

/// Binds + listens on `endpoint` (SO_REUSEADDR so a restarted worker can
/// rebind its port immediately). Port 0 binds an ephemeral port — read it
/// back with BoundPort. Returns the listening fd, or -1 with *error set.
int ListenTcp(const Endpoint& endpoint, int backlog, std::string* error);

/// The locally bound port of a listening socket (getsockname), or -1.
int BoundPort(int listen_fd);

/// Accepts one connection. Returns the connected fd, or -1 with errno
/// preserved (EINTR is the graceful-shutdown path — the caller's signal
/// handler interrupted the blocking accept).
int AcceptTcp(int listen_fd);

/// Read-side streambuf over an fd (blocking reads; a socket's SO_RCVTIMEO
/// surfaces as EOF, which the serve loop treats as a disconnect). Reads
/// interrupted by a signal are retried. With a `wake_fd`, each refill
/// first polls both fds and the stream ends once `wake_fd` is readable: a
/// signal handler that writes a byte to that pipe ends a blocked read
/// whichever thread the signal lands on, and whether or not the reader
/// had already entered read() when it arrived.
class FdInBuf : public std::streambuf {
 public:
  explicit FdInBuf(int fd, int wake_fd = -1) : fd_(fd), wake_fd_(wake_fd) {
    setg(buf_, buf_, buf_);
  }

 protected:
  int_type underflow() override;

 private:
  static constexpr size_t kSize = 1 << 16;
  int fd_;
  int wake_fd_;
  char buf_[kSize];
};

/// Write-side streambuf over an fd. sync() flushes; short writes retry.
class FdOutBuf : public std::streambuf {
 public:
  explicit FdOutBuf(int fd) : fd_(fd) { setp(buf_, buf_ + kSize); }

 protected:
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool FlushBuffer();

  static constexpr size_t kSize = 1 << 16;
  int fd_;
  char buf_[kSize];
};

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_NET_H_
