// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace knnshap {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// getaddrinfo resolution shared by dial and listen.
struct ResolvedAddr {
  sockaddr_storage addr = {};
  socklen_t len = 0;
  int family = AF_INET;
};

bool Resolve(const Endpoint& endpoint, bool passive, ResolvedAddr* out,
             std::string* error) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(endpoint.port);
  const int rc = getaddrinfo(endpoint.host.empty() ? nullptr : endpoint.host.c_str(),
                             port.c_str(), &hints, &result);
  if (rc != 0 || result == nullptr) {
    if (error != nullptr) {
      *error = "cannot resolve '" + endpoint.ToString() +
               "': " + gai_strerror(rc);
    }
    return false;
  }
  std::memcpy(&out->addr, result->ai_addr, result->ai_addrlen);
  out->len = static_cast<socklen_t>(result->ai_addrlen);
  out->family = result->ai_family;
  freeaddrinfo(result);
  return true;
}

}  // namespace

void SetSocketIoTimeout(int fd, int io_timeout_ms) {
  if (io_timeout_ms <= 0) return;
  timeval tv = {};
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = (io_timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool ParseEndpoint(const std::string& spec, Endpoint* out, std::string* error,
                   const std::string& default_host, bool allow_port_zero) {
  std::string host = default_host;
  std::string port_text = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    if (error != nullptr) *error = "endpoint '" + spec + "': malformed port";
    return false;
  }
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port > 65535 || (port == 0 && !allow_port_zero)) {
    if (error != nullptr) {
      *error = "endpoint '" + spec + "': port out of range";
    }
    return false;
  }
  out->host = host.empty() ? default_host : host;
  out->port = static_cast<int>(port);
  return true;
}

int DialTcp(const Endpoint& endpoint, int connect_timeout_ms, int io_timeout_ms,
            std::string* error) {
  ResolvedAddr addr;
  if (!Resolve(endpoint, /*passive=*/false, &addr, error)) return -1;
  const int fd = socket(addr.family, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("socket()");
    return -1;
  }
  // Non-blocking connect so the timeout is ours, not the kernel's (which
  // can be minutes against a black-holed host).
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr.addr), addr.len);
  if (rc != 0 && errno != EINPROGRESS) {
    if (error != nullptr) *error = Errno("connect to " + endpoint.ToString());
    close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    do {
      rc = poll(&pfd, 1, connect_timeout_ms <= 0 ? -1 : connect_timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      if (error != nullptr) {
        *error = "connect to " + endpoint.ToString() +
                 (rc == 0 ? ": timed out" : Errno(""));
      }
      close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      if (error != nullptr) {
        *error = "connect to " + endpoint.ToString() + ": " +
                 std::strerror(so_error);
      }
      close(fd);
      return -1;
    }
  }
  fcntl(fd, F_SETFL, flags);  // back to blocking for the line protocol
  SetSocketIoTimeout(fd, io_timeout_ms);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A shard connection must never outlive an exec: a forked sibling
  // holding this fd open would keep the worker's peer alive past our
  // close.
  fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

int ListenTcp(const Endpoint& endpoint, int backlog, std::string* error) {
  ResolvedAddr addr;
  if (!Resolve(endpoint, /*passive=*/true, &addr, error)) return -1;
  const int fd = socket(addr.family, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("socket()");
    return -1;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr.addr), addr.len) != 0) {
    if (error != nullptr) *error = Errno("bind " + endpoint.ToString());
    close(fd);
    return -1;
  }
  if (listen(fd, backlog) != 0) {
    if (error != nullptr) *error = Errno("listen " + endpoint.ToString());
    close(fd);
    return -1;
  }
  fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

int BoundPort(int listen_fd) {
  sockaddr_storage addr = {};
  socklen_t len = sizeof addr;
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  return -1;
}

int AcceptTcp(int listen_fd) {
  const int fd = accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) {
    fcntl(fd, F_SETFD, FD_CLOEXEC);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

FdInBuf::int_type FdInBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (wake_fd_ >= 0) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    int rc;
    do {
      rc = poll(fds, 2, -1);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0 || fds[1].revents != 0) return traits_type::eof();
  }
  ssize_t n;
  do {
    n = read(fd_, buf_, kSize);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return traits_type::eof();
  setg(buf_, buf_, buf_ + n);
  return traits_type::to_int_type(*gptr());
}

bool FdOutBuf::FlushBuffer() {
  const char* p = pbase();
  while (p < pptr()) {
    ssize_t n = write(fd_, p, static_cast<size_t>(pptr() - p));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
  }
  setp(buf_, buf_ + kSize);
  return true;
}

FdOutBuf::int_type FdOutBuf::overflow(int_type ch) {
  if (!FlushBuffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdOutBuf::sync() { return FlushBuffer() ? 0 : -1; }

}  // namespace knnshap
