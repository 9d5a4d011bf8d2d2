// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Helpers for tests that drive the real knnshap_serve binary as a child
// process (its path comes from the KNNSHAP_SERVE_BINARY compile
// definition): spawn it with stdin/stdout on pipes, read response lines
// with a timeout, and inspect the processes it spawns in turn.

#ifndef KNNSHAP_TESTS_SERVE_PROCESS_H_
#define KNNSHAP_TESTS_SERVE_PROCESS_H_

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace knnshap {
namespace testing_util {

/// A forked knnshap_serve with stdin and stdout on pipes.
struct ServeProcess {
  pid_t pid = -1;
  int to_server = -1;
  int from_server = -1;
};

inline ServeProcess SpawnServe(const std::string& binary,
                               const std::vector<std::string>& args) {
  // Close-on-exec pipes: a later spawn must not inherit this server's
  // stdin, or it would never see EOF. dup2 clears the flag on the copies
  // the child keeps.
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    return {};
  }
  // argv is built before fork: the child may only make async-signal-safe
  // calls until exec.
  std::vector<char*> argv = {const_cast<char*>(binary.c_str())};
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ServeProcess proc;
  proc.pid = fork();
  if (proc.pid == 0) {
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  proc.to_server = in_pipe[1];
  proc.from_server = out_pipe[0];
  return proc;
}

/// Reads one response line, or "" after `timeout_ms` without one.
inline std::string ReadLine(int fd, int timeout_ms) {
  std::string line;
  char c;
  pollfd pfd = {fd, POLLIN, 0};
  while (poll(&pfd, 1, timeout_ms) == 1 && read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return "";
}

/// A knnshap_serve --shard-listen worker on a loopback ephemeral port.
struct ListeningWorker {
  pid_t pid = -1;
  int port = 0;     ///< 0 when the worker never announced its port.
  int from_stderr = -1;
};

/// Spawns `binary --shard-listen=127.0.0.1:0 args...` with stdin and
/// stdout on /dev/null and reads the port from the "listening on" line it
/// writes to stderr.
inline ListeningWorker SpawnShardListener(const std::string& binary,
                                          std::vector<std::string> args) {
  int err_pipe[2];
  if (pipe2(err_pipe, O_CLOEXEC) != 0) return {};
  args.insert(args.begin(), "--shard-listen=127.0.0.1:0");
  std::vector<char*> argv = {const_cast<char*>(binary.c_str())};
  for (auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ListeningWorker worker;
  worker.pid = fork();
  if (worker.pid == 0) {
    const int null_fd = open("/dev/null", O_RDWR);
    dup2(null_fd, STDIN_FILENO);
    dup2(null_fd, STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(err_pipe[1]);
  worker.from_stderr = err_pipe[0];
  const std::string line = ReadLine(worker.from_stderr, 10000);
  const size_t colon = line.rfind(':');
  if (line.find("listening on") != std::string::npos &&
      colon != std::string::npos) {
    worker.port = std::atoi(line.c_str() + colon + 1);
  }
  return worker;
}

/// SIGTERMs the worker, reaps it and closes its stderr pipe.
inline void StopShardListener(ListeningWorker* worker) {
  if (worker->pid > 0) {
    kill(worker->pid, SIGTERM);
    int status = 0;
    waitpid(worker->pid, &status, 0);
  }
  if (worker->from_stderr >= 0) close(worker->from_stderr);
  *worker = {};
}

/// The number after `field` (e.g. "Threads:", "VmSize:") in
/// /proc/<pid>/status, or -1 when absent.
inline long ProcStatusField(pid_t pid, const std::string& field) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      return std::atol(line.c_str() + field.size());
    }
  }
  return -1;
}

/// The fields of /proc/<pid>/stat after the command name ("S 1234 ..."
/// — state, then parent pid), or "" when no such process exists.
inline std::string StatAfterComm(const std::string& pid) {
  std::ifstream stat("/proc/" + pid + "/stat");
  const std::string text((std::istreambuf_iterator<char>(stat)),
                         std::istreambuf_iterator<char>());
  const size_t comm_end = text.rfind(") ");
  return comm_end == std::string::npos ? "" : text.substr(comm_end + 2);
}

/// The state letter of a process ('Z' for a zombie), or '\0' when no such
/// process exists.
inline char ProcessState(pid_t pid) {
  const std::string fields = StatAfterComm(std::to_string(pid));
  return fields.empty() ? '\0' : fields[0];
}

/// Live or zombie children of `parent`, from a scan of /proc.
inline std::vector<pid_t> ChildPids(pid_t parent) {
  std::vector<pid_t> children;
  DIR* proc = opendir("/proc");
  if (proc == nullptr) return children;
  while (const dirent* entry = readdir(proc)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid <= 0) continue;
    std::istringstream fields(StatAfterComm(entry->d_name));
    char state = 0;
    pid_t ppid = 0;
    if (fields >> state >> ppid && ppid == parent) children.push_back(pid);
  }
  closedir(proc);
  return children;
}

}  // namespace testing_util
}  // namespace knnshap

#endif  // KNNSHAP_TESTS_SERVE_PROCESS_H_
