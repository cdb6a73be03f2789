// A child lps_serve process: spawned with --port 0, its port read from
// the "listening" line, killed and waited for at the end. It is killed
// rather than shut down because a clean shutdown snapshots every tenant
// and fsyncs the store, which writes the whole run's spill to disk and
// belongs to no workload. The child is also killed when the driver dies
// first (PR_SET_PDEATHSIG), so no run leaves a daemon behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace servebench {

class ServerProcess {
 public:
  static lps::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args);

  /// Kills and reaps a child that was not stopped.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// VmHWM of the child, from /proc/<pid>/status; 0 if unreadable.
  uint64_t PeakRssBytes() const;

  /// SIGKILL and wait. Fails if the daemon had already died.
  lps::Status Stop();

 private:
  ServerProcess(pid_t pid, FILE* out) : pid_(pid), out_(out) {}

  pid_t pid_;
  FILE* out_;  // the child's stdout
  int port_ = 0;
};

}  // namespace servebench
