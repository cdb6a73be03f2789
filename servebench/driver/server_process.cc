#include "servebench/driver/server_process.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace servebench {

lps::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) return lps::Status::Failed("pipe failed");
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return lps::Status::Failed("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<ServerProcess> process(
      new ServerProcess(pid, ::fdopen(fds[0], "r")));
  char line[512];
  while (std::fgets(line, sizeof(line), process->out_) != nullptr) {
    const char* tag = std::strstr(line, "listening on 127.0.0.1:");
    if (tag != nullptr) {
      process->port_ = std::atoi(tag + std::strlen("listening on 127.0.0.1:"));
      return process;
    }
  }
  return lps::Status::Failed(binary + " exited before listening");
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_ != nullptr) std::fclose(out_);
}

uint64_t ServerProcess::PeakRssBytes() const {
  const std::string path = "/proc/" + std::to_string(pid_) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

lps::Status ServerProcess::Stop() {
  int status = 0;
  const bool died = ::waitpid(pid_, &status, WNOHANG) == pid_;
  if (!died) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = 0;
  if (died) return lps::Status::Failed("lps_serve died during the run");
  return lps::Status::OK();
}

}  // namespace servebench
