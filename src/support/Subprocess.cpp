//===- Subprocess.cpp - Child processes and EINTR-safe pipe I/O ------------===//

#include "support/Subprocess.h"

#include "support/Format.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

using namespace anek;
using namespace anek::subprocess;

Status subprocess::readFull(int Fd, void *Buffer, size_t Size) {
  char *Out = static_cast<char *>(Buffer);
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::read(Fd, Out + Done, Size - Done);
    if (N > 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (N == 0)
      return Status::error(ErrorCode::WorkerLost,
                           formatStr("pipe closed after %zu of %zu bytes",
                                     Done, Size));
    if (errno == EINTR)
      continue; // A signal is not a failure; resume the read.
    return Status::error(ErrorCode::Internal,
                         formatStr("read failed: %s", std::strerror(errno)));
  }
  return Status::ok();
}

Status subprocess::writeFull(int Fd, const void *Buffer, size_t Size) {
  const char *In = static_cast<const char *>(Buffer);
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::write(Fd, In + Done, Size - Done);
    if (N >= 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (errno == EINTR)
      continue;
    if (errno == EPIPE)
      return Status::error(ErrorCode::WorkerLost,
                           formatStr("pipe peer gone after %zu of %zu bytes",
                                     Done, Size));
    return Status::error(ErrorCode::Internal,
                         formatStr("write failed: %s", std::strerror(errno)));
  }
  return Status::ok();
}

Status subprocess::waitReadable(int Fd, double TimeoutSeconds) {
  using Clock = std::chrono::steady_clock;
  // The absolute expiry is fixed up front so EINTR retries re-poll with
  // only the remaining time: a stream of signals shrinks each poll but
  // never extends the total wait.
  const bool Unlimited = TimeoutSeconds < 0.0;
  const Clock::time_point Expiry =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             Unlimited ? 0.0 : TimeoutSeconds));
  for (;;) {
    int TimeoutMs = -1;
    if (!Unlimited) {
      double Remaining =
          std::chrono::duration<double>(Expiry - Clock::now()).count();
      if (Remaining <= 0.0)
        return Status::error(ErrorCode::DeadlineExceeded,
                             "timed out waiting for pipe data");
      // Round up so a sub-millisecond remainder still polls once.
      TimeoutMs = static_cast<int>(Remaining * 1000.0) + 1;
    }
    struct pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    int N = ::poll(&P, 1, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(ErrorCode::Internal,
                           formatStr("poll failed: %s",
                                     std::strerror(errno)));
    }
    if (N == 0)
      return Status::error(ErrorCode::DeadlineExceeded,
                           "timed out waiting for pipe data");
    if (P.revents & POLLIN)
      return Status::ok(); // Data (or EOF readable as 0 bytes) is ready.
    if (P.revents & (POLLHUP | POLLERR | POLLNVAL))
      return Status::error(ErrorCode::WorkerLost, "pipe peer hung up");
  }
}

void subprocess::ignoreSigpipe() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &SA, nullptr);
}

std::string subprocess::selfExePath(const std::string &Fallback) {
  char Buffer[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buffer, sizeof(Buffer) - 1);
  if (N <= 0)
    return Fallback;
  Buffer[N] = '\0';
  return std::string(Buffer);
}

std::string ExitStatus::str() const {
  if (Signalled)
    return formatStr("signal %d", Signal);
  if (Exited)
    return formatStr("exit %d", Code);
  return "unknown";
}

ChildProcess::~ChildProcess() {
  if (Pid > 0 && !Reaped) {
    kill(SIGKILL);
    wait();
  }
  closePipes();
}

ChildProcess::ChildProcess(ChildProcess &&Other) noexcept { *this = std::move(Other); }

ChildProcess &ChildProcess::operator=(ChildProcess &&Other) noexcept {
  if (this == &Other)
    return *this;
  if (Pid > 0 && !Reaped) {
    kill(SIGKILL);
    wait();
  }
  closePipes();
  Pid = Other.Pid;
  ReadFd = Other.ReadFd;
  WriteFd = Other.WriteFd;
  LastExit = Other.LastExit;
  Reaped = Other.Reaped;
  Other.reset();
  return *this;
}

void ChildProcess::reset() {
  Pid = -1;
  ReadFd = -1;
  WriteFd = -1;
  LastExit = ExitStatus();
  Reaped = false;
}

Status ChildProcess::spawn(const std::vector<std::string> &Argv) {
  if (Argv.empty())
    return Status::error(ErrorCode::InvalidArgument, "empty argv");
  if (Pid > 0)
    return Status::error(ErrorCode::InvalidArgument,
                         "child already running");

  // Close-on-exec from the moment the pipes exist: another dispatch
  // thread may fork a sibling worker before this spawn finishes, and a
  // sibling that inherits (and thereby holds open) our child's stdout
  // write end keeps the coordinator's read end from ever seeing EOF, so a
  // crashed worker would look hung until the heartbeat deadline.
  int ToChild[2] = {-1, -1};  // Coordinator writes [1], child stdin [0].
  int FromChild[2] = {-1, -1};// Child stdout [1], coordinator reads [0].
  if (::pipe2(ToChild, O_CLOEXEC) != 0)
    return Status::error(ErrorCode::Internal,
                         formatStr("pipe failed: %s", std::strerror(errno)));
  if (::pipe2(FromChild, O_CLOEXEC) != 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    return Status::error(ErrorCode::Internal,
                         formatStr("pipe failed: %s", std::strerror(errno)));
  }

  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  pid_t Child = ::fork();
  if (Child < 0) {
    for (int Fd : {ToChild[0], ToChild[1], FromChild[0], FromChild[1]})
      ::close(Fd);
    return Status::error(ErrorCode::Internal,
                         formatStr("fork failed: %s", std::strerror(errno)));
  }
  if (Child == 0) {
    // Child: only async-signal-safe calls between fork and exec (the
    // parent may be multi-threaded). stderr is deliberately inherited.
    // dup2 clears close-on-exec on its target, but dup2 onto itself is a
    // no-op, so a pipe end that already sits on 0 or 1 needs the flag
    // cleared by hand. Every other pipe end closes at exec.
    for (auto [Fd, Target] : {std::pair{ToChild[0], STDIN_FILENO},
                              std::pair{FromChild[1], STDOUT_FILENO}}) {
      if (Fd == Target)
        ::fcntl(Fd, F_SETFD, 0);
      else
        ::dup2(Fd, Target);
    }
    ::execv(Args[0], Args.data());
    ::_exit(127); // exec failed; the coordinator sees exit 127 = spawn loss.
  }

  ::close(ToChild[0]);
  ::close(FromChild[1]);
  Pid = Child;
  WriteFd = ToChild[1];
  ReadFd = FromChild[0];
  LastExit = ExitStatus();
  Reaped = false;
  return Status::ok();
}

void ChildProcess::kill(int Signal) {
  if (Pid > 0 && !Reaped)
    ::kill(Pid, Signal);
}

std::optional<ExitStatus> ChildProcess::poll() {
  if (Pid <= 0)
    return std::nullopt;
  if (Reaped)
    return LastExit;
  for (;;) {
    int Raw = 0;
    pid_t R = ::waitpid(Pid, &Raw, WNOHANG);
    if (R == 0)
      return std::nullopt; // Still running.
    if (R < 0) {
      if (errno == EINTR)
        continue;
      // ECHILD etc.: treat as ended with unknown status.
      Reaped = true;
      return LastExit;
    }
    LastExit.Exited = WIFEXITED(Raw);
    LastExit.Signalled = WIFSIGNALED(Raw);
    LastExit.Code = LastExit.Exited ? WEXITSTATUS(Raw) : 0;
    LastExit.Signal = LastExit.Signalled ? WTERMSIG(Raw) : 0;
    Reaped = true;
    return LastExit;
  }
}

ExitStatus ChildProcess::wait() {
  if (Pid <= 0 || Reaped)
    return LastExit;
  for (;;) {
    int Raw = 0;
    pid_t R = ::waitpid(Pid, &Raw, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue; // The whole point: signals must not drop the reap.
      Reaped = true;
      return LastExit;
    }
    LastExit.Exited = WIFEXITED(Raw);
    LastExit.Signalled = WIFSIGNALED(Raw);
    LastExit.Code = LastExit.Exited ? WEXITSTATUS(Raw) : 0;
    LastExit.Signal = LastExit.Signalled ? WTERMSIG(Raw) : 0;
    Reaped = true;
    return LastExit;
  }
}

void ChildProcess::closePipes() {
  if (ReadFd >= 0)
    ::close(ReadFd);
  if (WriteFd >= 0)
    ::close(WriteFd);
  ReadFd = -1;
  WriteFd = -1;
}
