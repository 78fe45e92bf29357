// bench_spawn — run one command and record what it cost (benchmark/run.py).
//
//   bench_spawn <report-path> <program> [args...]
//
// Forks and execs the command (stdin, stdout and stderr inherited), waits
// for it, and writes one line to <report-path>:
//
//   <wall ns> <user+sys ns> <peak RSS KiB>
//
// then exits with the command's exit code (128 + signal if it was killed).
// The usage comes from wait4, so it covers every descendant the command
// reaped (the --serve coordinator reaps its workers).
//
// This exists for the peak RSS: Linux starts a process's ru_maxrss at the
// RSS of the image it replaced, so a command forked straight from the
// Python runner reports at least the runner's own RSS. Forked from this
// small program it reports its own.
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace {

long long ns(const timespec& t) {
  return static_cast<long long>(t.tv_sec) * 1000000000LL + t.tv_nsec;
}

long long ns(const timeval& t) {
  return static_cast<long long>(t.tv_sec) * 1000000000LL + t.tv_usec * 1000LL;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: bench_spawn <report-path> <program> [args...]\n");
    return 2;
  }
  timespec t0{}, t1{};
  clock_gettime(CLOCK_MONOTONIC, &t0);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::fprintf(stderr, "bench_spawn: exec %s: %s\n", argv[2], std::strerror(errno));
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("bench_spawn: wait4");
      return 2;
    }
  }
  clock_gettime(CLOCK_MONOTONIC, &t1);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("bench_spawn: report");
    return 2;
  }
  std::fprintf(out, "%lld %lld %ld\n", ns(t1) - ns(t0),
               ns(ru.ru_utime) + ns(ru.ru_stime), ru.ru_maxrss);
  if (std::fclose(out) != 0) {
    std::perror("bench_spawn: report");
    return 2;
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
