// Local worker process management: the serving CLI's --workers N
// mode self-spawns N copies of the running binary as --connect
// workers, and the fault drills SIGKILL one mid-lease.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace cksum::dist {

/// Absolute path of the running executable (/proc/self/exe), or ""
/// when unreadable.
std::string self_exe_path();

/// fork+execv. Returns the child pid, or -1 on failure. The child's
/// stdout is left alone (workers write only to stderr), so the
/// serving process's report stream stays clean.
pid_t spawn_process(const std::vector<std::string>& argv);

/// Non-blocking reap. Returns true when the child has exited, storing
/// its exit code (or 128+signal) in *code.
bool try_wait_process(pid_t pid, int* code);

/// Blocking reap; returns exit code, or 128+signal, or -1 on error.
int wait_process(pid_t pid);

/// SIGKILL — the fault drills' worker-loss injection.
void kill_process(pid_t pid);

}  // namespace cksum::dist
