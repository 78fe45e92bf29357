#!/usr/bin/env python3
"""Run a command and fail if it left any descendant unreaped.

    python3 scripts/check_reaped.py CMD [ARG...]

This process becomes a child subreaper (prctl PR_SET_CHILD_SUBREAPER), so
a descendant whose parent exits without waiting for it is reparented here
rather than to init. Once CMD has exited, every child left was orphaned by
CMD: the script waits for each to exit, names how many there were, and
exits 125. Otherwise it exits with CMD's own status. CMD's stdin, stdout
and stderr are this process's. Linux only.
"""

import ctypes
import os
import subprocess
import sys

PR_SET_CHILD_SUBREAPER = 36


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.exit(f"check_reaped: prctl failed: {os.strerror(ctypes.get_errno())}")
    rc = subprocess.run(sys.argv[1:]).returncode
    orphans = 0
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
        orphans += 1
    if orphans:
        print(f"check_reaped: {sys.argv[1]} left {orphans} descendant(s) unreaped",
              file=sys.stderr)
        return 125
    return rc


if __name__ == "__main__":
    sys.exit(main())
