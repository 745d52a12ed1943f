"""Run one command and report its resource usage.

    python3 -I -S perfbench/launch.py REPORT_FD TIMEOUT -- COMMAND...

``perfbench/run.py`` starts every measured process through this launcher.
On Linux a child's max-RSS starts from its parent's memory high-water mark
(fork and exec carry it over), so a command started straight from the runner
could never read below the runner's own size.  This launcher is a small
parent: it forks, starts the command in its own session, kills that whole
session's process group at the timeout, waits for the command with
``wait4`` and writes two lines to REPORT_FD:

    <pid>
    <wall seconds> <timed out 0|1> <exit code> <user s> <sys s> <max-RSS kB>

The first line is written at once, so that whoever started the launcher can
kill the command's process group should the launcher itself be killed.  Wall
time runs from the fork to the command's exit.  Its usage covers the command
and every child it waited for (the pool workers of ``--jobs``).
"""

import os
import select
import signal
import sys
import time


def main() -> None:
    fd, timeout, cmd = int(sys.argv[1]), float(sys.argv[2]), sys.argv[4:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(fd)
            os.setsid()
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    os.write(fd, f"{pid}\n".encode())
    pidfd = os.pidfd_open(pid)
    timed_out = not select.select([pidfd], [], [], timeout)[0]
    if timed_out:
        os.killpg(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.write(fd, (
        f"{wall!r} {int(timed_out)} {os.waitstatus_to_exitcode(status)} "
        f"{usage.ru_utime!r} {usage.ru_stime!r} {usage.ru_maxrss}\n"
    ).encode())


if __name__ == "__main__":
    main()
