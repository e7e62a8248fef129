"""Busy loop at idle priority on one core: ``idle=poll`` by other means.

A core with nothing to run halts, and on a virtualised host every
wake-up from that halt goes through the hypervisor: tens to hundreds of
microseconds, varying with the host's load, paid per message by both
processes of this benchmark.  That measures the host, not the SDK.  The
harness therefore keeps one of these loops on each core it uses.  Under
``SCHED_IDLE`` the loop runs only when the core would otherwise halt
and is preempted the moment anything else becomes runnable.

Usage: ``python3 idle_poll.py CPU``; writes one byte to stdout once it
runs at idle priority; killed by the harness, and by the kernel if the
harness dies first.
"""

import ctypes
import os
import signal
import sys


def main() -> None:
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    os.sched_setaffinity(0, [int(sys.argv[1])])
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    os.write(1, b"1")
    while True:
        pass


if __name__ == "__main__":
    main()
