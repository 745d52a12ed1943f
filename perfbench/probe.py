"""Times a fixed sliver of pure-Python work, again and again, to gauge the
machine's speed while the benchmark measures something else.

    python3 -I -S perfbench/probe.py

Every PERIOD_S it times WORK_ROUNDS rounds of big-integer multiply-adds
into a list and tuple-keyed dict updates, the kind of work the CLI spends
its time on, and sleeps the rest of the period, so it keeps a few percent
of one CPU busy.  It imports nothing of ``bruhatops``.  On SIGTERM it
writes the seconds of each sample to stdout, one a line.  It ends without
output if its parent dies.
"""

import os
import signal
import sys
import time

PERIOD_S = 0.02
WORK_ROUNDS = 1_000

stopped = False


def stop(signum, frame) -> None:
    global stopped
    stopped = True


def work(rounds: int) -> int:
    table = {}
    acc = [0] * 256
    x = 1
    for i in range(rounds):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + 1
        x = (x * 1_000_003 + i) & ((1 << 256) - 1)
        acc[i & 255] += x
    return len(table) + sum(acc) % 65_521


def main() -> None:
    signal.signal(signal.SIGTERM, stop)
    parent = os.getppid()
    samples = []
    while not stopped:
        if os.getppid() != parent:
            return
        start = time.perf_counter()
        work(WORK_ROUNDS)
        took = time.perf_counter() - start
        samples.append(repr(took))
        time.sleep(max(PERIOD_S - took, 0.0))
    sys.stdout.write("\n".join(samples) + "\n")


if __name__ == "__main__":
    main()
