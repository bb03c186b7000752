"""Time a fixed pure-Python loop in a fresh interpreter.

Prints the fastest of ``CALIBRATION_REPEATS`` timings in seconds. The
benchmark runs this as a child process before every iteration: a fresh
heap makes the reading depend on the host's current speed only, not on
the state the measured program left behind in the benchmark process.
"""

import gc
import sys
from time import perf_counter

CALIBRATION_REPEATS = 9


def calibration_loop() -> int:
    """Fixed interpreter-bound work: string formatting, tuple building,
    dict probes and a keyed sort. Standard library only, so no change
    to the program can change its cost."""
    table = {}
    for i in range(20_000):
        key = ("name-%05d" % (i % 1021), i & 7)
        entry = table.get(key)
        table[key] = (i,) if entry is None else entry + (i,)
    rows = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
    return sum(len(values) for _, values in rows)


def fastest() -> float:
    gc.disable()  # the loop makes no cycles
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        started = perf_counter()
        calibration_loop()
        best = min(best, perf_counter() - started)
    return best


if __name__ == "__main__":
    sys.stdout.write(f"{fastest()!r}\n")
