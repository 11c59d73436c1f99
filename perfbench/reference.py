"""A fixed pure-Python kernel that the benchmark uses as its clock.

On a shared virtual machine the CPU speed can drift between slow and fast
states that last from a few seconds to minutes, so the same requests take
up to a quarter longer in one run than in the next. The drift slows all
interpreted Python code, if not all of it by exactly the same share. The
timed phase therefore runs this kernel, which calls nothing in revlogic,
between windows of requests, and measures request time in *reference
seconds*: CPU seconds scaled by how fast the kernel ran just after the
window, relative to ``NOMINAL_CALL_S``.

A change to revlogic cannot move the kernel: it calls nothing there, every
object it makes is freed before it returns, and the garbage collector is
off while it is timed, so no collection of the program's heap lands in a
reading.
"""

from __future__ import annotations

import gc
import statistics
import time

# Seconds one kernel call takes at the reference speed: about its median
# on a 2-CPU x86-64 VM with CPython 3.11. Only the ratio to it matters.
NOMINAL_CALL_S = 0.0006

# A 3-bit permutation, applied like a gate's truth table.
_ROWS = (3, 0, 5, 2, 7, 4, 1, 6)


class _Word:
    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        self.bits = bits

    def value(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v


def kernel() -> int:
    """Fixed work shaped like gate-level simulation: small objects, tuples,
    list indexing, table lookups and bit arithmetic. Every object it makes
    is freed before it returns."""
    acc = 0
    for i in range(120):
        values = list(_Word(tuple((i >> k) & 1 for k in range(8))).bits) + [0, 0]
        for j in range(0, 8, 2):
            out = _ROWS[(values[j] << 2) | (values[j + 1] << 1) | values[j + 2]]
            values[j] = out >> 2 & 1
            values[j + 1] = out >> 1 & 1
            values[j + 2] = out & 1
        acc += _Word(tuple(values[:8])).value()
    return acc


def speed(calls: int) -> float:
    """Reference seconds per wall second now: above 1 on a fast machine.

    Takes the median of the CPU times of ``calls`` kernel calls, as the
    requests are timed, so an interrupt that hits one call does not count
    as a slow machine.
    """
    clock = time.thread_time
    times = []
    gc.disable()
    try:
        for _ in range(calls):
            start = clock()
            kernel()
            times.append(clock() - start)
    finally:
        gc.enable()
    return NOMINAL_CALL_S / statistics.median(times)
