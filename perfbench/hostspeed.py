"""A fixed reference kernel that tracks the host's speed while a run measures.

On a shared 2-core VM the speed of the CPU changes by up to 80% from one
second to the next and drifts over minutes (the kernel below takes about
5 ms in the host's fast state and 9 ms in its slow one), which moves every
raw time of a run whatever the program does.  The kernel below is timed before the first op and after every op of
a pass, and the end-to-end times are reported as if the host had run at its
reference speed: raw time x REFERENCE_MS / (kernel time around that op).

The kernel does not touch the package, so a change to the program moves
the adjusted times exactly as it moves the raw ones.  It mixes the two kinds
of work the package does: arithmetic on few-hundred-bit integers in small
objects (as `dyadic` and `polyring.eval_interval` do) and products of sparse
polynomials held in dicts of tuples (as `riley` and `polyring` do).  Either
part alone tracks the drift less well.  The garbage collector is off while
it runs, so that the heap the program leaves behind does not enter its time.
"""

from __future__ import annotations

import gc
import time

# The kernel's time on the 2-core x86 VM the benchmark was tuned on, at a
# quiet moment.  It only fixes the scale of the adjusted times; comparisons
# between commits do not depend on it.
REFERENCE_MS = 5.0

_A = {(i, j, (i * j) % 5): (i + 1) * (j + 3) - 7 for i in range(12) for j in range(12)}
_B = {(i, j, (i + j) % 3): 2 * i - j + 1 for i in range(10) for j in range(5)}


class _Num:
    __slots__ = ("m", "e")

    def __init__(self, m, e):
        self.m, self.e = m, e

    def __mul__(self, other):
        return _Num(self.m * other.m, self.e + other.e)

    def __add__(self, other):
        if self.e > other.e:
            return _Num((self.m << (self.e - other.e)) + other.m, other.e)
        return _Num(self.m + (other.m << (other.e - self.e)), self.e)


def _kernel():
    x, y, keep = _Num((1 << 200) + 12345, -200), _Num(3, -1), {}
    for i in range(1500):
        z = x * y + x
        keep[i & 63] = (_Num(z.m >> 150, z.e + 150), str(i))
    product = {}
    for (a1, a2, a3), ca in _A.items():
        for (b1, b2, b3), cb in _B.items():
            key = (a1 + b1, a2 + b2, a3 + b3)
            product[key] = product.get(key, 0) + ca * cb
    return sorted(product.items()), keep


def kernel_ms() -> float:
    """Milliseconds the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def factor(before_ms: float, after_ms: float) -> float:
    """Multiplier that turns a raw time measured between two kernel timings
    into the time at the reference speed."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)
