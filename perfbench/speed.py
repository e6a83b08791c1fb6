"""How fast the machine runs right now, measured with a fixed reference kernel.

The speed of a shared host drifts by tens of percent over seconds, which
swamps the differences a benchmark is meant to show.  Each reported
timing is therefore rescaled to a fixed machine speed: the wall time of
an operation is divided by the wall time of this kernel measured just
before and just after it (at most INTERVAL_S apart, so short operations
share a measurement), and multiplied by REFERENCE_S, the kernel's
nominal duration.  The kernel uses only the standard library, so no
change to the package can change it; it mixes the two kinds of work the
package does, exact ``Fraction`` matrix arithmetic and ``frozenset``
filtering.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 1e-3
INTERVAL_S = 0.2

_MATRIX_PAIRS = [tuple(Fraction((i * 7 + j) % 23 + 1, (i + 3 * j) % 19 + 1) for j in range(8))
                 for i in range(16)]
_UP = [tuple(w for w in (v + 1, v + 3) if w < 10 and (v % 3 != 2 or w != v + 1))
       for v in range(10)]


def kernel():
    """2x2 Fraction products and inverses, then ideal tests on 192 subsets."""
    out = []
    for a, b, c, d, e, f, g, h in _MATRIX_PAIRS:
        p = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        det = p[0] * p[3] - p[1] * p[2]
        out.append((p[3] / det, -p[1] / det, -p[2] / det, p[0] / det))
    ideals = 0
    for mask in range(192):
        m = frozenset(v for v in range(10) if mask >> v & 1)
        if all(w in m for v in m for w in _UP[v]):
            ideals += 1
    return out, ideals


def kernel_seconds(repeats=3):
    """Shortest wall time of ``repeats`` back-to-back runs of the kernel.

    The runs see the same machine speed; the shortest one is the least
    disturbed by interrupts and by caches the previous work left cold.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def scale(before, after):
    """Factor that turns wall seconds into seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
