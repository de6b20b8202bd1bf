"""The machine's speed, measured next to the operations.

On a shared host the CPU time of the same Python work moves by up to 60 %
between phases that last a minute or more (other tenants on the same cores
and caches), so no raw time from one run is comparable with another run's.
A fixed reference kernel, written here and never changed by a change to the
package, is timed between the operations; an operation's CPU time is scaled
by the reference's nominal time over the median reference time around it.
The result is the time the operation would take on this machine at the
speed where the kernel takes NOMINAL_S: every time the benchmark reports is
in those units.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: CPU seconds of one reference_kernel() at the reference speed (its median
#: on a 2-CPU x86-64 VM running Python 3.11).
NOMINAL_S = 0.004

#: reference samples on each side of an operation that set its speed
WINDOW = 4


def reference_kernel():
    """A fixed mix of the work the package does: exact rational elimination,
    dictionary updates keyed by tuples, minima over lists, and a sort."""
    n = 7
    a = [[Fraction((3 * i + 5 * j) % 11 + (13 if i == j else 0), 1 + (i + 2 * j) % 5)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / p
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    msgs = {}
    for k in range(2500):
        key = (k % 31, (7 * k) % 29)
        msgs[key] = min(msgs.get(key, k), (k * k) % 1009 - 500)
    rows = sorted(msgs.items(), key=lambda kv: (kv[1], kv[0]))
    return a[n - 1][n - 1], sum(v for _, v in rows[:50])


class Speed:
    """Reference samples in the order they were taken, and the position of
    each timed span among them."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.process_time()
        reference_kernel()
        self.samples.append(time.process_time() - t0)

    def mark(self):
        """Position of the next sample: a span timed now sits here."""
        return len(self.samples)

    def scale(self, cpu_s, at):
        """cpu_s, taken at position ``at``, in reference-speed seconds."""
        lo = max(0, at - WINDOW)
        local = statistics.median(self.samples[lo:at + WINDOW] or self.samples)
        return cpu_s * NOMINAL_S / local

    def summary(self):
        return (f"reference kernel: median {1e3 * statistics.median(self.samples):.3f} ms CPU "
                f"over {len(self.samples)} samples (reference speed: {1e3 * NOMINAL_S:g} ms)")
