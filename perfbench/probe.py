"""Host speed probe: a fixed amount of pure-Python work that runs no fflab code.

The benchmark shares a host whose speed drifts by a third within minutes, and
fflab's passes slow with it.  A pass is therefore interrupted every
INTERVAL_S of wall time by ``probe()``, and its time is later scaled by a
reference probe time over the median probe time measured during the pass
(run.py).  Because the probe runs no fflab code, a slower fflab still shows in
full.

The probe mixes the three kinds of work fflab's passes are made of, since the
host's slowdowns hit them by different shares: an integer arithmetic loop, a
table-driven series product like the residue-field arithmetic of
``localfield``, and a pointer chase through a 4 MB array, larger than a
core's own cache.  On a shared 2-core host, scaling by this mix left a
single pass's spread (coefficient of variation) at 5-6 % where raw wall time
had 15-16 %; any one of the three alone left 6-11 %.
"""

import signal
import time
from array import array

INTERVAL_S = 0.2

_Q = 9
_ADD = [[(x + y) % _Q for y in range(_Q)] for x in range(_Q)]
_MUL = [[(x * y) % _Q for y in range(_Q)] for x in range(_Q)]
_A = tuple((3 * i + 1) % _Q for i in range(12))
_B = tuple((5 * i + 2) % _Q for i in range(12))

# successor table of a full-period linear congruential sequence mod 2**20, so
# the chase visits distinct entries in an order caches cannot predict
_CHASE_LEN = 1 << 20
_chase = None


def chase_mb():
    """Memory held by the pointer-chase table (0 until the first probe)."""
    return 0 if _chase is None else len(_chase) * _chase.itemsize / 2 ** 20


def probe():
    """Seconds taken by the fixed mix of work."""
    global _chase
    if _chase is None:
        mask = _CHASE_LEN - 1
        _chase = array("i", ((615949 * k + 1013904223) & mask
                             for k in range(_CHASE_LEN)))
    t0 = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    for _ in range(120):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, ca in enumerate(_A):
            if ca:
                row = _MUL[ca]
                for j, cb in enumerate(_B):
                    if cb:
                        out[i + j] = _ADD[out[i + j]][row[cb]]
    j = 0
    for _ in range(12_000):
        j = _chase[j]
    return time.perf_counter() - t0


class Probes:
    """Runs probe() every INTERVAL_S of wall time while active.

    Call probe() once before, so that the chase table is not built mid-pass.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
