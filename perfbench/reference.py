"""Timing at reference host speed.

On a shared host the speed of a CPU-bound Python process changes by up to
60% over seconds to minutes, and CPU time changes with wall time, so the
drift comes from contention on the host and not from waiting.  It follows
the vCPU the process runs on: a calibration loop on the other vCPU does
not see it.

So a timed interval is sampled from inside: every ``INTERVAL_S`` seconds a
signal handler runs a small fixed probe computation and times it, and one
probe runs just before and one just after the interval.  The reported time
is the interval's own time without the probes, scaled to a host on which
the probe takes ``NOMINAL_S``:

    reported = (interval - probe time inside it) * NOMINAL_S / mean probe

The probe imitates the engine's inner loops: sparse rows as dicts keyed by
index tuples, alternating signs, and exact ``Fraction`` elimination.  It
imports nothing from epslie, so no change to the engine can change it.  It
runs with the garbage collector off, so the heap the engine holds does not
slow it.
"""

import gc
import itertools
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
NOMINAL_S = 0.0018
_SIZE = 7
_RANK = 15  # C(_SIZE - 1, 2)


def _eliminate(n):
    """Rank of a weighted boundary map from 3-subsets to 2-subsets of n."""
    col = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    pivots = {}
    for t in itertools.combinations(range(n), 3):
        row = {}
        for k in range(3):
            row[col[t[:k] + t[k + 1:]]] = Fraction(-1 if k % 2 else 1, 1 + t[k] % 3)
        # Pivot rows start at their pivot, so clearing the leading entry
        # only adds entries further right.
        while row:
            c = min(row)
            if c not in pivots:
                inv = 1 / row[c]
                pivots[c] = {j: v * inv for j, v in row.items()}
                break
            f = row[c]
            for j, v in pivots[c].items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
    return len(pivots)


class Probe:
    """Samples host speed while the ``with`` block runs (main thread only)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []  # (start, seconds)

    def _probe(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t0 = self.clock()
        rank = _eliminate(_SIZE)
        self.samples.append((t0, self.clock() - t0))
        if enabled:
            gc.enable()
        if rank != _RANK:
            raise ArithmeticError("probe computation gave rank %d" % rank)

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def mean_s(self):
        return sum(d for _, d in self.samples) / len(self.samples)

    def scaled(self, t0, t1):
        """The interval [t0, t1] without its probes, at reference speed."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        return (t1 - t0 - inside) * NOMINAL_S / self.mean_s()
