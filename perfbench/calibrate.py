"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one vCPU drifts by a fifth or more over
minutes, and all code slows together.  A ``Sampler`` therefore times this
kernel every INTERVAL_S of a pass's timed phase, from a timer signal, so
the samples are spread evenly over the time the cases run.  The time the
kernel takes is left out of the cases' times, and ``run.py`` reports each
time metric scaled to a fixed reference speed:

    scaled = measured * NOMINAL_S / (mean time of the kernel meanwhile)

where "meanwhile" is the samples taken while the case ran, or those of
its whole pass when the case got too few.

The kernel is the benchmark's own code and never calls cjt, so a change
to cjt cannot move it.  It mixes what cjt spends its time on: Gaussian
elimination over GF(p) on small uint8 matrices (numpy row operations
driven from a Python loop), Python-level integer bookkeeping, and a
streaming pass over a few megabytes of memory.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

# time of one kernel() call at the reference speed: the unit of the
# scaled metrics ("s at reference speed")
NOMINAL_S = 0.015
# seconds between two samples of the timed phase
INTERVAL_S = 0.25

_P = 3
_SIZE = 48
_MATRICES = 6


def _inputs():
    rng = random.Random(20100717)
    mats = [
        np.array([[rng.randrange(_P) for _ in range(_SIZE)] for _ in range(_SIZE)], dtype=np.uint8)
        for _ in range(_MATRICES)
    ]
    block = np.arange(1 << 18, dtype=np.int64) * 2654435761 % 251  # 2 MB
    return mats, block


_MATS, _BLOCK = _inputs()


def _rank(A, p):
    """Rank over GF(p) by forward elimination."""
    R = A.copy()
    rows, cols = R.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(R[rank:, c])
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            R[[rank, pr]] = R[[pr, rank]]
        inv = pow(int(R[rank, c]), p - 2, p)
        R[rank] = (R[rank].astype(np.int64) * inv) % p
        below = rank + 1 + np.flatnonzero(R[rank + 1 :, c])
        if below.size:
            upd = R[below].astype(np.int16) + np.outer(
                (p - R[below, c]).astype(np.int16), R[rank]
            )
            R[below] = (upd % p).astype(np.uint8)
        rank += 1
    return rank


def _bookkeeping(n):
    seen = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) % 4099
        seen[key] = seen.get(key, 0) + 1
        acc = (acc * 31 + key) % 1000003
    return acc + len(seen)


def kernel():
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = sum(_rank(A, _P) for A in _MATS)
    total += _bookkeeping(8000)
    total += int(_BLOCK.sum() % 1009)
    return total


def measure():
    """Seconds one kernel() call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Times kernel() every INTERVAL_S of wall time while running.

    ``samples`` holds the kernel times; ``spent`` their sum, which the
    caller subtracts from what it times so the kernel does not count.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t = measure()
        self.samples.append(t)
        self.spent += t

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def clock(self):
        """perf_counter() less the kernel's time so far."""
        return time.perf_counter() - self.spent


if __name__ == "__main__":
    times = sorted(measure() for _ in range(20))
    print(f"kernel: median {times[10] * 1000:.1f} ms, min {times[0] * 1000:.1f} ms")
