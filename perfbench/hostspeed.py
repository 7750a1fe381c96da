"""The host's speed, sampled through a run with a fixed reference loop.

The VM the benchmark runs on shares its host, and the host's speed
drifts: a fixed pure-Python loop runs up to 1.8 times slower for minutes
at a time, and the offline workloads (``annotate_bulk``, ``train``) slow
with it.  No statistic over one run's timings removes a drift that
outlasts the run, so their timings are scaled to a fixed *reference
speed*, the speed at which one :func:`reference_piece` takes
:data:`REFERENCE_MS`.  Serving timings are not scaled: the serving
workloads' speed does not follow the reference (``README.md``, "Noise").

The benchmark times a few reference pieces before and after each
operation, in the process that times it and while the program is idle.
A run's timings are multiplied by :data:`REFERENCE_MS` over the mean
piece time of the run.  The mean, not the median: an operation of a few
hundred milliseconds runs through the host's fast and slow moments alike,
so it slows by the host's average slowdown, which the mean of many short
pieces estimates.  The reference loop does not call the program, so a
change to the program moves the scaled timings while a change in the
host's speed does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: A reference piece's time at the reference speed, in milliseconds (about
#: its time on the 2-vCPU VM described in README.md when its host is calm).
REFERENCE_MS = 3.0
#: Pieces timed at each sampling point.
PIECES = 3

_KEYS = tuple(f"key{index}" for index in range(64))
_LOOPS = 16_000
_DRAWS = 80
_WEIGHTS = np.linspace(1.0, 2.0, 24)


def reference_piece() -> int:
    """A fixed slice of work like the program's: interpreter and small numpy calls.

    Integer arithmetic and dict updates, then normalising and sampling a
    24-way distribution as a Gibbs step does.  It allocates no containers
    beyond one dict, so it never triggers the garbage collector over the
    program's objects.
    """
    counts = dict.fromkeys(_KEYS, 0)
    for index in range(_LOOPS):
        counts[_KEYS[index & 63]] += index * index % 7
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(_DRAWS):
        weights = _WEIGHTS * (_WEIGHTS + 0.5)
        total += int(rng.choice(24, p=weights / weights.sum()))
    return total + counts["key0"]


class HostSpeed:
    """Reference-piece timings in milliseconds, taken through one run."""

    def __init__(self, samples=()):
        self.samples: list[float] = list(samples)

    def sample(self, pieces: int = PIECES) -> None:
        """Time ``pieces`` reference pieces now."""
        for _ in range(pieces):
            started = time.perf_counter()
            reference_piece()
            self.samples.append((time.perf_counter() - started) * 1e3)

    def scale(self, value: float) -> float:
        """A duration (or a duration per unit) measured in this run, at the reference speed."""
        if not self.samples:
            raise ValueError("no reference pieces were timed")
        return value * REFERENCE_MS / statistics.fmean(self.samples)

    def summary(self) -> str:
        """One report line: the pieces' mean and range, and the scale factor."""
        return (f"host speed: reference piece mean {statistics.fmean(self.samples):.3f} ms "
                f"(min {min(self.samples):.3f}, max {max(self.samples):.3f}, "
                f"n={len(self.samples)}); timings are scaled by {self.scale(1.0):.4f} "
                f"to {REFERENCE_MS} ms a piece")
