"""Order statistics for the benchmark's timings.

Percentiles use the nearest-rank definition, so a failed operation can be
entered as ``math.inf`` ("infinitely slow") and still sorts last without
poisoning an interpolation.  A percentile is *supported* by a sample when
at least :data:`MIN_TAIL` samples lie beyond it; the report prints the
sample count and flags unsupported percentiles instead of hiding them.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile for it to be reported as
#: supported (the median of 20 samples has 10 beyond it, p90 needs 100).
MIN_TAIL = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` sorted samples."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be inside (0, 1), got {q}")
    return max(1, math.ceil(q * n - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``values`` (``math.inf`` allowed).

    >>> percentile([3.0, 1.0, 2.0, 4.0], 0.5)
    2.0
    >>> percentile([1.0, 2.0, math.inf], 0.9)
    inf
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q`` nearest-rank quantile."""
    return n - _rank(n, q)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_TAIL` beyond quantile ``q``."""
    return n > 0 and beyond(n, q) >= MIN_TAIL


def describe(values: Sequence[float], quantiles: Sequence[float]) -> str:
    """One report fragment: each quantile with its support, plus ``n``.

    >>> describe([float(i) for i in range(1, 101)], [0.5, 0.9, 0.99])
    'p50=50.00 p90=90.00 p99=99.00(unsupported, 1 beyond) n=100'
    """
    n = len(values)
    parts = []
    for q in quantiles:
        label = f"p{q * 100:g}"
        text = f"{label}={percentile(values, q):.2f}"
        if not supported(n, q):
            text += f"(unsupported, {beyond(n, q)} beyond)"
        parts.append(text)
    parts.append(f"n={n}")
    return " ".join(parts)


def median(values: Sequence[float]) -> float:
    """Median (the mean of the middle pair for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))

