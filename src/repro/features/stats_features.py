"""Global column statistics (the Stat group).

Sherlock's Stat group has 27 hand-crafted global statistics per column
(entropy, uniqueness, numeric summary statistics, value-length statistics,
missing-value counts, ...).  This module reproduces a 27-dimensional Stat
vector with the same flavour of statistics.

:class:`StatAccumulator` is the reference: its state is a missing-cell
count plus a ``Counter`` of the distinct kept values, and ``finalize``
derives per distinct value, in a Python loop, the parsed number, the
length, the word count and the digit/letter/upper-case flags, each
weighted by the value's count.  :func:`stat_vector` is the one spelling
of the 27 formulas over that exact integer state (weighted ``math.fsum``
sums over the *sorted* distinct values), so where chunk boundaries fall
cannot change the vector.  The streaming path derives the same state by
a weighted NumPy codepoint pass
(:meth:`~repro.features.accumulators.ColumnAccumulator.finalize`) and
calls the same :func:`stat_vector`.  Memory is O(distinct kept values),
not O(rows).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "STAT_FEATURE_NAMES",
    "StatAccumulator",
    "column_statistics",
    "stat_vector",
]

STAT_FEATURE_NAMES: list[str] = [
    "n_values",
    "n_missing",
    "frac_missing",
    "n_unique",
    "frac_unique",
    "entropy",
    "normalized_entropy",
    "frac_numeric",
    "numeric_mean",
    "numeric_std",
    "numeric_min",
    "numeric_max",
    "numeric_median",
    "numeric_sum_log",
    "frac_negative",
    "frac_integer",
    "mean_length",
    "std_length",
    "min_length",
    "max_length",
    "median_length",
    "mean_word_count",
    "max_word_count",
    "frac_contains_digit",
    "frac_contains_alpha",
    "frac_all_upper",
    "mode_frequency",
]

assert len(STAT_FEATURE_NAMES) == 27


#: The largest magnitude a cell parses to a number; beyond it the cell is
#: text.  Bigger finite numbers overflow the squared deviations of the
#: statistics (``1e200 ** 2`` is inf); under the bound each squared
#: deviation is at most 4e200, so sums and variances stay finite.
_MAX_NUMBER = 1e100


def _try_parse_number(value: str) -> float | None:
    text = value.strip().replace(",", "").replace("$", "").replace("%", "")
    if not text:
        return None
    try:
        number = float(text)
    except ValueError:
        return None
    # The one comparison also rejects the "inf" and "nan" spellings.
    return number if abs(number) <= _MAX_NUMBER else None


def _weighted_median(sorted_pairs: list[tuple[float, int]], n: int) -> float:
    """Median of ``n`` values given sorted ``(value, count)`` pairs.

    Matches ``np.median`` on the expanded multiset: the average of the
    elements at 0-based positions ``(n - 1) // 2`` and ``n // 2``.
    """
    lo_index = (n - 1) // 2
    hi_index = n // 2
    lo = hi = sorted_pairs[0][0]
    cumulative = 0
    for value, count in sorted_pairs:
        if cumulative <= lo_index < cumulative + count:
            lo = value
        if cumulative <= hi_index < cumulative + count:
            hi = value
            break
        cumulative += count
    return (lo + hi) / 2.0


class StatAccumulator:
    """Exact sufficient statistics for the Stat feature group.

    Examples:
        >>> whole = StatAccumulator().partial_fit(["1", "2", ""])
        >>> chunked = StatAccumulator().partial_fit(["1"]).partial_fit(["2", ""])
        >>> bool((chunked.finalize() == whole.finalize()).all())
        True
    """

    __slots__ = ("n_values", "n_missing", "counter")

    def __init__(self) -> None:
        self.n_values = 0
        self.n_missing = 0
        self.counter: Counter[str] = Counter()

    def partial_fit(self, values: Iterable[str]) -> "StatAccumulator":
        """Fold a batch of values into the accumulator."""
        for value in values:
            self.n_values += 1
            if value and value.strip():
                self.counter[value] += 1
            else:
                self.n_missing += 1
        return self

    def finalize(self) -> np.ndarray:
        """Reduce the accumulated state to the 27-dimensional Stat vector."""
        numbers: list[tuple[float, int]] = []
        lengths: Counter[int] = Counter()
        word_counts: Counter[int] = Counter()
        n_contains_digit = n_contains_alpha = n_all_upper = 0
        for value, count in self.counter.items():
            number = _try_parse_number(value)
            if number is not None:
                numbers.append((number, count))
            lengths[len(value)] += count
            word_counts[len(value.split())] += count
            if any(ch.isdigit() for ch in value):
                n_contains_digit += count
            if any(ch.isalpha() for ch in value):
                n_contains_alpha += count
            if value.isupper():
                n_all_upper += count
        return stat_vector(
            n_values=self.n_values,
            n_missing=self.n_missing,
            value_counts=list(self.counter.values()),
            numbers=numbers,
            lengths=lengths,
            word_counts=word_counts,
            n_contains_digit=n_contains_digit,
            n_contains_alpha=n_contains_alpha,
            n_all_upper=n_all_upper,
        )


def stat_vector(
    n_values: int,
    n_missing: int,
    value_counts: list[int],
    numbers: list[tuple[float, int]],
    lengths: dict[int, int],
    word_counts: dict[int, int],
    n_contains_digit: int,
    n_contains_alpha: int,
    n_all_upper: int,
) -> np.ndarray:
    """The Stat formulas over a column's exact state.

    Written once for both ways of reaching that state: the
    :class:`StatAccumulator` loop and the weighted codepoint pass of
    :class:`~repro.features.accumulators.ColumnAccumulator`.  Every input
    is an exact integer count over the kept (non-missing) values:
    ``value_counts`` per distinct value; ``numbers`` the parsed
    ``(number, count)`` pairs in first-occurrence order; ``lengths`` and
    ``word_counts`` histograms; and the value counts with a digit, with a
    letter and in upper case.
    """
    if n_values == 0:
        return np.zeros(len(STAT_FEATURE_NAMES), dtype=np.float64)

    n_kept = n_values - n_missing
    frac_missing = n_missing / n_values
    n_unique = len(value_counts)
    total = max(1, n_kept)
    frac_unique = n_unique / total
    if value_counts:
        entropy = -math.fsum(
            (c / total) * math.log(c / total + 1e-12) for c in value_counts
        )
        mode_frequency = max(value_counts) / total
    else:
        entropy = 0.0
        mode_frequency = 0.0
    normalized_entropy = entropy / math.log(n_unique + 1e-12) if n_unique > 1 else 0.0

    n_numeric = sum(count for _, count in numbers)
    frac_numeric = n_numeric / total
    if numbers:
        numbers = sorted(numbers, key=lambda pair: pair[0])
        numeric_sum = math.fsum(number * count for number, count in numbers)
        numeric_mean = numeric_sum / n_numeric
        numeric_var = (
            math.fsum(count * (number - numeric_mean) ** 2 for number, count in numbers)
            / n_numeric
        )
        numeric_std = math.sqrt(max(0.0, numeric_var))
        numeric_min = numbers[0][0]
        numeric_max = numbers[-1][0]
        numeric_median = _weighted_median(numbers, n_numeric)
        numeric_sum_log = math.log1p(abs(numeric_sum))
        frac_negative = (
            sum(count for number, count in numbers if number < 0) / n_numeric
        )
        frac_integer = (
            sum(count for number, count in numbers if number.is_integer()) / n_numeric
        )
    else:
        numeric_mean = numeric_std = numeric_min = numeric_max = 0.0
        numeric_median = numeric_sum_log = frac_negative = frac_integer = 0.0

    if n_kept:
        length_sum = sum(length * count for length, count in lengths.items())
        mean_length = length_sum / n_kept
        length_var = (
            math.fsum(
                count * (length - mean_length) ** 2 for length, count in lengths.items()
            )
            / n_kept
        )
        std_length = math.sqrt(max(0.0, length_var))
        min_length = float(min(lengths))
        max_length = float(max(lengths))
        median_length = _weighted_median(
            sorted((float(k), c) for k, c in lengths.items()), n_kept
        )
        mean_word_count = (
            sum(words * count for words, count in word_counts.items()) / n_kept
        )
        max_word_count = float(max(word_counts))
        frac_contains_digit = n_contains_digit / n_kept
        frac_contains_alpha = n_contains_alpha / n_kept
        frac_all_upper = n_all_upper / n_kept
    else:
        mean_length = std_length = min_length = max_length = median_length = 0.0
        mean_word_count = max_word_count = 0.0
        frac_contains_digit = frac_contains_alpha = frac_all_upper = 0.0

    features = np.array(
        [
            float(n_values),
            float(n_missing),
            frac_missing,
            float(n_unique),
            frac_unique,
            entropy,
            normalized_entropy,
            frac_numeric,
            numeric_mean,
            numeric_std,
            numeric_min,
            numeric_max,
            numeric_median,
            numeric_sum_log,
            frac_negative,
            frac_integer,
            mean_length,
            std_length,
            min_length,
            max_length,
            median_length,
            mean_word_count,
            max_word_count,
            frac_contains_digit,
            frac_contains_alpha,
            frac_all_upper,
            mode_frequency,
        ],
        dtype=np.float64,
    )
    # Large magnitudes (sums, maxima) are squashed to keep the network
    # stable.
    return np.sign(features) * np.log1p(np.abs(features))


def column_statistics(values: Sequence[str]) -> np.ndarray:
    """Compute the 27-dimensional Stat vector for a column's values.

    The full-scan path is the accumulator fed once, so streamed chunked
    featurization is bit-identical to this function by construction.
    """
    return StatAccumulator().partial_fit(values).finalize()
