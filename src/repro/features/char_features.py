"""Character-level distribution features (the Char group).

Sherlock computes, for each of 96 ASCII characters, aggregate statistics of
its per-value counts.  We reproduce the same idea at a slightly smaller
scale: for each character class member we compute the mean and presence-rate
of its occurrences across the column's values, plus a handful of shape
statistics.  The result is a fixed-length vector independent of the number
of rows.

The implementation is an accumulator (:class:`CharAccumulator`) holding
*exact* sufficient statistics — integer occurrence/presence counts and a
length histogram — so a column fed in chunks of any size finalizes to the
exact same bits as a single full scan.  :func:`char_features` is the
full-scan spelling: one accumulator, one ``partial_fit``, one
``finalize``.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

__all__ = ["CHAR_VOCABULARY", "CHAR_FEATURE_NAMES", "CharAccumulator", "char_features"]

#: Characters tracked individually: lowercase letters, digits and frequent
#: punctuation found in table cells.
CHAR_VOCABULARY: str = string.ascii_lowercase + string.digits + " .,-:/()$%#@'&+"

_SHAPE_FEATURES = [
    "frac_alpha",
    "frac_digit",
    "frac_space",
    "frac_punct",
    "frac_upper",
    "mean_length",
    "std_length",
]

CHAR_FEATURE_NAMES: list[str] = (
    [f"char_mean[{c}]" for c in CHAR_VOCABULARY]
    + [f"char_presence[{c}]" for c in CHAR_VOCABULARY]
    + [f"shape_{name}" for name in _SHAPE_FEATURES]
)

_CHAR_INDEX = {c: i for i, c in enumerate(CHAR_VOCABULARY)}


class CharAccumulator:
    """Exact sufficient statistics for the Char feature group.

    All state is exact (integers and an integer-length histogram), so
    ``partial_fit`` chunking never changes the finalized vector:
    ``finalize`` reduces the same exact state through the same formulas
    (``math.fsum`` is correctly rounded) however the values were split.

    Examples:
        >>> whole = CharAccumulator().partial_fit(["ab", "a"])
        >>> chunked = CharAccumulator().partial_fit(["ab"]).partial_fit(["a"])
        >>> bool((chunked.finalize() == whole.finalize()).all())
        True
    """

    __slots__ = (
        "n_values",
        "counts",
        "presence",
        "n_alpha",
        "n_digit",
        "n_space",
        "n_punct",
        "n_upper",
        "total_chars",
        "lengths",
    )

    def __init__(self) -> None:
        n_chars = len(CHAR_VOCABULARY)
        self.n_values = 0
        self.counts = [0] * n_chars
        self.presence = [0] * n_chars
        self.n_alpha = 0
        self.n_digit = 0
        self.n_space = 0
        self.n_punct = 0
        self.n_upper = 0
        self.total_chars = 0
        self.lengths: Counter[int] = Counter()

    def partial_fit(self, values: Iterable[str]) -> "CharAccumulator":
        """Fold a batch of values into the accumulator."""
        counts = self.counts
        presence = self.presence
        for value in values:
            if not value:
                continue
            self.n_values += 1
            self.lengths[len(value)] += 1
            value_counts: dict[int, int] = {}
            for char in value:
                self.total_chars += 1
                if char.isupper():
                    self.n_upper += 1
                lowered = char.lower()
                if lowered.isalpha():
                    self.n_alpha += 1
                elif lowered.isdigit():
                    self.n_digit += 1
                elif lowered.isspace():
                    self.n_space += 1
                else:
                    self.n_punct += 1
                index = _CHAR_INDEX.get(lowered)
                if index is not None:
                    value_counts[index] = value_counts.get(index, 0) + 1
            for index, count in value_counts.items():
                counts[index] += count
                presence[index] += 1
        return self

    def finalize(self) -> np.ndarray:
        """Reduce the accumulated state to the Char feature vector."""
        if self.n_values == 0:
            return np.zeros(len(CHAR_FEATURE_NAMES), dtype=np.float64)
        n = self.n_values
        mean_counts = np.array(self.counts, dtype=np.float64) / n
        presence = np.array(self.presence, dtype=np.float64) / n
        total_chars = max(1, self.total_chars)
        length_sum = sum(length * count for length, count in self.lengths.items())
        mean_length = length_sum / n
        length_var = (
            math.fsum(
                count * (length - mean_length) ** 2
                for length, count in self.lengths.items()
            )
            / n
        )
        shape = np.array(
            [
                self.n_alpha / total_chars,
                self.n_digit / total_chars,
                self.n_space / total_chars,
                self.n_punct / total_chars,
                self.n_upper / total_chars,
                mean_length,
                math.sqrt(max(0.0, length_var)),
            ],
            dtype=np.float64,
        )
        return np.concatenate([mean_counts, presence, shape])


def char_features(values: Sequence[str]) -> np.ndarray:
    """Compute the Char feature vector for a column's values.

    The full-scan path is the accumulator fed once, so streamed chunked
    featurization is bit-identical to this function by construction.
    """
    return CharAccumulator().partial_fit(values).finalize()
