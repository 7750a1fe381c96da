"""Per-column accumulators for streaming featurization.

Every per-column quantity the featurizer needs — Char statistics, Stat
statistics, and the capped token prefix feeding the Word/Para embeddings
— folds into one :class:`ColumnAccumulator` chunk by chunk: one
``partial_fit(values)`` per chunk, in the row order every
:class:`~repro.tables.TableStream` yields its chunks, then
:meth:`~repro.features.ColumnFeaturizer.finalize_columns`.  The result
is the exact same bits as one full scan, for every chunk size:

* :class:`~repro.features.char_features.CharAccumulator` and
  :class:`~repro.features.stats_features.StatAccumulator` hold exact
  integer/``Counter`` state and finalize through canonical formulas
  (see their modules), so chunk boundaries cannot change them;
* the token prefix is the first ``max_tokens`` tokens of the column's
  values in row order, so appending each chunk's tokens until the cap
  is reached assembles the prefix the full scan tokenizes.

Examples:
    >>> from repro.features.accumulators import ColumnAccumulator
    >>> whole = ColumnAccumulator(max_tokens=4).partial_fit(["a b", "c", "d e"])
    >>> chunked = ColumnAccumulator(max_tokens=4).partial_fit(["a b"])
    >>> chunked.partial_fit(["c", "d e"]).token_list()
    ['a', 'b', 'c', 'd']
    >>> chunked.token_list() == whole.token_list()
    True
"""

from __future__ import annotations

from typing import Sequence

from repro.embeddings.tokenizer import tokenize
from repro.features.char_features import CharAccumulator
from repro.features.stats_features import StatAccumulator

__all__ = ["ColumnAccumulator"]


class ColumnAccumulator:
    """Everything one column needs, folded in one chunk at a time.

    One ``partial_fit`` per chunk feeds the Char and Stat accumulators
    and grows the capped token prefix;
    :meth:`~repro.features.ColumnFeaturizer.finalize_columns` turns a
    batch of these into the standardized feature matrix.  Memory is
    O(distinct values + ``max_tokens``), not O(rows).
    """

    __slots__ = ("char", "stat", "max_tokens", "_tokens")

    def __init__(self, max_tokens: int) -> None:
        if max_tokens < 0:
            raise ValueError("max_tokens must be >= 0")
        self.char = CharAccumulator()
        self.stat = StatAccumulator()
        self.max_tokens = max_tokens
        self._tokens: list[str] = []

    def partial_fit(self, values: Sequence[str]) -> "ColumnAccumulator":
        """Fold the column's next chunk of values into the accumulator."""
        values = list(values)
        self.char.partial_fit(values)
        self.stat.partial_fit(values)
        tokens = self._tokens
        for value in values:
            if len(tokens) >= self.max_tokens:
                break
            tokens.extend(tokenize(value))
        del tokens[self.max_tokens :]
        return self

    def token_list(self) -> list[str]:
        """The column's capped token prefix (for Word/Para features)."""
        return list(self._tokens)
