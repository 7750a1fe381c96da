"""Per-column accumulators for streaming featurization.

A column's whole streaming state is one :class:`ColumnAccumulator`: a
``Counter`` of its cell values, empty and blank cells included, plus the
capped token prefix feeding the Word/Para embeddings.  One
``partial_fit(values)`` per chunk, in the row order every
:class:`~repro.tables.TableStream` yields its chunks, updates both;
:meth:`~repro.features.ColumnFeaturizer.finalize_columns` then turns a
batch of accumulators into feature rows.  The result is the exact same
bits as the per-value loop over the whole column, for every chunk size:

* the value counts do not depend on where chunk boundaries fall, and
  :meth:`ColumnAccumulator.finalize` turns them into the Char and Stat
  vectors by one weighted NumPy codepoint pass over the distinct values
  (:mod:`repro.features.codepoints` classifies every character).  Per
  distinct value it counts tracked characters, their presence, the
  character classes, the length and the words, flags digits, letters and
  upper case, then multiplies each by the value's multiplicity.  It parses
  only the number candidates the codepoint flags single out
  (:func:`~repro.features.codepoints.value_facts`); every value the
  number rule accepts is one.  That is the exact integer state the
  :class:`~repro.features.char_features.CharAccumulator` and
  :class:`~repro.features.stats_features.StatAccumulator` loops reach
  value by value, and it goes through the same finalize formulas;
* the token prefix is the first ``max_tokens`` tokens of the column's
  values in row order, so appending each chunk's tokens until the cap
  is reached assembles the prefix the full scan tokenizes.

State is O(distinct values + ``max_tokens``), not O(rows).  The pass
decodes :data:`_SLICE_VALUES` distinct values at a time, which bounds its
per-character arrays however many distinct values a column has.

Examples:
    >>> import numpy as np
    >>> from repro.features import char_features, column_statistics
    >>> from repro.features.accumulators import ColumnAccumulator
    >>> whole = ColumnAccumulator(max_tokens=4).partial_fit(["a b", "c", "d e"])
    >>> chunked = ColumnAccumulator(max_tokens=4).partial_fit(["a b"])
    >>> chunked.partial_fit(["c", "d e"]).token_list()
    ['a', 'b', 'c', 'd']
    >>> chunked.token_list() == whole.token_list()
    True
    >>> char, stat = chunked.finalize()
    >>> np.array_equal(char, char_features(["a b", "c", "d e"]))
    True
    >>> np.array_equal(stat, column_statistics(["a b", "c", "d e"]))
    True
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, islice
from typing import Sequence

import numpy as np

from repro.embeddings.tokenizer import tokenize
from repro.features.char_features import CHAR_VOCABULARY, CharAccumulator
from repro.features.codepoints import _FLAG_UPPER, _PROPS, decode, value_facts
from repro.features.stats_features import _try_parse_number, stat_vector

__all__ = ["ColumnAccumulator"]

#: Distinct values the counted pass decodes at once.  Its per-character
#: arrays scale with this.  Annotating perfbench's ``annotate_bulk`` tables
#: (2k-20k rows, up to 14k distinct values a column) in one process peaked
#: at 64.2 MiB with one pass per whole column, at 51.2 MiB with 512-value
#: slices and at 50.2 MiB with the per-value loop, on a 2-vCPU VM; the two
#: pass sizes ran at about the same speed.
_SLICE_VALUES = 512


def _histogram(keys: np.ndarray, weights: np.ndarray) -> dict[int, int]:
    """``{key: summed weight}`` of non-negative keys, in exact integers.

    The keys are lengths and word counts of a slice's values, so the
    dense table is no longer than the slice's codepoint array.
    """
    totals = np.zeros(int(keys.max(initial=-1)) + 1, dtype=np.int64)
    np.add.at(totals, keys, weights)
    present = np.flatnonzero(totals)
    return dict(zip(present.tolist(), totals[present].tolist()))


class ColumnAccumulator:
    """Everything one column needs, folded in one chunk at a time.

    One ``partial_fit`` per chunk counts the chunk's values and grows the
    capped token prefix; :meth:`finalize` computes the Char and Stat
    vectors from the counts, and
    :meth:`~repro.features.ColumnFeaturizer.finalize_columns` turns a
    batch of these into the standardized feature matrix.  Memory is
    O(distinct values + ``max_tokens``), not O(rows).
    """

    __slots__ = ("value_counts", "max_tokens", "_tokens")

    def __init__(self, max_tokens: int) -> None:
        if max_tokens < 0:
            raise ValueError("max_tokens must be >= 0")
        self.value_counts: Counter[str] = Counter()
        self.max_tokens = max_tokens
        self._tokens: list[str] = []

    def partial_fit(self, values: Sequence[str]) -> "ColumnAccumulator":
        """Fold the column's next chunk of values into the accumulator."""
        self.value_counts.update(values)
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

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """The column's Char and Stat vectors.

        Equal bit for bit to :func:`~repro.features.char_features` and
        :func:`~repro.features.column_statistics` over the values counted.
        """
        n_vocab = len(CHAR_VOCABULARY)
        char = CharAccumulator()
        vocab_counts = np.zeros(n_vocab, dtype=np.int64)
        vocab_presence = np.zeros(n_vocab, dtype=np.int64)
        class_counts = np.zeros(4, dtype=np.int64)
        multiplicities: Counter[int] = Counter()
        numbers: list[tuple[float, int]] = []
        lengths: Counter[int] = Counter()
        word_counts: Counter[int] = Counter()
        n_missing = n_contains_digit = n_contains_alpha = n_all_upper = 0
        keys = iter(self.value_counts)
        counts = iter(self.value_counts.values())
        while values := list(islice(keys, _SLICE_VALUES)):
            n = len(values)
            w = np.fromiter(islice(counts, n), dtype=np.int64, count=n)
            value_len, codes = decode(values)
            value_ids = np.repeat(np.arange(n), value_len)
            vocab_index, class_id, flags = _PROPS.lookup(codes)

            # Char group: every non-empty value, every character.
            tracked = vocab_index >= 0
            pairs = value_ids[tracked] * n_vocab + vocab_index[tracked]
            per_value = np.bincount(pairs, minlength=n * n_vocab).reshape(n, n_vocab)
            vocab_counts += w @ per_value
            vocab_presence += w @ np.minimum(per_value, 1, out=per_value)
            per_class = np.bincount(value_ids * 4 + class_id, minlength=n * 4)
            class_counts += w @ per_class.reshape(n, 4)
            nonempty = value_len > 0
            char.n_values += int(w[nonempty].sum())
            char.total_chars += int(w @ value_len)
            char.lengths.update(_histogram(value_len[nonempty], w[nonempty]))
            char.n_upper += int(
                w @ np.bincount(value_ids[(flags & _FLAG_UPPER) > 0], minlength=n)
            )

            # Stat group: empty and whitespace-only cells are missing.
            kept, n_words, has_digit, has_alpha, is_upper, candidate = value_facts(
                value_len, value_ids, flags
            )
            kept_w = w[kept]
            n_missing += int(w[~kept].sum())
            multiplicities.update(kept_w.tolist())
            lengths.update(_histogram(value_len[kept], kept_w))
            word_counts.update(_histogram(n_words[kept], kept_w))
            n_contains_digit += int(kept_w @ has_digit[kept])
            n_contains_alpha += int(kept_w @ has_alpha[kept])
            n_all_upper += int(kept_w @ is_upper[kept])
            candidates = compress(values, candidate.tolist())
            for value, count in zip(candidates, w[candidate].tolist()):
                number = _try_parse_number(value)
                if number is not None:
                    numbers.append((number, count))

        char.counts = vocab_counts.tolist()
        char.presence = vocab_presence.tolist()
        char.n_alpha, char.n_digit, char.n_space, char.n_punct = class_counts.tolist()
        stat = stat_vector(
            n_values=sum(self.value_counts.values()),
            n_missing=n_missing,
            multiplicities=multiplicities,
            numbers=numbers,
            lengths=lengths,
            word_counts=word_counts,
            n_contains_digit=n_contains_digit,
            n_contains_alpha=n_contains_alpha,
            n_all_upper=n_all_upper,
        )
        return char.finalize(), stat
