"""Vectorized featurization (the one runtime featurization path).

The reference featurizer works on one column and one value at a time in
pure Python; Table 2 of the paper shows featurization dominating serving
cost.  This module replaces those per-value loops with NumPy array
operations over *all* columns of a batch at once:

* one codepoint pass — every value of every column is joined, decoded to a
  flat ``uint32`` codepoint array, and classified through the lazily grown
  per-codepoint property table of :mod:`repro.features.codepoints` (exact
  ``str`` method semantics, cached), which the streaming accumulators'
  counted pass shares,
* batched character features — per-(value, char) counts via ``bincount`` on
  composite keys instead of nested Python loops,
* batched statistics — segment reductions (``bincount`` with weights, one
  ``lexsort`` for min/max/median) over the same flattened arrays,
* a single tokenization pass per column feeding one pooled embedding-matrix
  gather that serves both the Word and Para feature groups.

The per-value loop (``char_features`` / ``column_statistics`` /
``ColumnFeaturizer.reference_transform_columns``) stays as the reference:
every batched function here is tested ``allclose`` against it.

Examples:
    >>> import numpy as np
    >>> from repro.features import char_features
    >>> from repro.features.engine import char_features_batch
    >>> batch = char_features_batch([["Paris", "Rome"], ["12", "94"]])
    >>> np.allclose(batch[0], char_features(["Paris", "Rome"]))
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.embeddings.tokenizer import TOKEN_RE, number_shape_token
from repro.features.char_features import CHAR_FEATURE_NAMES, CHAR_VOCABULARY
from repro.features.codepoints import (
    _CLASS_ALPHA,
    _CLASS_DIGIT,
    _CLASS_PUNCT,
    _CLASS_SPACE,
    _FLAG_UPPER,
    _PROPS,
    decode,
    value_facts,
)
from repro.features.stats_features import STAT_FEATURE_NAMES, _try_parse_number
from repro.obs import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.features.featurizer import ColumnFeaturizer
    from repro.tables import Column

__all__ = [
    "VectorizedEngine",
    "char_features_batch",
    "stats_features_batch",
]


# --------------------------------------------------------------------------
# Flattened value batch
# --------------------------------------------------------------------------


@dataclass
class _ValueBatch:
    """All values of all columns of a batch, flattened into parallel arrays."""

    n_cols: int
    values: list[str]  # every value, column by column, in input order
    value_len: np.ndarray  # (n_values,) characters per value
    col_of_value: np.ndarray  # (n_values,) owning column of each value
    value_ids: np.ndarray  # (n_chars,) owning value of each character
    vocab_index: np.ndarray  # (n_chars,) index into CHAR_VOCABULARY or -1
    class_id: np.ndarray  # (n_chars,) alpha / digit / space / punct
    flags: np.ndarray  # (n_chars,) _FLAG_* bitfield


def _build_batch(value_lists: Sequence[Sequence[str]]) -> _ValueBatch:
    n_cols = len(value_lists)
    values: list[str] = []
    counts = np.zeros(n_cols, dtype=np.int64)
    for j, column_values in enumerate(value_lists):
        for value in column_values:
            values.append(value)
        counts[j] = len(column_values)
    value_len, codes = decode(values)
    col_of_value = np.repeat(np.arange(n_cols), counts)
    value_ids = np.repeat(np.arange(len(values)), value_len)
    vocab_index, class_id, flags = _PROPS.lookup(codes)
    return _ValueBatch(
        n_cols=n_cols,
        values=values,
        value_len=value_len,
        col_of_value=col_of_value,
        value_ids=value_ids,
        vocab_index=vocab_index,
        class_id=class_id,
        flags=flags,
    )


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise division that returns 0 where the denominator is 0."""
    result = np.zeros(np.broadcast(numerator, denominator).shape, dtype=np.float64)
    np.divide(numerator, denominator, out=result, where=denominator > 0)
    return result


def _segment_mean_std(
    values: np.ndarray, cols: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column count, mean and population std of segmented values."""
    counts = np.bincount(cols, minlength=n_cols).astype(np.float64)
    sums = np.bincount(cols, weights=values, minlength=n_cols)
    mean = _safe_divide(sums, counts)
    deviation = values - mean[cols]
    variance = _safe_divide(
        np.bincount(cols, weights=deviation * deviation, minlength=n_cols), counts
    )
    return counts, mean, np.sqrt(variance)


def _segment_order_stats(
    values: np.ndarray, cols: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column min, max and median of segmented values (0 when empty)."""
    minimum = np.zeros(n_cols, dtype=np.float64)
    maximum = np.zeros(n_cols, dtype=np.float64)
    median = np.zeros(n_cols, dtype=np.float64)
    if values.size == 0:
        return minimum, maximum, median
    counts = np.bincount(cols, minlength=n_cols)
    order = np.lexsort((values, cols))
    ordered = values[order].astype(np.float64, copy=False)
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    has = counts > 0
    minimum[has] = ordered[offsets[has]]
    maximum[has] = ordered[offsets[has] + counts[has] - 1]
    low = offsets[has] + (counts[has] - 1) // 2
    high = offsets[has] + counts[has] // 2
    median[has] = 0.5 * (ordered[low] + ordered[high])
    return minimum, maximum, median


# --------------------------------------------------------------------------
# Char feature group, batched
# --------------------------------------------------------------------------


def char_features_batch(value_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """Char feature vectors for many columns at once.

    Array-op replacement for calling
    :func:`~repro.features.char_features.char_features` per column: one
    codepoint pass over every value of every column, per-(value, char)
    occurrence counts via ``bincount`` on composite keys, and per-column
    segment reductions.  Matches the loop oracle to floating-point
    round-off.

    Examples:
        >>> import numpy as np
        >>> from repro.features import CHAR_FEATURE_NAMES, char_features
        >>> from repro.features.engine import char_features_batch
        >>> columns = [["alpha", "beta"], ["", "  "], []]
        >>> batch = char_features_batch(columns)
        >>> batch.shape == (3, len(CHAR_FEATURE_NAMES))
        True
        >>> all(np.allclose(row, char_features(vals))
        ...     for row, vals in zip(batch, columns))
        True
    """
    batch = _build_batch(value_lists)
    return _char_block(batch)


def _char_block(batch: _ValueBatch) -> np.ndarray:
    n_cols = batch.n_cols
    n_chars = len(CHAR_VOCABULARY)
    out = np.zeros((n_cols, len(CHAR_FEATURE_NAMES)), dtype=np.float64)
    if n_cols == 0:
        return out

    # The loop oracle keeps every non-empty value (including whitespace-only).
    nonempty = batch.value_len > 0
    n_sel = np.bincount(batch.col_of_value[nonempty], minlength=n_cols).astype(
        np.float64
    )

    col_of_char = batch.col_of_value[batch.value_ids]
    valid = batch.vocab_index >= 0

    # Mean per-value occurrence count of each tracked character.
    char_counts = np.bincount(
        col_of_char[valid] * n_chars + batch.vocab_index[valid],
        minlength=n_cols * n_chars,
    ).reshape(n_cols, n_chars)
    mean_counts = _safe_divide(char_counts, n_sel[:, None])

    # Presence rate: fraction of values containing each character at least
    # once, from the distinct (value, char) pairs of the batch.
    pair_all = batch.value_ids[valid] * np.int64(n_chars) + batch.vocab_index[valid]
    n_pairs = len(batch.values) * n_chars
    if n_pairs <= 4_000_000:
        # Dense path (caps the transient bincount at ~32 MB): count per
        # (value, char), then find the non-zero cells.
        pair_counts = np.bincount(pair_all, minlength=n_pairs)
        pair_value, pair_char = np.nonzero(
            pair_counts.reshape(len(batch.values), n_chars)
        )
    else:
        # Sparse path for huge batches: memory proportional to the number
        # of distinct pairs actually present, at a modest sort cost.
        pair_keys = np.unique(pair_all)
        pair_value, pair_char = pair_keys // n_chars, pair_keys % n_chars
    presence_counts = np.bincount(
        batch.col_of_value[pair_value] * n_chars + pair_char,
        minlength=n_cols * n_chars,
    ).reshape(n_cols, n_chars)
    presence = _safe_divide(presence_counts, n_sel[:, None])

    # Shape statistics over all characters of the column.
    class_counts = np.bincount(
        col_of_char * 4 + batch.class_id, minlength=n_cols * 4
    ).reshape(n_cols, 4)
    n_upper = np.bincount(
        col_of_char[(batch.flags & _FLAG_UPPER) > 0], minlength=n_cols
    )
    total_chars = np.maximum(1, np.bincount(col_of_char, minlength=n_cols)).astype(
        np.float64
    )
    lengths = batch.value_len[nonempty].astype(np.float64)
    length_cols = batch.col_of_value[nonempty]
    _, mean_length, std_length = _segment_mean_std(lengths, length_cols, n_cols)

    has_values = n_sel > 0
    out[:, : n_chars] = mean_counts
    out[:, n_chars : 2 * n_chars] = presence
    shape = np.column_stack(
        [
            class_counts[:, _CLASS_ALPHA] / total_chars,
            class_counts[:, _CLASS_DIGIT] / total_chars,
            class_counts[:, _CLASS_SPACE] / total_chars,
            class_counts[:, _CLASS_PUNCT] / total_chars,
            n_upper / total_chars,
            mean_length,
            std_length,
        ]
    )
    out[:, 2 * n_chars :] = np.where(has_values[:, None], shape, 0.0)
    return out


# --------------------------------------------------------------------------
# Stat feature group, batched
# --------------------------------------------------------------------------


def stats_features_batch(value_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """Stat feature vectors for many columns at once.

    Array-op replacement for calling
    :func:`~repro.features.stats_features.column_statistics` per column:
    lengths, word counts and per-value character flags come from the shared
    codepoint pass; min / max / median are one ``lexsort`` + fancy indexing;
    only the values the codepoint flags mark as number candidates are
    parsed.  Matches the loop oracle to floating-point round-off.

    Examples:
        >>> import numpy as np
        >>> from repro.features import STAT_FEATURE_NAMES, column_statistics
        >>> from repro.features.engine import stats_features_batch
        >>> columns = [["1", "2", ""], ["New York", "Boston"]]
        >>> batch = stats_features_batch(columns)
        >>> batch.shape == (2, len(STAT_FEATURE_NAMES))
        True
        >>> all(np.allclose(row, column_statistics(vals))
        ...     for row, vals in zip(batch, columns))
        True
    """
    batch = _build_batch(value_lists)
    return _stats_block(batch)


def _stats_block(batch: _ValueBatch) -> np.ndarray:
    n_cols = batch.n_cols
    out = np.zeros((n_cols, len(STAT_FEATURE_NAMES)), dtype=np.float64)
    if n_cols == 0:
        return out
    n_values_total = len(batch.values)

    # ---- per-value facts from the shared codepoint pass
    facts = value_facts(batch.value_len, batch.value_ids, batch.flags)
    keep, word_counts, contains_digit, contains_alpha, all_upper, candidate = facts
    missing = ~keep  # the loop oracle's ``not (v and v.strip())`` selection

    # ---- per-column counts and fractions
    n_values = np.bincount(batch.col_of_value, minlength=n_cols).astype(np.float64)
    n_missing = np.bincount(
        batch.col_of_value[missing], minlength=n_cols
    ).astype(np.float64)
    kept_cols = batch.col_of_value[keep]
    n_kept = np.bincount(kept_cols, minlength=n_cols).astype(np.float64)
    kept_denominator = np.maximum(1.0, n_kept)
    frac_missing = _safe_divide(n_missing, n_values)

    # ---- value-length and word-count statistics over kept values
    lengths = batch.value_len[keep].astype(np.float64)
    _, mean_length, std_length = _segment_mean_std(lengths, kept_cols, n_cols)
    min_length, max_length, median_length = _segment_order_stats(
        lengths, kept_cols, n_cols
    )
    words = word_counts[keep].astype(np.float64)
    _, mean_words, _ = _segment_mean_std(words, kept_cols, n_cols)
    max_words = np.zeros(n_cols, dtype=np.float64)
    if words.size:
        np.maximum.at(max_words, kept_cols, words)

    frac_contains_digit = _safe_divide(
        np.bincount(kept_cols[contains_digit[keep]], minlength=n_cols), n_kept
    )
    frac_contains_alpha = _safe_divide(
        np.bincount(kept_cols[contains_alpha[keep]], minlength=n_cols), n_kept
    )
    frac_all_upper = _safe_divide(
        np.bincount(kept_cols[all_upper[keep]], minlength=n_cols), n_kept
    )

    # ---- numeric parse of the number candidates only.
    values = batch.values
    parsed = np.full(n_values_total, np.nan, dtype=np.float64)
    for index in np.flatnonzero(candidate).tolist():
        number = _try_parse_number(values[index])
        if number is not None:
            parsed[index] = number

    # ---- one Python pass over kept values: value interning.  Interning
    # restarts per column (ids ordered by first occurrence within the
    # column), so downstream reductions are independent of which other
    # columns share the batch.
    keep_indices = np.nonzero(keep)[0]
    col_of_value = batch.col_of_value
    intern_ids = np.empty(len(keep_indices), dtype=np.int64)
    intern_map: dict[str, int] = {}
    max_interned = 1
    current_col = -1
    for position, index in enumerate(keep_indices):
        value = values[index]
        if col_of_value[index] != current_col:
            current_col = col_of_value[index]
            if len(intern_map) > max_interned:
                max_interned = len(intern_map)
            intern_map = {}
        value_id = intern_map.get(value)
        if value_id is None:
            value_id = len(intern_map)
            intern_map[value] = value_id
        intern_ids[position] = value_id
    if len(intern_map) > max_interned:
        max_interned = len(intern_map)
    numeric_mask = ~np.isnan(parsed)
    numbers = parsed[numeric_mask]
    number_cols = batch.col_of_value[numeric_mask]
    n_numbers, numeric_mean, numeric_std = _segment_mean_std(
        numbers, number_cols, n_cols
    )
    numeric_min, numeric_max, numeric_median = _segment_order_stats(
        numbers, number_cols, n_cols
    )
    numeric_sum = np.bincount(number_cols, weights=numbers, minlength=n_cols)
    numeric_sum_log = np.where(n_numbers > 0, np.log1p(np.abs(numeric_sum)), 0.0)
    frac_negative = _safe_divide(
        np.bincount(number_cols[numbers < 0], minlength=n_cols), n_numbers
    )
    frac_integer = _safe_divide(
        np.bincount(number_cols[numbers == np.floor(numbers)], minlength=n_cols),
        n_numbers,
    )
    frac_numeric = _safe_divide(n_numbers, kept_denominator)

    # ---- uniqueness, entropy and mode (value-identity statistics).
    # Interned value ids turn string multisets into integer pairs: one
    # unique() over (column, value id) yields, per distinct column value,
    # its occurrence count — everything else is segment reductions.
    n_unique = np.zeros(n_cols, dtype=np.float64)
    entropy = np.zeros(n_cols, dtype=np.float64)
    normalized_entropy = np.zeros(n_cols, dtype=np.float64)
    mode_frequency = np.zeros(n_cols, dtype=np.float64)
    if intern_ids.size:
        n_interned = max_interned
        pair_keys, pair_counts = np.unique(
            kept_cols * np.int64(n_interned) + intern_ids, return_counts=True
        )
        pair_col = pair_keys // n_interned
        totals = kept_denominator[pair_col]
        shares = pair_counts / totals
        entropy = -np.bincount(
            pair_col, weights=shares * np.log(shares + 1e-12), minlength=n_cols
        )
        unique_counts = np.bincount(pair_col, minlength=n_cols)
        n_unique = unique_counts.astype(np.float64)
        multi = unique_counts > 1
        normalized_entropy[multi] = entropy[multi] / np.log(
            unique_counts[multi] + 1e-12
        )
        mode_counts = np.zeros(n_cols, dtype=np.int64)
        np.maximum.at(mode_counts, pair_col, pair_counts)
        mode_frequency = mode_counts / kept_denominator
        entropy[unique_counts == 0] = 0.0

    frac_unique = _safe_divide(n_unique, kept_denominator)

    out[:, 0] = n_values
    out[:, 1] = n_missing
    out[:, 2] = frac_missing
    out[:, 3] = n_unique
    out[:, 4] = frac_unique
    out[:, 5] = entropy
    out[:, 6] = normalized_entropy
    out[:, 7] = frac_numeric
    out[:, 8] = numeric_mean
    out[:, 9] = numeric_std
    out[:, 10] = numeric_min
    out[:, 11] = numeric_max
    out[:, 12] = numeric_median
    out[:, 13] = numeric_sum_log
    out[:, 14] = frac_negative
    out[:, 15] = frac_integer
    out[:, 16] = mean_length
    out[:, 17] = std_length
    out[:, 18] = min_length
    out[:, 19] = max_length
    out[:, 20] = median_length
    out[:, 21] = mean_words
    out[:, 22] = max_words
    out[:, 23] = frac_contains_digit
    out[:, 24] = frac_contains_alpha
    out[:, 25] = frac_all_upper
    out[:, 26] = mode_frequency
    # The loop oracle returns straight zeros for empty columns; the squash
    # below maps 0 -> 0, so the same rows stay zero here.
    return np.sign(out) * np.log1p(np.abs(out))


# --------------------------------------------------------------------------
# The engine: full feature matrix
# --------------------------------------------------------------------------


class VectorizedEngine:
    """Batched featurization bound to one fitted featurizer.

    Computes the raw (unstandardized) feature matrix for a batch of columns
    with one flattened codepoint pass (Char + Stat groups), one tokenization
    pass and one pooled embedding gather (Word + Para groups).  The engine
    memoizes token lookups and codepoint properties across calls, so
    steady-state serving traffic skips all per-token dictionary churn.

    Examples:
        >>> import numpy as np
        >>> from repro.corpus import CorpusConfig, CorpusGenerator
        >>> from repro.features import ColumnFeaturizer
        >>> tables = CorpusGenerator(CorpusConfig(n_tables=4, seed=0)).generate()
        >>> columns = [c for t in tables for c in t.columns]
        >>> featurizer = ColumnFeaturizer(word_dim=8, para_dim=4).fit(tables)
        >>> loop = featurizer.reference_transform_columns(columns)
        >>> vectorized = featurizer.transform_columns(columns)
        >>> np.allclose(loop, vectorized, rtol=1e-6, atol=1e-9)
        True
    """

    #: Cap on the token -> (id, idf) memo; cleared on overflow so serving
    #: high-cardinality text columns forever cannot grow memory unboundedly.
    TOKEN_MEMO_LIMIT = 1 << 17

    def __init__(self, featurizer: "ColumnFeaturizer") -> None:
        self.featurizer = featurizer
        self._token_memo: dict[str, tuple[int, float]] = {}

    def transform(self, columns: Sequence["Column"]) -> np.ndarray:
        """Raw (unstandardized) feature matrix for a batch of columns."""
        value_lists = [column.values for column in columns]
        # Kernel-level spans: the codepoint pass, the scalar stats block and
        # the embedding gathers are the candidates for compiled backends, so
        # each is timed separately under the parent ``featurize`` span.
        with span("featurize.char", n_columns=len(columns)):
            batch = _build_batch(value_lists)
            char_block = _char_block(batch)
        with span("featurize.stats"):
            stat_block = _stats_block(batch)
        with span("featurize.embed"):
            word_block, para_block = self._embedding_block(value_lists)
        return np.concatenate([char_block, word_block, para_block, stat_block], axis=1)

    def _token_info(self, token: str) -> tuple[int, float]:
        info = self._token_memo.get(token)
        if info is None:
            token_id = self.featurizer.word_model.vocabulary.get(token)
            info = (
                -1 if token_id is None else token_id,
                self.featurizer.paragraph_embedder.idf_weight(token),
            )
            if len(self._token_memo) >= self.TOKEN_MEMO_LIMIT:
                self._token_memo.clear()
            self._token_memo[token] = info
        return info

    def _embedding_block(
        self, value_lists: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        featurizer = self.featurizer
        n_cols = len(value_lists)
        word_dim = featurizer.word_model.dim
        max_tokens = featurizer.max_tokens_per_column
        # Gather straight from the embedding matrix: it may be a read-only
        # shared-memory view (one physical copy across a serving fleet), so
        # the engine must not materialise a private extended copy of it.
        vectors = featurizer.word_model.vectors
        if vectors is None:
            raise RuntimeError("word embedding model is not fitted")

        ids: list[int] = []
        weights: list[float] = []
        token_counts = np.zeros(n_cols, dtype=np.int64)
        token_info = self._token_info
        findall = TOKEN_RE.findall
        for j, column_values in enumerate(value_lists):
            # One tokenization pass per column over the joined lowered text:
            # "\n" never matches a token, so value boundaries are preserved,
            # and lowercasing the joined text yields the same [a-z0-9] runs
            # as lowercasing each value (ASCII case folding is context-free).
            tokens = findall("\n".join(column_values).lower())
            if len(tokens) > max_tokens:
                tokens = tokens[:max_tokens]
            token_counts[j] = len(tokens)
            for piece in tokens:
                token_id, weight = token_info(
                    number_shape_token(piece) if piece.isdigit() else piece
                )
                ids.append(token_id)
                weights.append(weight)

        word = np.zeros((n_cols, word_dim), dtype=np.float64)
        para_raw = np.zeros((n_cols, word_dim), dtype=np.float64)
        n_tokens = len(ids)
        if n_tokens:
            id_array = np.array(ids, dtype=np.int64)
            weight_array = np.array(weights, dtype=np.float64)
            col_of_token = np.repeat(np.arange(n_cols), token_counts)
            # Out-of-vocabulary tokens (id -1) keep their zero rows, exactly
            # like the former explicit OOV row of an extended matrix.
            in_vocab = id_array >= 0
            gathered = np.zeros((n_tokens, word_dim), dtype=np.float64)
            if vectors.size:
                gathered[in_vocab] = vectors[id_array[in_vocab]]

            # Segment sums via reduceat over the token-bearing columns only:
            # dropping empty segments keeps every offset strictly increasing
            # and in range, so no column's segment is ever truncated.
            offsets = np.concatenate([[0], np.cumsum(token_counts)])[:-1]
            has_tokens = token_counts > 0
            token_offsets = offsets[has_tokens]

            # Word group: mean of in-vocabulary vectors (OOV rows are the
            # zero row, so summing all tokens equals summing valid ones).
            n_valid = np.bincount(
                col_of_token[in_vocab], minlength=n_cols
            ).astype(np.float64)
            word_sums = np.zeros((n_cols, gathered.shape[1]), dtype=np.float64)
            word_sums[has_tokens] = np.add.reduceat(gathered, token_offsets, axis=0)
            word = _safe_divide(word_sums, n_valid[:, None])

            # Para group: idf-weighted mean (every token contributes weight,
            # exactly like the sequential loop accumulator).
            weighted = gathered * weight_array[:, None]
            para_sums = np.zeros((n_cols, gathered.shape[1]), dtype=np.float64)
            para_sums[has_tokens] = np.add.reduceat(weighted, token_offsets, axis=0)
            total_weight = np.bincount(
                col_of_token, weights=weight_array, minlength=n_cols
            )
            para_raw = _safe_divide(para_sums, total_weight[:, None])

        projection = featurizer.paragraph_embedder.projection
        if projection is None:
            return word, para_raw
        return word, (para_raw @ projection).astype(np.float64, copy=False)
