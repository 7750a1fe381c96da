"""Layout helpers for batched model-core inference.

``SatoModel.predict_tables`` serves a whole micro-batch of tables through
one column-network forward pass and one structured decode:

* **Forward** — every column of every table is flattened onto one *column
  axis*, featurized in a single batched call and pushed through the column
  network as one matrix, so each layer is one matmul over
  ``sum(n_columns)`` rows regardless of how many tables the batch holds;
  :func:`split_by_table` cuts the score matrix back into one slice per
  table.
* **Decode** — :func:`pad_unaries` packs the per-table score matrices into
  a padded ``(n_tables, max_cols, n_types)`` log-unary tensor plus a
  ``lengths`` vector, and :meth:`~repro.crf.LinearChainCRF.viterbi_batch`
  decodes every chain simultaneously with length masking: one vectorised
  recurrence step per column *position* instead of per column.  Padded
  positions are never read, so the pad value is irrelevant.

The per-table loop (``SatoModel.predict_table``) is kept as the bit-exact
parity oracle: for the same fitted model the batched path produces the same
decoded labels, including on 1-column tables and tie-breaking unaries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tables import Table

__all__ = ["pad_unaries", "split_by_table"]

#: The epsilon of every ``log(p + eps)`` unary; ``repro.models.sato`` uses
#: this one constant, so batched log-unaries are bit-identical to the
#: per-table path's.
_LOG_EPS = 1e-12


def split_by_table(rows: np.ndarray, tables: Sequence[Table]) -> list[np.ndarray]:
    """Split a column-axis row matrix back into one slice per table.

    Inverse of flattening a batch of tables onto the column axis: ``rows``
    holds one row per column of every table, in table order; the returned
    views carry ``tables[i].n_columns`` rows each.

    Examples:
        >>> import numpy as np
        >>> from repro.tables import Column, Table
        >>> one = Table(columns=[Column(values=["a"])])
        >>> two = Table(columns=[Column(values=["b"]), Column(values=["c"])])
        >>> parts = split_by_table(np.arange(3)[:, None], [one, two])
        >>> [part.ravel().tolist() for part in parts]
        [[0], [1, 2]]
    """
    split: list[np.ndarray] = []
    offset = 0
    for table in tables:
        split.append(rows[offset : offset + table.n_columns])
        offset += table.n_columns
    return split


def pad_unaries(
    probabilities: Sequence[np.ndarray], n_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-table score matrices into a padded log-unary tensor.

    Parameters
    ----------
    probabilities:
        One ``(n_columns, n_states)`` column-wise score matrix per table.
    n_states:
        Number of semantic types (the tensor's last axis).

    Returns
    -------
    ``(unaries, lengths)`` where ``unaries`` has shape ``(n_tables,
    max_cols, n_states)`` holding ``log(p + eps)`` in real positions and
    zeros in padding, and ``lengths`` holds each table's true column count.
    The scatter is fully vectorised: one concatenation, one ``log`` over
    every real row, one fancy-indexed assignment.

    Examples:
        >>> import numpy as np
        >>> unaries, lengths = pad_unaries(
        ...     [np.full((1, 2), 0.5), np.full((3, 2), 0.25)], n_states=2
        ... )
        >>> unaries.shape, lengths.tolist()
        ((2, 3, 2), [1, 3])
        >>> bool(np.all(unaries[0, 1:] == 0.0))  # padding rows stay zero
        True
        >>> bool(np.allclose(unaries[1], np.log(0.25 + 1e-12)))
        True
    """
    lengths = np.array([p.shape[0] for p in probabilities], dtype=np.int64)
    n_tables = len(lengths)
    max_cols = int(lengths.max()) if n_tables else 0
    unaries = np.zeros((n_tables, max_cols, n_states), dtype=np.float64)
    total = int(lengths.sum())
    if total:
        flat = np.concatenate([np.asarray(p, dtype=np.float64) for p in probabilities])
        rows = np.repeat(np.arange(n_tables), lengths)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        positions = np.arange(total) - starts
        unaries[rows, positions] = np.log(flat + _LOG_EPS)
    return unaries, lengths
