"""Linear-chain CRF with exact inference.

For a table with columns ``c_1 .. c_m`` and candidate types ``t_1 .. t_m``:

.. math::

    P(t | c) = \\frac{1}{Z(c)} \\exp\\Big(\\sum_i \\psi_{UNI}(t_i, c_i)
               + \\sum_i \\psi_{PAIR}(t_i, t_{i+1})\\Big)

``Z`` is computed exactly with the forward algorithm (log-sum-exp), the MAP
sequence with Viterbi, and pairwise/unary marginals with forward-backward —
all in log-space for numerical stability.
"""

from __future__ import annotations

import numpy as np

from repro.obs import span

__all__ = ["LinearChainCRF"]


def _log_dot(log_vector: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``log(exp(log_vector) @ matrix)`` for a matrix of non-negative weights.

    The vector is shifted by its maximum before it is exponentiated (by 0
    when that maximum is not finite, so an all ``-inf`` vector gives
    ``-inf``).  NumPy only: ``scipy.special.logsumexp`` spends most of a
    call this small in array-API dispatch.
    """
    peak = np.max(log_vector)
    if not np.isfinite(peak):
        peak = 0.0
    return np.log(np.exp(log_vector - peak) @ matrix) + peak


class LinearChainCRF:
    """Linear-chain CRF over semantic-type sequences.

    Parameters
    ----------
    n_states:
        Number of semantic types.
    pairwise:
        Optional initial pairwise potential matrix of shape
        ``(n_states, n_states)``; defaults to zeros.
    unary_weight:
        Scalar multiplier applied to unary potentials (fixed to 1 in the
        paper's setting; exposed for ablations).
    """

    def __init__(
        self,
        n_states: int,
        pairwise: np.ndarray | None = None,
        unary_weight: float = 1.0,
    ) -> None:
        if n_states < 1:
            raise ValueError("n_states must be positive")
        self.n_states = n_states
        if pairwise is None:
            pairwise = np.zeros((n_states, n_states), dtype=np.float64)
        pairwise = np.asarray(pairwise, dtype=np.float64)
        if pairwise.shape != (n_states, n_states):
            raise ValueError("pairwise matrix has wrong shape")
        self.pairwise = pairwise.copy()
        self.unary_weight = float(unary_weight)

    # ----------------------------------------------------------- inference

    def _check_unary(self, unary: np.ndarray) -> np.ndarray:
        unary = np.asarray(unary, dtype=np.float64)
        if unary.ndim != 2 or unary.shape[1] != self.n_states:
            raise ValueError(
                f"unary potentials must have shape (m, {self.n_states})"
            )
        return self.unary_weight * unary

    def log_partition(self, unary: np.ndarray) -> float:
        """Log of the normalisation constant Z(c) via the forward algorithm."""
        return self.forward_backward(unary)[2]

    def score(self, unary: np.ndarray, labels: np.ndarray) -> float:
        """Unnormalised log-score of a label sequence."""
        unary = self._check_unary(unary)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != unary.shape[0]:
            raise ValueError("labels and unary lengths differ")
        total = float(unary[np.arange(unary.shape[0]), labels].sum())
        for a, b in zip(labels, labels[1:]):
            total += float(self.pairwise[a, b])
        return total

    def log_likelihood(self, unary: np.ndarray, labels: np.ndarray) -> float:
        """Log-probability of the gold label sequence."""
        return self.score(unary, labels) - self.log_partition(unary)

    def forward_backward(self, unary: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Forward and backward log-messages and the log-partition.

        Each message is one log-space product with ``exp(pairwise -
        shift)``, ``shift`` the largest potential, so a step exponentiates
        ``n_states`` values instead of ``n_states ** 2``.  That is exact up
        to rounding while no pairwise potential lies more than about 700
        below the largest, where its weight would underflow to 0.
        """
        unary = self._check_unary(unary)
        m = unary.shape[0]
        shift = np.max(self.pairwise)
        if not np.isfinite(shift):
            shift = 0.0
        transition = np.exp(self.pairwise - shift)
        alpha = np.zeros((m, self.n_states))
        beta = np.zeros((m, self.n_states))
        alpha[0] = unary[0]
        with np.errstate(divide="ignore"):
            for i in range(1, m):
                alpha[i] = unary[i] + shift + _log_dot(alpha[i - 1], transition)
            for i in range(m - 2, -1, -1):
                beta[i] = shift + _log_dot(unary[i + 1] + beta[i + 1], transition.T)
            log_z = float(_log_dot(alpha[m - 1], np.ones(self.n_states)))
        return alpha, beta, log_z

    def marginals(self, unary: np.ndarray) -> np.ndarray:
        """Per-column posterior marginals P(t_i | c)."""
        alpha, beta, log_z = self.forward_backward(unary)
        return np.exp(alpha + beta - log_z)

    def pairwise_marginals(self, unary: np.ndarray) -> np.ndarray:
        """Posterior pairwise marginals P(t_i, t_{i+1} | c), shape (m-1, S, S)."""
        scaled = self._check_unary(unary)
        alpha, beta, log_z = self.forward_backward(unary)
        m = scaled.shape[0]
        result = np.zeros((max(0, m - 1), self.n_states, self.n_states))
        for i in range(m - 1):
            log_joint = (
                alpha[i][:, None]
                + self.pairwise
                + (scaled[i + 1] + beta[i + 1])[None, :]
                - log_z
            )
            result[i] = np.exp(log_joint)
        return result

    def viterbi(self, unary: np.ndarray) -> np.ndarray:
        """MAP decoding of the most probable type sequence."""
        unary = self._check_unary(unary)
        m = unary.shape[0]
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        delta = unary[0].copy()
        backpointers = np.zeros((m, self.n_states), dtype=np.int64)
        for i in range(1, m):
            scores = delta[:, None] + self.pairwise
            backpointers[i] = np.argmax(scores, axis=0)
            delta = unary[i] + scores[backpointers[i], np.arange(self.n_states)]
        best = np.zeros(m, dtype=np.int64)
        best[m - 1] = int(np.argmax(delta))
        for i in range(m - 2, -1, -1):
            best[i] = backpointers[i + 1, best[i + 1]]
        return best

    def viterbi_batch(
        self, unaries: np.ndarray, lengths: np.ndarray
    ) -> list[np.ndarray]:
        """MAP-decode many chains at once over a padded unary tensor.

        Parameters
        ----------
        unaries:
            Padded unary potentials of shape ``(n_tables, max_cols,
            n_states)``.  Row ``b`` carries the real potentials of table
            ``b`` in positions ``0 .. lengths[b]-1``; padded positions are
            never read, so their fill value is irrelevant (zeros, ``nan``
            and ``-inf`` all decode identically).
        lengths:
            Per-table chain lengths, shape ``(n_tables,)``.

        Returns
        -------
        One int64 label array per table, trimmed to its true length and
        bit-identical to calling :meth:`viterbi` on that table's own
        ``(lengths[b], n_states)`` slice: the recurrence maxima and the
        backtrace use ``argmax`` over the same state axis in the same
        order, so even tie-breaking matches the per-table loop exactly.

        The recurrence runs one vectorised step per column position across
        every table simultaneously (``max(lengths)`` steps total instead of
        ``sum(lengths)``), with finished chains carrying their final
        ``delta`` forward unchanged (length masking).
        """
        with span("decode.viterbi", n_chains=len(unaries)):
            return self._viterbi_batch_impl(unaries, lengths)

    def _viterbi_batch_impl(
        self, unaries: np.ndarray, lengths: np.ndarray
    ) -> list[np.ndarray]:
        unaries = np.asarray(unaries, dtype=np.float64)
        if unaries.ndim != 3 or unaries.shape[2] != self.n_states:
            raise ValueError(
                f"unaries must have shape (n_tables, max_cols, {self.n_states})"
            )
        lengths = np.asarray(lengths, dtype=np.int64)
        n_tables, max_cols, _ = unaries.shape
        if lengths.shape != (n_tables,):
            raise ValueError("lengths must have one entry per table")
        if n_tables and (lengths.min() < 0 or lengths.max() > max_cols):
            raise ValueError("lengths must lie in [0, max_cols]")
        if n_tables == 0:
            return []
        max_len = int(lengths.max())
        if max_len == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(n_tables)]

        scaled = self.unary_weight * unaries
        # delta[b] is table b's running Viterbi scores; rows whose chain has
        # already ended simply stop being updated (length masking), so padded
        # positions — whatever their fill value, zeros or NaN — are never
        # read.  Scores are laid out as [chain, next, prev] (the transposed
        # pairwise matrix) so both reductions run over the contiguous last
        # axis, and each step only computes the chains still active at that
        # position.
        delta = scaled[:, 0].copy()
        pairwise_t = np.ascontiguousarray(self.pairwise.T)
        backpointers = np.zeros((n_tables, max_len, self.n_states), dtype=np.int64)
        for i in range(1, max_len):
            active = np.flatnonzero(lengths > i)
            d = delta if active.size == n_tables else delta[active]
            scores = d[:, None, :] + pairwise_t[None, :, :]
            pointers = np.argmax(scores, axis=2)
            best = np.take_along_axis(scores, pointers[:, :, None], axis=2)[:, :, 0]
            if active.size == n_tables:
                backpointers[:, i] = pointers
                delta = scaled[:, i] + best
            else:
                backpointers[active, i] = pointers
                delta[active] = scaled[active, i] + best

        labels = np.zeros((n_tables, max_len), dtype=np.int64)
        last = np.maximum(lengths - 1, 0)
        labels[np.arange(n_tables), last] = np.argmax(delta, axis=1)
        for i in range(max_len - 2, -1, -1):
            follow = i < lengths - 1  # position i+1 is real, its pointer valid
            nxt = backpointers[np.arange(n_tables), i + 1, labels[:, i + 1]]
            labels[:, i] = np.where(follow, nxt, labels[:, i])
        return [labels[b, : lengths[b]].copy() for b in range(n_tables)]

    # ------------------------------------------------------------ learning

    def gradients(self, unary: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Gradient of the log-likelihood with respect to the pairwise matrix.

        Equals observed adjacent-pair counts minus expected counts under the
        model's posterior (the classic CRF moment-matching gradient).
        """
        labels = np.asarray(labels, dtype=np.int64)
        grad = np.zeros_like(self.pairwise)
        for a, b in zip(labels, labels[1:]):
            grad[a, b] += 1.0
        if labels.shape[0] > 1:
            grad -= self.pairwise_marginals(unary).sum(axis=0)
        return grad

    # -------------------------------------------------------- serialisation

    def config_dict(self) -> dict:
        """JSON-serialisable constructor configuration."""
        return {"n_states": self.n_states, "unary_weight": self.unary_weight}

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable state."""
        return {
            "pairwise": self.pairwise.copy(),
            "unary_weight": np.array([self.unary_weight]),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.pairwise = np.asarray(state["pairwise"], dtype=np.float64).copy()
        if "unary_weight" in state:
            self.unary_weight = float(np.asarray(state["unary_weight"]).ravel()[0])

    @classmethod
    def from_cooccurrence(
        cls,
        cooccurrence: np.ndarray,
        scale: float = 1.0,
        smoothing: float = 1.0,
    ) -> "LinearChainCRF":
        """Initialise pairwise potentials from adjacent co-occurrence counts.

        The paper initialises the CRF pairwise parameters with the column
        co-occurrence matrix computed from a held-out WebTables sample; log
        counts keep the potentials on the same scale as log-probability
        unaries.
        """
        cooccurrence = np.asarray(cooccurrence, dtype=np.float64)
        pairwise = scale * np.log(cooccurrence + smoothing)
        pairwise -= pairwise.mean()
        return cls(n_states=cooccurrence.shape[0], pairwise=pairwise)
