"""Latent Dirichlet Allocation: one EM E-step for fit and inference.

This is the offline replacement for gensim's LDA: documents (tables) are
random mixtures of latent topics, and topics are distributions over tokens.
As in gensim, fit and inference are deterministic variational EM (Hoffman,
Blei & Bach, NeurIPS 2010), and they share one E-step, ``_fold_in``.

The E-step holds ``phi_kw = (n_kw + beta) / (n_k + V beta)`` fixed and
iterates each document's ``theta`` ``infer_iterations`` times from uniform:
``r_wk`` proportional to ``phi_kw theta_k`` (normalised over topics), then
``theta_k = (sum_w n_w r_wk + alpha) / (N + K alpha)`` for a document of
``N`` tokens, ``n_w`` of them ``w``.  Every reduction runs over one
document's own rows, so a vector is bit-identical alone or in any batch.
Inference is that E-step against the fitted counts.  :meth:`fit` starts
from one uniformly random topic per token; each of its ``n_iterations`` EM
iterations runs the E-step over every training document, then the M-step
sets ``n_kw`` to the summed expected counts ``n_w r_wk``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topic.dictionary import Dictionary

__all__ = ["LatentDirichletAllocation"]

#: Most documents one inference pass holds.  A pass works on one row per
#: distinct token of each document, and its working set is two arrays of
#: (rows in the pass) x ``n_topics`` floats: at most 64 x 512 x ``n_topics``
#: each for table documents of ``max_tokens_per_table = 512``.  The cap
#: bounds the memory of corpus-wide calls (training, analysis).
_DOCUMENTS_PER_PASS = 64


class LatentDirichletAllocation:
    """LDA fitted and inferred by variational EM with one shared E-step.

    Parameters
    ----------
    n_topics:
        Number of latent topics (the paper uses 400; tests use far fewer).
    alpha:
        Symmetric Dirichlet prior on the document-topic distribution.
    beta:
        Symmetric Dirichlet prior on the topic-token distribution.
    n_iterations:
        EM iterations of :meth:`fit`, each one E-step over every training
        document and one M-step.
    infer_iterations:
        Fixed-point steps of each E-step, in fit and inference alike (at
        least 1).
    seed:
        Seeds the random topic per token that :meth:`fit` starts from.
    """

    def __init__(
        self,
        n_topics: int = 50,
        alpha: float | None = None,
        beta: float = 0.01,
        n_iterations: int = 30,
        infer_iterations: int = 15,
        seed: int = 0,
    ) -> None:
        if n_topics < 1:
            raise ValueError("n_topics must be positive")
        if (alpha is not None and alpha < 0) or beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if infer_iterations < 1:
            # An E-step of no steps computes no responsibilities.
            raise ValueError("infer_iterations must be at least 1")
        self.n_topics = n_topics
        # A sparse document-topic prior keeps the inferred table-intent
        # distributions peaky (tables express one or two intents, not a
        # smooth mixture of dozens), which makes the topic features far more
        # discriminative than the classic 50/K heuristic on short documents.
        self.alpha = alpha if alpha is not None else min(0.1, 5.0 / n_topics)
        self.beta = beta
        self.n_iterations = n_iterations
        self.infer_iterations = infer_iterations
        self.seed = seed
        self.dictionary: Dictionary | None = None
        self.topic_token_counts: np.ndarray | None = None
        self.topic_counts: np.ndarray | None = None
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    # -------------------------------------------------------------- training

    def fit(
        self,
        documents: Sequence[Sequence[str]],
        dictionary: Dictionary | None = None,
    ) -> "LatentDirichletAllocation":
        """Train the topic model on tokenised documents by EM."""
        documents = [list(d) for d in documents]
        self.dictionary = dictionary or Dictionary().fit(documents)
        rng = np.random.default_rng(self.seed)
        ids = [self.dictionary.doc2ids(d) for d in documents]
        # Start from one uniformly random topic per token.
        counts = np.zeros((self.n_topics, max(1, len(self.dictionary))))
        for tokens in ids:
            np.add.at(counts, (rng.integers(0, self.n_topics, len(tokens)), tokens), 1)
        live = [tokens for tokens in ids if tokens]
        for _ in range(self.n_iterations):
            # The E-step reads the current counts; the M-step sums the
            # expected counts into the next ones.
            self.topic_token_counts, self.topic_counts = counts, counts.sum(axis=1)
            counts = np.zeros_like(counts)
            for start in range(0, len(live), _DOCUMENTS_PER_PASS):
                chunk = live[start:start + _DOCUMENTS_PER_PASS]
                _, tokens, expected = self._fold_in(chunk)
                np.add.at(counts.T, tokens, expected)
        self.topic_token_counts, self.topic_counts = counts, counts.sum(axis=1)
        self._fitted = True
        return self

    # -------------------------------------------------------- serialisation

    def config_dict(self) -> dict:
        """JSON-serialisable constructor configuration."""
        return {
            "n_topics": self.n_topics,
            "alpha": self.alpha,
            "beta": self.beta,
            "n_iterations": self.n_iterations,
            "infer_iterations": self.infer_iterations,
            "seed": self.seed,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable fitted state: count matrices + dictionary order."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None
        assert self.topic_token_counts is not None and self.topic_counts is not None
        return {
            "tokens": np.array(self.dictionary.id_to_token, dtype=np.str_),
            "topic_token_counts": self.topic_token_counts.copy(),
            "topic_counts": self.topic_counts.copy(),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.dictionary = Dictionary.from_tokens(state["tokens"].tolist())
        # Zero-copy: inference only *reads* the count matrices, so they can
        # safely be non-writeable shared-memory views (one copy of the topic
        # model for a whole serving fleet).
        self.topic_token_counts = np.asarray(
            state["topic_token_counts"], dtype=np.float64
        )
        self.topic_counts = np.asarray(state["topic_counts"], dtype=np.float64)
        self._fitted = True

    # ------------------------------------------------------------- inference

    def transform(self, document: Sequence[str]) -> np.ndarray:
        """Infer the topic distribution of one tokenised document."""
        return self.transform_many([document])[0]

    def transform_many(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Infer topic distributions for several documents at once.

        Row ``i`` is bit-identical to ``transform(documents[i])``, whatever
        else the call holds.  Documents without a dictionary token stay
        uniform.
        """
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None
        ids = [self.dictionary.doc2ids(d) for d in documents]
        vectors = np.full((len(ids), self.n_topics), 1.0 / self.n_topics)
        live = [i for i, tokens in enumerate(ids) if tokens]
        for start in range(0, len(live), _DOCUMENTS_PER_PASS):
            chunk = live[start:start + _DOCUMENTS_PER_PASS]
            vectors[chunk] = self._fold_in([ids[i] for i in chunk])[0]
        return vectors

    def _fold_in(self, documents: Sequence[list[int]]) -> tuple[np.ndarray, ...]:
        """EM fold-in of non-empty documents of token ids, one row per distinct token.

        Every step is elementwise or sums one row (over topics) or one
        document's own rows (``np.add.reduceat``): never an axis padded to
        the longest document, whose length would change the rounding of
        pairwise summation.  Returns each document's ``theta``, then each
        row's token and its last step's expected topic counts ``n_w r_wk``.
        """
        n_topics, alpha = self.n_topics, self.alpha
        distinct = [np.unique(d, return_counts=True) for d in documents]
        tokens = np.concatenate([token for token, _ in distinct])
        counts = np.concatenate([count for _, count in distinct]).astype(np.float64)
        rows = [token.size for token, _ in distinct]
        owner = np.repeat(np.arange(len(documents)), rows)
        starts = np.cumsum(rows) - rows
        totals = np.array([[len(d) + n_topics * alpha] for d in documents])

        # phi row r: (n_kw + beta) / (n_k + V beta) of token tokens[r].  Under
        # beta = 0 a topic without tokens has phi = 0 / 0: it explains nothing.
        denominator = self.topic_counts + self.beta * max(1, len(self.dictionary))
        phi = self.topic_token_counts.T[tokens]
        phi += self.beta
        phi /= np.where(denominator > 0, denominator, 1.0)

        theta = np.full((len(documents), n_topics), 1.0 / n_topics)
        responsibility = np.empty_like(phi)
        for _ in range(self.infer_iterations):
            np.take(theta, owner, axis=0, out=responsibility, mode="clip")
            responsibility *= phi
            norm = responsibility.sum(axis=1)
            if not norm.all():
                # A row no topic explains (possible under beta = 0) spreads
                # its count uniformly.
                dead = norm == 0
                responsibility[dead] = 1.0
                norm[dead] = n_topics
            responsibility *= (counts / norm)[:, None]
            theta = np.add.reduceat(responsibility, starts, axis=0)
            theta += alpha
            theta /= totals
        return theta, tokens, responsibility

    def topic_top_tokens(self, topic: int, k: int = 10) -> list[str]:
        """Most probable tokens of a topic."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None and self.topic_token_counts is not None
        order = np.argsort(-self.topic_token_counts[topic])
        return [self.dictionary.id_to_token[i] for i in order[:k] if i < len(self.dictionary)]

    def topic_word_distribution(self) -> np.ndarray:
        """The (n_topics, vocabulary) topic-token probability matrix."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.topic_token_counts is not None
        counts = self.topic_token_counts + self.beta
        return counts / counts.sum(axis=1, keepdims=True)
