"""Latent Dirichlet Allocation: collapsed Gibbs fit, EM fold-in inference.

This is the offline replacement for gensim's LDA: documents (tables) are
random mixtures of latent topics, and topics are distributions over tokens.
:meth:`LatentDirichletAllocation.fit` samples topic assignments with the
multinomial parameters integrated out, keeping topic/token count matrices.

Inference is deterministic, like gensim's variational fixed point (Hoffman,
Blei & Bach, NeurIPS 2010).  ``phi_kw = (n_kw + beta) / (n_k + V beta)``
stays frozen, and each document's ``theta`` is iterated
``infer_iterations`` times from uniform: ``r_wk`` proportional to
``phi_kw theta_k`` (normalised over topics), then
``theta_k = (sum_w n_w r_wk + alpha) / (N + K alpha)`` for a document of
``N`` tokens, ``n_w`` of them ``w``.  Every reduction runs over one
document's own rows, so a vector is bit-identical alone or in any batch.
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


def _draw(p: np.ndarray, uniform: float) -> int:
    """The index ``rng.choice(len(p), p=p)`` returns for the uniform ``uniform``.

    These are the three steps ``Generator.choice`` takes internally, so a
    caller that draws ``uniform`` with ``rng.random()`` consumes the same
    stream and gets the same index, bit for bit.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(uniform, side="right"))


class LatentDirichletAllocation:
    """LDA fitted by collapsed Gibbs sampling, inferred by EM fold-in.

    Parameters
    ----------
    n_topics:
        Number of latent topics (the paper uses 400; tests use far fewer).
    alpha:
        Symmetric Dirichlet prior on the document-topic distribution.
    beta:
        Symmetric Dirichlet prior on the topic-token distribution.
    n_iterations:
        Gibbs sweeps over the corpus during :meth:`fit`.
    infer_iterations:
        Fixed-point iterations per document during inference.
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
        """Train the topic model on tokenised documents."""
        documents = [list(d) for d in documents]
        self.dictionary = dictionary or Dictionary().fit(documents)
        vocabulary_size = max(1, len(self.dictionary))
        rng = np.random.default_rng(self.seed)

        doc_tokens = [np.array(self.dictionary.doc2ids(d), dtype=np.int64) for d in documents]
        assignments = [
            rng.integers(0, self.n_topics, size=tokens.size) for tokens in doc_tokens
        ]

        topic_token = np.zeros((self.n_topics, vocabulary_size), dtype=np.float64)
        topic_totals = np.zeros(self.n_topics, dtype=np.float64)
        doc_topic = np.zeros((len(documents), self.n_topics), dtype=np.float64)
        for d, (tokens, topics) in enumerate(zip(doc_tokens, assignments)):
            for token, topic in zip(tokens, topics):
                topic_token[topic, token] += 1
                topic_totals[topic] += 1
                doc_topic[d, topic] += 1

        for _ in range(self.n_iterations):
            for d, (tokens, topics) in enumerate(zip(doc_tokens, assignments)):
                self._gibbs_sweep(
                    tokens, topics, doc_topic[d], topic_token, topic_totals,
                    vocabulary_size, rng,
                )

        self.topic_token_counts = topic_token
        self.topic_counts = topic_totals
        self._fitted = True
        return self

    def _gibbs_sweep(
        self,
        tokens: np.ndarray,
        topics: np.ndarray,
        doc_topic_row: np.ndarray,
        topic_token: np.ndarray,
        topic_totals: np.ndarray,
        vocabulary_size: int,
        rng: np.random.Generator,
    ) -> None:
        """Resample every topic assignment of one training document."""
        beta_sum = self.beta * vocabulary_size
        for position in range(tokens.size):
            token = tokens[position]
            old_topic = topics[position]
            doc_topic_row[old_topic] -= 1
            topic_token[old_topic, token] -= 1
            topic_totals[old_topic] -= 1

            weights = (
                (topic_token[:, token] + self.beta)
                / (topic_totals + beta_sum)
                * (doc_topic_row + self.alpha)
            )
            weights_sum = weights.sum()
            if weights_sum <= 0 or not np.isfinite(weights_sum):
                new_topic = int(rng.integers(0, self.n_topics))
            else:
                new_topic = _draw(weights / weights_sum, rng.random())

            topics[position] = new_topic
            doc_topic_row[new_topic] += 1
            topic_token[new_topic, token] += 1
            topic_totals[new_topic] += 1

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
            vectors[chunk] = self._fold_in([ids[i] for i in chunk])
        return vectors

    def _fold_in(self, documents: Sequence[list[int]]) -> np.ndarray:
        """EM fold-in of non-empty documents of token ids, one row per distinct token.

        Every step is elementwise or sums one row (over topics) or one
        document's own rows (``np.add.reduceat``): never an axis padded to
        the longest document, whose length would change the rounding of
        pairwise summation.
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
        return theta

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
