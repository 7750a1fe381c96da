"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

This is the offline replacement for gensim's LDA: documents (tables) are
random mixtures of latent topics, topics are distributions over tokens, and
inference integrates out the multinomial parameters and samples topic
assignments directly.  Training keeps per-topic/token and per-document/topic
count matrices; inference for unseen documents runs a short Gibbs chain with
the topic-token counts frozen.

Each Gibbs step draws its new topic the way ``Generator.choice(p=...)``
does internally: one uniform, then a right-side search of the normalised
cumulative weights.  :meth:`LatentDirichletAllocation.transform_many` runs
many inference chains side by side on exactly those draws, so every
document's vector is bit-identical to :meth:`LatentDirichletAllocation.transform`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topic.dictionary import Dictionary

__all__ = ["LatentDirichletAllocation"]

#: Most documents one pass of :meth:`LatentDirichletAllocation.transform_many`
#: runs side by side.  A pass holds sweeps x positions x documents uniforms,
#: so the cap bounds the memory of corpus-wide calls (training, analysis).
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
    """Collapsed-Gibbs LDA.

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
                    vocabulary_size, rng, update_topics=True,
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
        update_topics: bool,
    ) -> None:
        beta_sum = self.beta * vocabulary_size
        for position in range(tokens.size):
            token = tokens[position]
            old_topic = topics[position]
            doc_topic_row[old_topic] -= 1
            if update_topics:
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
            if update_topics:
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
        # Zero-copy: inference runs :meth:`_gibbs_sweep` with
        # ``update_topics=False``, which only *reads* the count matrices, so
        # they can safely be non-writeable shared-memory views (one copy of
        # the topic model for a whole serving fleet).
        self.topic_token_counts = np.asarray(
            state["topic_token_counts"], dtype=np.float64
        )
        self.topic_counts = np.asarray(state["topic_counts"], dtype=np.float64)
        self._fitted = True

    # ------------------------------------------------------------- inference

    def transform(self, document: Sequence[str]) -> np.ndarray:
        """Infer the topic distribution of one tokenised document."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None
        assert self.topic_token_counts is not None and self.topic_counts is not None
        tokens = np.array(self.dictionary.doc2ids(document), dtype=np.int64)
        if tokens.size == 0:
            return np.full(self.n_topics, 1.0 / self.n_topics)
        rng = np.random.default_rng(self.seed + 1)
        topics = rng.integers(0, self.n_topics, size=tokens.size)
        doc_topic_row = np.zeros(self.n_topics, dtype=np.float64)
        for topic in topics:
            doc_topic_row[topic] += 1
        vocabulary_size = max(1, len(self.dictionary))
        # Average the document-topic counts over the second half of the
        # chain: a single final sweep is a high-variance sample, and that
        # variance would leak straight into the topic features.
        accumulated = np.zeros(self.n_topics, dtype=np.float64)
        n_accumulated = 0
        burn_in = max(1, self.infer_iterations // 2)
        for iteration in range(self.infer_iterations):
            self._gibbs_sweep(
                tokens, topics, doc_topic_row,
                self.topic_token_counts, self.topic_counts,
                vocabulary_size, rng, update_topics=False,
            )
            if iteration >= burn_in:
                accumulated += doc_topic_row
                n_accumulated += 1
        if n_accumulated == 0:
            accumulated, n_accumulated = doc_topic_row, 1
        distribution = accumulated / n_accumulated + self.alpha
        return distribution / distribution.sum()

    def transform_many(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Infer topic distributions for several documents at once.

        Row ``i`` is bit-identical to ``transform(documents[i])``, whatever
        else the call holds.  The chains run position-synchronously: each
        vectorised step advances every document still running by one token,
        and each document replays :meth:`transform`'s own random stream.
        """
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None
        assert self.topic_token_counts is not None and self.topic_counts is not None
        n_topics = self.n_topics
        ids = [
            np.array(self.dictionary.doc2ids(d), dtype=np.int64) for d in documents
        ]
        vectors = np.full((len(ids), n_topics), 1.0 / n_topics)
        live = [i for i, tokens in enumerate(ids) if tokens.size]
        if not live:
            return vectors
        # phi row r holds (n_kw + beta) / (n_k + V beta) of token vocabulary[r],
        # the same elementwise arithmetic as _gibbs_sweep's.
        vocabulary, inverse = np.unique(
            np.concatenate([ids[i] for i in live]), return_inverse=True
        )
        beta_sum = self.beta * max(1, len(self.dictionary))
        phi = np.ascontiguousarray((
            (self.topic_token_counts[:, vocabulary] + self.beta)
            / (self.topic_counts[:, None] + beta_sum)
        ).T)
        ends = np.cumsum([ids[i].size for i in live])
        rows = dict(zip(live, np.split(inverse, ends[:-1])))
        # The chain draws an integer instead of a uniform when a weight sum
        # is not positive and finite, which shifts the rest of the stream.
        # With alpha > 0 and every phi of a document positive, every weight
        # phi_k * (count_k + alpha) is positive, and their sum stays below
        # n_topics * (length + alpha) * max phi; while twice that (a margin
        # for rounding) is finite, the fallback never happens.  Other
        # documents run transform.
        positive = (phi > 0).all(axis=1)
        peak = phi.max(axis=1)
        batched = []
        for i in live:
            bound = 2.0 * n_topics * (ids[i].size + self.alpha) * peak[rows[i]].max()
            if self.alpha > 0 and positive[rows[i]].all() and np.isfinite(bound):
                batched.append(i)
            else:
                vectors[i] = self.transform(documents[i])
        # Longest first: the documents still running at any position are a
        # prefix, so every step works on slices.
        batched.sort(key=lambda i: -ids[i].size)
        for start in range(0, len(batched), _DOCUMENTS_PER_PASS):
            chunk = batched[start:start + _DOCUMENTS_PER_PASS]
            vectors[chunk] = self._infer_side_by_side(phi, [rows[i] for i in chunk])
        return vectors

    def _infer_side_by_side(
        self, phi: np.ndarray, documents: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Run :meth:`transform`'s chain for each document, one position per step.

        ``documents`` hold rows of ``phi``, longest first.  Each document
        draws its initial topics and then one uniform per step from its own
        ``default_rng(seed + 1)``, as :meth:`transform` does, and each step
        draws with :func:`_draw`'s arithmetic, so the result is bit-identical.
        """
        n_topics, sweeps, alpha = self.n_topics, self.infer_iterations, self.alpha
        lengths = np.array([document.size for document in documents])
        n_docs, longest = lengths.size, int(lengths[0])
        token_rows = np.zeros((longest, n_docs), dtype=np.int64)
        topics = np.zeros((longest, n_docs), dtype=np.int64)
        uniforms = np.zeros((sweeps, longest, n_docs))
        doc_topic = np.zeros((n_docs, n_topics))
        for d, document in enumerate(documents):
            rng = np.random.default_rng(self.seed + 1)
            topics[:document.size, d] = rng.integers(0, n_topics, size=document.size)
            uniforms[:, :document.size, d] = rng.random((sweeps, document.size))
            token_rows[:document.size, d] = document
            doc_topic[d] = np.bincount(topics[:document.size, d], minlength=n_topics)
        running = (lengths > np.arange(longest)[:, None]).sum(axis=1).tolist()
        # Past the second-longest document only the first one runs; a
        # one-document step there is cheaper than a batched step of one.
        shared = int(lengths[1]) if n_docs > 1 else 0
        cells = np.arange(n_docs) * n_topics
        counts = doc_topic.reshape(-1)
        first = doc_topic[0]
        accumulated = np.zeros_like(doc_topic)
        n_accumulated = 0
        burn_in = max(1, sweeps // 2)
        for sweep in range(sweeps):
            draws = uniforms[sweep]
            for position in range(shared):
                active = running[position]
                counts[cells[:active] + topics[position, :active]] -= 1
                weights = phi.take(token_rows[position, :active], axis=0)
                weights *= doc_topic[:active] + alpha
                weights /= weights.sum(axis=1, keepdims=True)
                # _draw per row: the index right of every cdf entry <= u.
                np.cumsum(weights, axis=1, out=weights)
                weights /= weights[:, -1:]
                new = (weights > draws[position, :active, None]).argmax(axis=1)
                topics[position, :active] = new
                counts[cells[:active] + new] += 1
            for position in range(shared, longest):
                first[topics[position, 0]] -= 1
                weights = phi[token_rows[position, 0]] * (first + alpha)
                new_topic = _draw(weights / weights.sum(), draws[position, 0])
                topics[position, 0] = new_topic
                first[new_topic] += 1
            if sweep >= burn_in:
                accumulated += doc_topic
                n_accumulated += 1
        if n_accumulated == 0:
            accumulated, n_accumulated = doc_topic, 1
        distribution = accumulated / n_accumulated + alpha
        return distribution / distribution.sum(axis=1, keepdims=True)

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
