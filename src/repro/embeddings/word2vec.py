"""Count-based word embeddings (PPMI + truncated SVD).

This substitutes for the pre-trained GloVe vectors used by Sherlock's Word
features.  Positive pointwise mutual information over a sliding co-occurrence
window followed by a truncated SVD is a classical, well-understood way to
obtain dense distributional vectors (Levy & Goldberg showed it approximates
skip-gram with negative sampling), and it trains in seconds on the corpus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.embeddings.vocabulary import Vocabulary

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["WordEmbeddingModel"]


class WordEmbeddingModel:
    """Train and query dense word vectors from tokenised documents.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    window:
        Symmetric co-occurrence window size.
    min_count:
        Minimum token frequency for inclusion in the vocabulary.
    max_vocab:
        Cap on vocabulary size (most frequent tokens kept).
    """

    def __init__(
        self,
        dim: int = 50,
        window: int = 4,
        min_count: int = 2,
        max_vocab: int | None = 20000,
        seed: int = 0,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        if window < 1:
            raise ValueError("window must be positive")
        self.dim = dim
        self.window = window
        self.min_count = min_count
        self.max_vocab = max_vocab
        self.seed = seed
        self.vocabulary: Vocabulary | None = None
        self.vectors: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.vectors is not None

    def fit(self, documents: Iterable[Sequence[str]]) -> "WordEmbeddingModel":
        """Train embeddings from tokenised documents."""
        documents = [list(doc) for doc in documents]
        self.vocabulary = Vocabulary.from_documents(
            documents, min_count=self.min_count, max_size=self.max_vocab
        )
        n_tokens = len(self.vocabulary)
        if n_tokens == 0:
            self.vectors = np.zeros((0, self.dim), dtype=np.float64)
            return self
        cooc = self._cooccurrence(documents, n_tokens)
        ppmi = self._ppmi(cooc)
        self.vectors = self._factorize(ppmi, n_tokens)
        return self

    def _cooccurrence(
        self, documents: list[list[str]], n_tokens: int
    ) -> sparse.csr_matrix:
        # scipy is imported by the fit helpers only: loading a fitted model
        # (every serving process) never needs it.
        from scipy import sparse

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        assert self.vocabulary is not None
        for document in documents:
            ids = self.vocabulary.encode(document)
            length = len(ids)
            for i, center in enumerate(ids):
                upper = min(length, i + self.window + 1)
                for j in range(i + 1, upper):
                    weight = 1.0 / (j - i)
                    rows.append(center)
                    cols.append(ids[j])
                    data.append(weight)
                    rows.append(ids[j])
                    cols.append(center)
                    data.append(weight)
        matrix = sparse.coo_matrix(
            (data, (rows, cols)), shape=(n_tokens, n_tokens), dtype=np.float64
        )
        return matrix.tocsr()

    @staticmethod
    def _ppmi(cooc: sparse.csr_matrix) -> sparse.csr_matrix:
        from scipy import sparse

        total = cooc.sum()
        if total == 0:
            return cooc
        row_sums = np.asarray(cooc.sum(axis=1)).ravel()
        col_sums = np.asarray(cooc.sum(axis=0)).ravel()
        cooc = cooc.tocoo()
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.log(
                (cooc.data * total)
                / (row_sums[cooc.row] * col_sums[cooc.col])
            )
        pmi[~np.isfinite(pmi)] = 0.0
        pmi = np.maximum(pmi, 0.0)
        result = sparse.coo_matrix((pmi, (cooc.row, cooc.col)), shape=cooc.shape)
        result.eliminate_zeros()
        return result.tocsr()

    def _factorize(self, ppmi: sparse.csr_matrix, n_tokens: int) -> np.ndarray:
        k = min(self.dim, max(1, min(ppmi.shape) - 1))
        if ppmi.nnz == 0 or k < 1:
            return np.zeros((n_tokens, self.dim), dtype=np.float64)
        from scipy.sparse.linalg import svds

        try:
            u, s, _ = svds(ppmi, k=k, random_state=self.seed)
        except Exception:
            dense = ppmi.toarray()
            u, s, _ = np.linalg.svd(dense, full_matrices=False)
            u, s = u[:, :k], s[:k]
        # svds returns singular values in ascending order; flip for stability.
        order = np.argsort(-s)
        u, s = u[:, order], s[order]
        vectors = u * np.sqrt(np.maximum(s, 0.0))
        if vectors.shape[1] < self.dim:
            pad = np.zeros((n_tokens, self.dim - vectors.shape[1]))
            vectors = np.hstack([vectors, pad])
        return vectors.astype(np.float64)

    # -------------------------------------------------------- serialisation

    def config_dict(self) -> dict:
        """JSON-serialisable constructor configuration."""
        return {
            "dim": self.dim,
            "window": self.window,
            "min_count": self.min_count,
            "max_vocab": self.max_vocab,
            "seed": self.seed,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable fitted state (vocabulary order + vectors)."""
        if not self.is_fitted:
            raise RuntimeError("embedding model is not fitted")
        assert self.vocabulary is not None and self.vectors is not None
        return {
            "tokens": np.array(list(self.vocabulary), dtype=np.str_),
            "vectors": self.vectors.copy(),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.vocabulary = Vocabulary.from_tokens(
            state["tokens"].tolist(), min_count=self.min_count, max_size=self.max_vocab
        )
        # Zero-copy on purpose: serving loads this state as read-only views
        # into a shared-memory store (one physical copy for a whole worker
        # fleet), and inference never writes the vectors.  Refitting simply
        # rebinds the attribute to fresh arrays.
        self.vectors = np.asarray(state["vectors"], dtype=np.float64)

    def vector(self, token: str) -> np.ndarray:
        """Return the vector of a token (zeros when out of vocabulary)."""
        if not self.is_fitted:
            raise RuntimeError("embedding model is not fitted")
        assert self.vocabulary is not None and self.vectors is not None
        token_id = self.vocabulary.get(token)
        if token_id is None:
            return np.zeros(self.dim, dtype=np.float64)
        return self.vectors[token_id]

    def mean_vector(self, tokens: Sequence[str]) -> np.ndarray:
        """Mean vector of in-vocabulary tokens (zeros when none are known)."""
        if not self.is_fitted:
            raise RuntimeError("embedding model is not fitted")
        assert self.vocabulary is not None and self.vectors is not None
        ids = self.vocabulary.encode(tokens)
        if not ids:
            return np.zeros(self.dim, dtype=np.float64)
        return self.vectors[ids].mean(axis=0)

    def most_similar(self, token: str, k: int = 5) -> list[tuple[str, float]]:
        """Nearest neighbours of a token by cosine similarity."""
        if not self.is_fitted:
            raise RuntimeError("embedding model is not fitted")
        assert self.vocabulary is not None and self.vectors is not None
        token_id = self.vocabulary.get(token)
        if token_id is None:
            return []
        query = self.vectors[token_id]
        norms = np.linalg.norm(self.vectors, axis=1) * (np.linalg.norm(query) + 1e-12)
        sims = self.vectors @ query / np.maximum(norms, 1e-12)
        order = np.argsort(-sims)
        results = []
        for index in order:
            if index == token_id:
                continue
            results.append((self.vocabulary.token(int(index)), float(sims[index])))
            if len(results) >= k:
                break
        return results
