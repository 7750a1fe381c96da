"""Tests for the topic modelling substrate (dictionary, LDA, intent, analysis)."""

import numpy as np
import pytest

import repro.embeddings.tokenizer as tokenizer_module
import repro.topic.intent as intent_module
from repro.embeddings import tokenize, tokenize_values
from repro.serving import Predictor
from repro.tables import Column, Table
from repro.topic import (
    Dictionary,
    LatentDirichletAllocation,
    TableIntentEstimator,
    top_salient_topics,
    topic_saliency,
    topic_type_distribution,
)


def _documents():
    sports = [["team", "score", "goal", "win", "league"] for _ in range(15)]
    finance = [["stock", "price", "market", "share", "profit"] for _ in range(15)]
    return sports + finance


class TestDictionary:
    def test_fit_and_lookup(self):
        dictionary = Dictionary(no_below=1).fit([["a", "b"], ["a", "c"]])
        assert "a" in dictionary
        assert len(dictionary) >= 2

    def test_no_below_filters_rare(self):
        dictionary = Dictionary(no_below=2).fit([["a", "b"], ["a", "c"]])
        assert "a" in dictionary
        assert "b" not in dictionary

    def test_no_above_filters_ubiquitous(self):
        documents = [["the", f"w{i}"] for i in range(10)]
        dictionary = Dictionary(no_below=1, no_above=0.5).fit(documents)
        assert "the" not in dictionary

    def test_doc2bow(self):
        dictionary = Dictionary(no_below=1).fit([["a", "b", "a"]])
        bow = dict(dictionary.doc2bow(["a", "a", "b", "zzz"]))
        assert bow[dictionary.token_to_id["a"]] == 2
        assert len(bow) == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Dictionary(no_below=0)
        with pytest.raises(ValueError):
            Dictionary(no_above=0.0)

    def test_max_size(self):
        documents = [[f"w{i}" for i in range(50)]] * 2
        dictionary = Dictionary(no_below=1, max_size=10).fit(documents)
        assert len(dictionary) == 10


class TestLDA:
    @pytest.fixture(scope="class")
    def fitted(self):
        return LatentDirichletAllocation(n_topics=4, n_iterations=20, seed=0).fit(_documents())

    def test_transform_is_distribution(self, fitted):
        vector = fitted.transform(["team", "goal", "win"])
        assert vector.shape == (4,)
        assert vector.sum() == pytest.approx(1.0)
        assert np.all(vector >= 0)

    def test_empty_document_uniform(self, fitted):
        vector = fitted.transform([])
        assert np.allclose(vector, 0.25)

    def test_related_documents_have_similar_topics(self, fitted):
        sports_a = fitted.transform(["team", "goal", "league"])
        sports_b = fitted.transform(["win", "score", "team"])
        finance = fitted.transform(["stock", "market", "profit"])
        sim_same = float(sports_a @ sports_b)
        sim_diff = float(sports_a @ finance)
        assert sim_same > sim_diff

    def test_topic_top_tokens(self, fitted):
        tokens = fitted.topic_top_tokens(0, k=3)
        assert len(tokens) <= 3
        assert all(isinstance(t, str) for t in tokens)

    def test_topic_word_distribution_normalised(self, fitted):
        distribution = fitted.topic_word_distribution()
        assert np.allclose(distribution.sum(axis=1), 1.0)

    def test_transform_many_shape(self, fitted):
        matrix = fitted.transform_many([["team"], ["stock"]])
        assert matrix.shape == (2, 4)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LatentDirichletAllocation(n_topics=3).transform(["a"])

    def test_invalid_topics(self):
        for kwargs in (
            {"n_topics": 0}, {"alpha": -0.5}, {"beta": -0.001}, {"infer_iterations": 0}
        ):
            with pytest.raises(ValueError):
                LatentDirichletAllocation(**kwargs)

    def test_deterministic_given_seed(self):
        a = LatentDirichletAllocation(n_topics=3, n_iterations=10, seed=1).fit(_documents())
        b = LatentDirichletAllocation(n_topics=3, n_iterations=10, seed=1).fit(_documents())
        assert np.array_equal(a.transform(["team", "goal"]), b.transform(["team", "goal"]))
        assert np.array_equal(a.topic_token_counts, b.topic_token_counts)

    def test_m_step_keeps_every_token_count(self):
        # Repeated tokens weigh their responsibilities; "unseen" and the
        # empty document carry no dictionary token.
        documents = _documents() + [["team", "team", "goal", "unseen"], []]
        lda = LatentDirichletAllocation(n_topics=3, n_iterations=4, seed=2)
        dictionary = Dictionary(no_below=2).fit(documents)
        lda.fit(documents, dictionary=dictionary)
        assert np.array_equal(lda.topic_counts, lda.topic_token_counts.sum(axis=1))
        n_tokens = sum(len(dictionary.doc2ids(d)) for d in documents)
        assert lda.topic_counts.sum() == pytest.approx(n_tokens, rel=1e-12)


_WORDS = [f"w{i}" for i in range(120)]


def _corpus():
    """Random documents over ``_WORDS``; every word is in the dictionary."""
    rs = np.random.default_rng(0)
    documents = [
        [_WORDS[j] for j in rs.integers(0, len(_WORDS), size=rs.integers(3, 40))]
        for _ in range(40)
    ]
    return documents + [list(_WORDS), list(_WORDS)]


def _batch(n_docs):
    """A 512-token document, a 1-token one, an empty one, one of unknown
    tokens only, then random lengths (some empty)."""
    rs = np.random.default_rng(1)
    documents = [
        [_WORDS[j] for j in rs.integers(0, len(_WORDS), size=512)],
        ["w1"],
        [],
        ["never-seen", "also-unknown"],
    ]
    while len(documents) < n_docs:
        length = int(rs.integers(0, 60))
        documents.append([_WORDS[j] for j in rs.integers(0, len(_WORDS), size=length)])
    return documents[:n_docs]


def _with_sweeps(lda, infer_iterations):
    clone = LatentDirichletAllocation(
        n_topics=lda.n_topics, infer_iterations=infer_iterations, seed=lda.seed
    )
    clone.load_state_dict(lda.state_dict())
    return clone


class TestBatchedInference:
    """``transform_many`` is bit-identical to ``transform``, row by row."""

    @pytest.fixture(scope="class")
    def fitted_by_topics(self):
        return {
            k: LatentDirichletAllocation(n_topics=k, n_iterations=3, seed=5).fit(
                _corpus()
            )
            for k in (2, 24, 400)
        }

    @pytest.mark.parametrize("n_docs", [1, 2, 7, 64, 130])
    def test_matches_transform_alone_and_in_a_batch(self, fitted_by_topics, n_docs):
        lda = _with_sweeps(fitted_by_topics[24], 2)
        documents = _batch(n_docs)
        expected = np.stack([lda.transform(d) for d in documents])
        assert np.array_equal(lda.transform_many(documents), expected)
        alone = np.stack([lda.transform_many([d])[0] for d in documents])
        assert np.array_equal(alone, expected)

    @pytest.mark.parametrize("infer_iterations", [1, 2, 15])
    @pytest.mark.parametrize("n_topics", [2, 24, 400])
    def test_matches_transform_across_topics_and_sweeps(
        self, fitted_by_topics, n_topics, infer_iterations
    ):
        lda = _with_sweeps(fitted_by_topics[n_topics], infer_iterations)
        documents = _batch(7)
        expected = np.stack([lda.transform(d) for d in documents])
        assert np.array_equal(lda.transform_many(documents), expected)

    @pytest.mark.parametrize(
        "n_topics, alpha, beta, corpus",
        [
            pytest.param(5, 0.0, 0.0, _corpus(), id="0.0-0.0"),
            pytest.param(5, 0.0, 0.01, _corpus(), id="0.0-0.01"),
            pytest.param(5, 0.1, 0.0, _corpus(), id="0.1-0.0"),
            # Two documents over 50 topics: most topics get no token, so
            # phi is 0 / 0 for them under beta = 0.
            pytest.param(
                50, None, 0.0, [["a", "b", "c"], ["a", "b"]], id="empty-topics"
            ),
        ],
    )
    def test_degenerate_priors_stay_finite(self, n_topics, alpha, beta, corpus):
        lda = LatentDirichletAllocation(
            n_topics=n_topics, alpha=alpha, beta=beta, n_iterations=3,
            infer_iterations=4,
        ).fit(corpus)
        documents = _batch(7) + [["a", "b", "c"], ["a"], ["c", "c", "b"]]
        batch = lda.transform_many(documents)
        assert np.isfinite(batch).all()
        assert np.allclose(batch.sum(axis=1), 1.0)
        alone = np.stack([lda.transform(d) for d in documents])
        assert np.array_equal(batch, alone)
        # Topics without tokens explain nothing; the others still inform.
        known = [bool(lda.dictionary.doc2ids(d)) for d in documents]
        assert any(known)
        assert (np.ptp(batch[known], axis=1) > 0).all()

    def test_token_no_topic_explains_spreads_uniformly(self):
        documents = [["a", "b"], ["a", "c"], ["b", "c"]]
        # "orphan" is in the dictionary but in no fitted document, so under
        # beta = 0 every topic gives it zero weight.
        dictionary = Dictionary(no_below=1).fit(documents + [["orphan"]])
        lda = LatentDirichletAllocation(
            n_topics=4, alpha=0.0, beta=0.0, n_iterations=3, infer_iterations=4
        ).fit(documents, dictionary=dictionary)
        batch = lda.transform_many([["orphan"], ["orphan", "a"], ["a"]])
        assert np.isfinite(batch).all()
        assert np.allclose(batch.sum(axis=1), 1.0)
        assert np.allclose(batch[0], 0.25)
        assert np.array_equal(batch[1], lda.transform(["orphan", "a"]))

    def test_empty_call(self, fitted_by_topics):
        assert fitted_by_topics[2].transform_many([]).shape == (0, 2)


class TestPredictorTopics:
    """The serving path infers each micro-batch's misses in one call."""

    @pytest.mark.parametrize("store", [False, True])
    def test_batch_topics_match_the_per_table_chain(
        self, trained_sato, serving_split, tmp_path, store
    ):
        _, tables = serving_split
        intent = trained_sato.column_model.intent_estimator
        expected = np.concatenate([
            np.tile(intent.topic_vector(t), (t.n_columns, 1))
            for t in tables if t.n_columns
        ])
        labels = [trained_sato.predict_table(t) for t in tables]
        # Cold, then (with the store on) a fresh predictor served from the store.
        for _ in range(2):
            predictor = Predictor(
                trained_sato, sketch_store=tmp_path / "store" if store else None
            )
            assert np.array_equal(predictor._batch_topics(tables), expected)
            assert predictor.predict_tables(tables) == labels
            predictor.close()

    def test_table_repeated_within_a_batch_is_inferred_once(
        self, trained_sato, serving_split, tmp_path, monkeypatch
    ):
        _, tables = serving_split
        a, b = [t for t in tables if t.n_columns][:2]
        intent = trained_sato.column_model.intent_estimator
        inferred = []
        topic_vectors = intent.topic_vectors
        monkeypatch.setattr(
            intent,
            "topic_vectors",
            lambda ts: inferred.append(len(ts)) or topic_vectors(ts),
        )
        predictor = Predictor(trained_sato, sketch_store=tmp_path / "store")
        labels = predictor.predict_tables([a, b, a])
        assert inferred == [2]
        assert labels == [trained_sato.predict_table(t) for t in (a, b, a)]
        info = predictor.cache_info()
        assert info["topic_hits"] + info["topic_misses"] == 3
        # One store read per distinct column and per distinct table.
        columns = {c.fingerprint for t in (a, b) for c in t.columns}
        assert info["sketch_store"]["misses"] == len(columns) + 2
        predictor.close()


class TestIntentEstimator:
    @pytest.fixture(scope="class")
    def estimator(self, corpus_small):
        estimator = TableIntentEstimator(n_topics=6, n_iterations=6, infer_iterations=6, seed=0)
        estimator.fit([t.without_headers() for t in corpus_small[:60]])
        return estimator

    # Note: the fixture request for corpus_small at class scope works because
    # corpus_small is session-scoped.

    def test_topic_vector_is_distribution(self, estimator, corpus_small):
        vector = estimator.topic_vector(corpus_small[0])
        assert vector.shape == (6,)
        assert vector.sum() == pytest.approx(1.0)

    def test_topic_vectors_batch(self, estimator, corpus_small):
        matrix = estimator.topic_vectors(corpus_small[:4])
        assert matrix.shape == (4, 6)
        expected = np.stack([estimator.topic_vector(t) for t in corpus_small[:4]])
        assert np.array_equal(matrix, expected)

    def test_unfitted_raises(self, corpus_small):
        estimator = TableIntentEstimator(n_topics=4)
        with pytest.raises(RuntimeError):
            estimator.topic_vector(corpus_small[0])

    @pytest.mark.parametrize("cap", [512, 7])
    def test_table_document_is_the_capped_token_prefix(self, corpus_small, cap):
        estimator = TableIntentEstimator(n_topics=4, max_tokens_per_table=cap)
        for table in corpus_small:
            values = [v for column in table.columns for v in column.values if v.strip()]
            assert estimator.table_document(table) == tokenize_values(values)[:cap]

    def test_table_document_stops_tokenizing_at_the_cap(self, monkeypatch):
        values = ["" if i % 3 == 0 else f"Springfield {i}" for i in range(100_000)]
        table = Table(columns=[Column(values=values), Column(values=["Rome"])])
        estimator = TableIntentEstimator(n_topics=4)
        cap = estimator.max_tokens_per_table
        expected = tokenize_values([v for v in values if v.strip()])[:cap]
        tokenized = []
        for module in (tokenizer_module, intent_module):
            monkeypatch.setattr(
                module,
                "tokenize",
                lambda value: tokenized.append(value) or tokenize(value),
                raising=False,
            )
        assert estimator.table_document(table) == expected
        assert len(tokenized) <= cap

    def test_table_document_ignores_headers(self, estimator):
        table = Table(
            columns=[Column(values=["Paris", "Rome"], header="city", semantic_type="city")]
        )
        document = estimator.table_document(table)
        assert "city" not in document
        assert "paris" in document


class TestTopicAnalysis:
    @pytest.fixture(scope="class")
    def setup(self, corpus_small):
        estimator = TableIntentEstimator(n_topics=5, n_iterations=6, infer_iterations=5, seed=0)
        tables = [t for t in corpus_small if t.n_columns > 1][:40]
        estimator.fit([t.without_headers() for t in tables])
        return estimator, tables

    def test_type_topic_distribution_shape(self, setup):
        estimator, tables = setup
        matrix = topic_type_distribution(estimator, tables)
        assert matrix.shape == (78, 5)
        assert np.all(matrix >= 0)

    def test_saliency_scores(self, setup):
        estimator, tables = setup
        matrix = topic_type_distribution(estimator, tables)
        saliency = topic_saliency(matrix, k=3)
        assert saliency.shape == (5,)
        assert np.all(saliency >= 0)

    def test_top_salient_topics(self, setup):
        estimator, tables = setup
        summaries = top_salient_topics(estimator, tables, n_topics=3, k_types=4)
        assert len(summaries) == 3
        assert summaries[0].saliency >= summaries[-1].saliency
        for summary in summaries:
            assert len(summary.top_types) == 4
