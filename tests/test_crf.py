"""Tests for the linear-chain CRF: exact inference checked against brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crf import CRFTrainer, CRFTrainingExample, LinearChainCRF


def brute_force_log_partition(crf: LinearChainCRF, unary: np.ndarray) -> float:
    scores = []
    m = unary.shape[0]
    for labels in itertools.product(range(crf.n_states), repeat=m):
        scores.append(crf.score(unary, np.array(labels)))
    return float(np.logaddexp.reduce(scores))


def brute_force_viterbi(crf: LinearChainCRF, unary: np.ndarray) -> np.ndarray:
    best_score, best_labels = -np.inf, None
    m = unary.shape[0]
    for labels in itertools.product(range(crf.n_states), repeat=m):
        score = crf.score(unary, np.array(labels))
        if score > best_score:
            best_score, best_labels = score, np.array(labels)
    return best_labels


def random_crf(n_states, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return LinearChainCRF(n_states, pairwise=rng.normal(scale=scale, size=(n_states, n_states)))


class TestConstruction:
    def test_invalid_states(self):
        with pytest.raises(ValueError):
            LinearChainCRF(0)

    def test_wrong_pairwise_shape(self):
        with pytest.raises(ValueError):
            LinearChainCRF(3, pairwise=np.zeros((2, 2)))

    def test_unary_shape_checked(self):
        crf = LinearChainCRF(3)
        with pytest.raises(ValueError):
            crf.log_partition(np.zeros((2, 4)))

    def test_from_cooccurrence(self):
        cooccurrence = np.array([[0.0, 10.0], [10.0, 2.0]])
        crf = LinearChainCRF.from_cooccurrence(cooccurrence)
        assert crf.pairwise[0, 1] > crf.pairwise[0, 0]


class TestExactInference:
    @settings(max_examples=25, deadline=None)
    @given(
        n_states=st.integers(min_value=2, max_value=4),
        length=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_partition_matches_brute_force(self, n_states, length, seed):
        crf = random_crf(n_states, seed)
        unary = np.random.default_rng(seed + 1).normal(size=(length, n_states))
        assert crf.log_partition(unary) == pytest.approx(
            brute_force_log_partition(crf, unary), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n_states=st.integers(min_value=2, max_value=4),
        length=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_viterbi_matches_brute_force(self, n_states, length, seed):
        crf = random_crf(n_states, seed)
        unary = np.random.default_rng(seed + 2).normal(size=(length, n_states))
        expected = brute_force_viterbi(crf, unary)
        observed = crf.viterbi(unary)
        assert crf.score(unary, observed) == pytest.approx(crf.score(unary, expected))

    def test_forward_backward_consistency(self):
        crf = random_crf(5, seed=3)
        unary = np.random.default_rng(4).normal(size=(6, 5))
        alpha, beta, log_z = crf.forward_backward(unary)
        # Every position must reproduce the same log-partition.
        from scipy.special import logsumexp

        for i in range(unary.shape[0]):
            assert logsumexp(alpha[i] + beta[i]) == pytest.approx(log_z)

    def test_marginals_sum_to_one(self):
        crf = random_crf(4, seed=5)
        unary = np.random.default_rng(6).normal(size=(5, 4))
        marginals = crf.marginals(unary)
        assert marginals.shape == (5, 4)
        assert np.allclose(marginals.sum(axis=1), 1.0)
        assert np.all(marginals >= 0)

    def test_pairwise_marginals_consistent_with_unary_marginals(self):
        crf = random_crf(3, seed=7)
        unary = np.random.default_rng(8).normal(size=(4, 3))
        marginals = crf.marginals(unary)
        pairwise = crf.pairwise_marginals(unary)
        assert pairwise.shape == (3, 3, 3)
        assert np.allclose(pairwise.sum(axis=(1, 2)), 1.0)
        # Marginalising the pairwise distribution must recover the unaries.
        assert np.allclose(pairwise[0].sum(axis=1), marginals[0], atol=1e-9)
        assert np.allclose(pairwise[0].sum(axis=0), marginals[1], atol=1e-9)

    def test_log_likelihood_is_negative_log_probability(self):
        crf = random_crf(3, seed=9)
        unary = np.random.default_rng(10).normal(size=(3, 3))
        total = 0.0
        for labels in itertools.product(range(3), repeat=3):
            total += np.exp(crf.log_likelihood(unary, np.array(labels)))
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_forbidden_transitions_and_wide_potentials_match_brute_force(self):
        rng = np.random.default_rng(12)
        pairwise = rng.normal(scale=100.0, size=(3, 3))
        pairwise[0, 1] = -np.inf  # a forbidden transition carries no weight
        crf = LinearChainCRF(3, pairwise=pairwise)
        unary = rng.normal(scale=50.0, size=(4, 3))
        log_z = brute_force_log_partition(crf, unary)
        assert crf.log_partition(unary) == pytest.approx(log_z, rel=1e-9, abs=1e-9)
        expected = np.zeros((4, 3))
        for labels in itertools.product(range(3), repeat=4):
            weight = np.exp(crf.score(unary, np.array(labels)) - log_z)
            expected[np.arange(4), labels] += weight
        np.testing.assert_allclose(crf.marginals(unary), expected, atol=1e-12)

    def test_single_column_table(self):
        crf = random_crf(4, seed=11)
        unary = np.array([[0.1, 2.0, -1.0, 0.3]])
        assert crf.viterbi(unary).tolist() == [1]
        assert crf.log_partition(unary) == pytest.approx(
            float(np.logaddexp.reduce(unary[0]))
        )

    def test_empty_sequence_viterbi(self):
        crf = LinearChainCRF(3)
        assert crf.viterbi(np.zeros((0, 3))).size == 0

    def test_strong_pairwise_changes_decoding(self):
        # Unary prefers (0, 0); a strong pairwise coupling prefers (0, 1).
        unary = np.array([[2.0, 0.0], [0.5, 0.0]])
        weak = LinearChainCRF(2)
        assert weak.viterbi(unary).tolist() == [0, 0]
        strong = LinearChainCRF(2, pairwise=np.array([[0.0, 5.0], [0.0, 0.0]]))
        assert strong.viterbi(unary).tolist() == [0, 1]


class TestGradients:
    def test_gradient_matches_numerical(self):
        crf = random_crf(3, seed=12, scale=0.5)
        unary = np.random.default_rng(13).normal(size=(4, 3))
        labels = np.array([0, 2, 1, 0])
        analytic = crf.gradients(unary, labels)
        numeric = np.zeros_like(crf.pairwise)
        eps = 1e-6
        for i in range(3):
            for j in range(3):
                original = crf.pairwise[i, j]
                crf.pairwise[i, j] = original + eps
                upper = crf.log_likelihood(unary, labels)
                crf.pairwise[i, j] = original - eps
                lower = crf.log_likelihood(unary, labels)
                crf.pairwise[i, j] = original
                numeric[i, j] = (upper - lower) / (2 * eps)
        assert np.abs(analytic - numeric).max() < 1e-5

    def test_state_dict_round_trip(self):
        crf = random_crf(4, seed=14)
        clone = LinearChainCRF(4)
        clone.load_state_dict(crf.state_dict())
        assert np.allclose(clone.pairwise, crf.pairwise)
        assert clone.unary_weight == crf.unary_weight


class TestTrainer:
    def _make_examples(self, n=30, seed=0):
        """Tables where type 1 always follows type 0 and unaries are weak."""
        rng = np.random.default_rng(seed)
        examples = []
        for _ in range(n):
            labels = np.array([0, 1, 0, 1])
            unary = rng.normal(scale=0.1, size=(4, 3))
            examples.append(CRFTrainingExample(unary=unary, labels=labels))
        return examples

    def test_training_increases_log_likelihood(self):
        examples = self._make_examples()
        crf = LinearChainCRF(3)
        before = np.mean([crf.log_likelihood(e.unary, e.labels) for e in examples])
        CRFTrainer(crf, n_epochs=10, learning_rate=0.1).fit(examples)
        after = np.mean([crf.log_likelihood(e.unary, e.labels) for e in examples])
        assert after > before

    def test_training_learns_transition_structure(self):
        examples = self._make_examples()
        crf = LinearChainCRF(3)
        CRFTrainer(crf, n_epochs=20, learning_rate=0.2).fit(examples)
        assert crf.pairwise[0, 1] > crf.pairwise[0, 2]
        assert crf.pairwise[1, 0] > crf.pairwise[2, 0]

    def test_empty_examples_noop(self):
        crf = LinearChainCRF(3)
        original = crf.pairwise.copy()
        CRFTrainer(crf, n_epochs=3).fit([])
        assert np.allclose(crf.pairwise, original)

    def test_history_recorded(self):
        trainer = CRFTrainer(LinearChainCRF(3), n_epochs=4)
        trainer.fit(self._make_examples(n=5))
        assert len(trainer.history) == 4
