"""Batched model-core inference: parity with the per-table loop oracle.

Batched inference must be a pure performance choice: for any fitted model
and any batch of tables it decodes exactly the labels the per-table
``predict_table`` loop does.  These tests sweep the CRF batch decode over table
counts, column counts, tie-breaking unaries and hostile padding values, and
check the end-to-end path across all four paper variants and the serving
``Predictor``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.crf import LinearChainCRF
from repro.models import pad_unaries
from repro.serving import Predictor

#: Property-style sweep axes for the CRF parity fixtures.
TABLE_COUNTS = (1, 7)
COLUMN_COUNTS = (1, 2, 40)
N_STATES = (2, 9)
PAD_VALUES = (0.0, np.nan, -np.inf)


def make_crf(n_states: int, seed: int) -> LinearChainCRF:
    rng = np.random.default_rng(seed)
    return LinearChainCRF(
        n_states,
        pairwise=rng.normal(size=(n_states, n_states)),
        unary_weight=1.0 if seed % 2 else 1.7,
    )


def make_unaries(
    n_tables: int, n_columns: int, n_states: int, seed: int, style: str
) -> list[np.ndarray]:
    """Per-table unary matrices: random, tied, or mixed-length batches."""
    rng = np.random.default_rng(seed)
    unaries = []
    for index in range(n_tables):
        columns = n_columns if style != "mixed" else 1 + (index * 7) % n_columns
        unary = rng.normal(size=(columns, n_states))
        if style == "ties":
            # Coarse rounding plus duplicated states force argmax ties both
            # in the recurrence and in the final-state selection.
            unary = np.round(unary)
            unary[:, -1] = unary[:, 0]
        unaries.append(unary)
    return unaries


def pad_batch(unaries: list[np.ndarray], n_states: int, pad: float) -> tuple:
    lengths = np.array([u.shape[0] for u in unaries], dtype=np.int64)
    padded = np.full((len(unaries), int(lengths.max()), n_states), pad)
    for row, unary in enumerate(unaries):
        padded[row, : unary.shape[0]] = unary
    return padded, lengths


class TestViterbiBatchParity:
    @pytest.mark.parametrize(
        "n_tables,n_columns,n_states,style",
        [
            (t, c, s, style)
            for t, c, s in itertools.product(TABLE_COUNTS, COLUMN_COUNTS, N_STATES)
            for style in ("random", "ties", "mixed")
        ],
    )
    def test_bit_identical_to_loop(self, n_tables, n_columns, n_states, style):
        crf = make_crf(n_states, seed=n_tables * 100 + n_columns)
        unaries = make_unaries(n_tables, n_columns, n_states, seed=7, style=style)
        expected = [crf.viterbi(u) for u in unaries]
        padded, lengths = pad_batch(unaries, n_states, pad=0.0)
        decoded = crf.viterbi_batch(padded, lengths)
        assert len(decoded) == n_tables
        for want, got in zip(expected, decoded):
            assert got.dtype == np.int64
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("pad", PAD_VALUES, ids=["zeros", "nan", "-inf"])
    def test_padding_value_is_never_read(self, pad):
        """NaN-free masking: hostile padding cannot change any decoded label."""
        crf = make_crf(5, seed=3)
        unaries = make_unaries(7, 40, 5, seed=11, style="mixed")
        expected = [crf.viterbi(u) for u in unaries]
        padded, lengths = pad_batch(unaries, 5, pad=pad)
        with np.errstate(invalid="raise"):  # masking must not compute on padding
            decoded = crf.viterbi_batch(padded, lengths)
        for want, got in zip(expected, decoded):
            assert np.array_equal(want, got)
            assert np.all(got >= 0) and np.all(got < 5)

    def test_empty_batch_and_zero_length_rows(self):
        crf = make_crf(4, seed=0)
        assert crf.viterbi_batch(np.zeros((0, 3, 4)), np.zeros(0, dtype=int)) == []
        decoded = crf.viterbi_batch(np.zeros((2, 0, 4)), np.array([0, 0]))
        assert [d.shape for d in decoded] == [(0,), (0,)]
        # A zero-length chain mixed into a real batch decodes to an empty row.
        unaries = make_unaries(3, 4, 4, seed=5, style="random")
        padded, lengths = pad_batch(unaries, 4, pad=np.nan)
        lengths[1] = 0
        decoded = crf.viterbi_batch(padded, lengths)
        assert decoded[1].shape == (0,)
        assert np.array_equal(decoded[0], crf.viterbi(unaries[0]))
        assert np.array_equal(decoded[2], crf.viterbi(unaries[2]))

    def test_rejects_malformed_inputs(self):
        crf = make_crf(3, seed=0)
        with pytest.raises(ValueError):
            crf.viterbi_batch(np.zeros((2, 4)), np.array([2, 2]))  # not 3-D
        with pytest.raises(ValueError):
            crf.viterbi_batch(np.zeros((2, 4, 5)), np.array([2, 2]))  # bad states
        with pytest.raises(ValueError):
            crf.viterbi_batch(np.zeros((2, 4, 3)), np.array([2]))  # bad lengths
        with pytest.raises(ValueError):
            crf.viterbi_batch(np.zeros((2, 4, 3)), np.array([2, 5]))  # > max_cols


class TestPadUnaries:
    def test_layout_and_log_values(self):
        probas = [np.full((2, 3), 0.5), np.full((4, 3), 0.125)]
        unaries, lengths = pad_unaries(probas, n_states=3)
        assert unaries.shape == (2, 4, 3)
        assert lengths.tolist() == [2, 4]
        assert np.array_equal(unaries[0, :2], np.log(probas[0] + 1e-12))
        assert np.all(unaries[0, 2:] == 0.0)

    def test_matches_loop_log_epsilon(self):
        """The padded unaries must equal the loop path's log(p + eps) exactly."""
        rng = np.random.default_rng(0)
        proba = rng.random((5, 4))
        unaries, _ = pad_unaries([proba], n_states=4)
        assert np.array_equal(unaries[0], np.log(proba + 1e-12))

    def test_empty(self):
        unaries, lengths = pad_unaries([], n_states=3)
        assert unaries.shape == (0, 0, 3)
        assert lengths.shape == (0,)
        unaries, lengths = pad_unaries([np.zeros((0, 3))], n_states=3)
        assert unaries.shape == (1, 0, 3)
        assert lengths.tolist() == [0]


class TestEndToEndParity:
    def test_variant_batch_matches_loop(self, fitted_variant, corpus_small):
        """All four paper variants decode identical labels batched and per table."""
        serve = corpus_small[:40]  # mixed singleton and multi-column tables
        loop = [fitted_variant.predict_table(t) for t in serve]
        assert fitted_variant.predict_tables(serve) == loop

    def test_variant_proba_batch_matches_loop(self, fitted_variant, corpus_small):
        serve = corpus_small[:12]
        loop = [fitted_variant.predict_proba_table(t) for t in serve]
        batched = fitted_variant.predict_proba_tables(serve)
        for want, got in zip(loop, batched):
            assert want.shape == got.shape
            assert np.allclose(want, got, rtol=1e-9, atol=1e-12)

    def test_labels_from_proba_batch(self, trained_sato, corpus_small):
        """The decode-only batch API matches per-table labels_from_proba."""
        probas = trained_sato.column_model.predict_proba_tables(corpus_small[:25])
        loop = [trained_sato.labels_from_proba(p) for p in probas]
        assert trained_sato.labels_from_proba_batch(probas) == loop

    def test_single_table_and_single_column_batches(self, trained_sato, corpus_small):
        singles = [t for t in corpus_small if t.n_columns == 1][:2]
        multi = [t for t in corpus_small if t.n_columns > 1][:2]
        for batch in ([multi[0]], singles[:1], singles + multi):
            loop = [trained_sato.predict_table(t) for t in batch]
            assert trained_sato.predict_tables(batch) == loop


class TestHardCaseSuiteParity:
    """Loop vs batched labels on the shipped adversarial suites.

    Unicode-heavy and dirty-column tables stress padding, masking and the
    featurizer -> unary pipeline with hostile values; the batched path
    (model and serving ``Predictor``) must still decode labels
    bit-identical to the per-table loop.
    """

    def test_batched_matches_loop_on_hard_cases(self, trained_sato, hard_case_tables):
        loop = [trained_sato.predict_table(t) for t in hard_case_tables]
        assert trained_sato.predict_tables(hard_case_tables) == loop

    def test_predictor_backends_agree_on_hard_cases(
        self, trained_sato, hard_case_tables
    ):
        """The Predictor's batch decode equals its own per-table decode."""
        per_table = Predictor(trained_sato)
        loop = [per_table.predict_table(t) for t in hard_case_tables]
        assert Predictor(trained_sato).predict_tables(hard_case_tables) == loop
        assert loop == [trained_sato.predict_table(t) for t in hard_case_tables]


class TestPredictorBackends:
    """The serving Predictor's batch decode equals the per-table loop."""

    def test_predictor_backends_agree(self, trained_sato, serving_split):
        _, test = serving_split
        expected = [trained_sato.predict_table(t) for t in test]
        assert Predictor(trained_sato).predict_tables(test) == expected
