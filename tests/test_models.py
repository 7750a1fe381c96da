"""Tests for the model layer: multi-input network, Sherlock, topic-aware, Sato, attention."""

import numpy as np
import pytest

from repro.models import (
    AttentionColumnModel,
    MultiInputClassifier,
    SatoModel,
    TrainingConfig,
)
from repro.models.column_network import GroupSpec, NetworkTrainer
from repro.serving import model_fingerprint
from repro.tables import Column, Table
from repro.types import NUM_TYPES, SEMANTIC_TYPES

from helpers import make_tiny_model


def _toy_inputs(batch, rng):
    return {
        "a": rng.normal(size=(batch, 10)),
        "b": rng.normal(size=(batch, 6)),
        "stat": rng.normal(size=(batch, 4)),
    }


def _toy_network(seed=0):
    groups = [
        GroupSpec("a", 10, compress=True),
        GroupSpec("b", 6, compress=True),
        GroupSpec("stat", 4, compress=False),
    ]
    return MultiInputClassifier(groups, n_classes=5, subnet_dim=8, hidden_dim=12, seed=seed)


class TestMultiInputClassifier:
    def test_forward_shape(self):
        network = _toy_network()
        rng = np.random.default_rng(0)
        logits = network.forward(_toy_inputs(7, rng))
        assert logits.shape == (7, 5)

    def test_predict_proba_normalised(self):
        network = _toy_network()
        probabilities = network.predict_proba(_toy_inputs(4, np.random.default_rng(1)))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_penultimate_shape(self):
        network = _toy_network()
        hidden = network.penultimate(_toy_inputs(3, np.random.default_rng(2)))
        assert hidden.shape == (3, 12)

    def test_missing_group_raises(self):
        network = _toy_network()
        with pytest.raises(KeyError):
            network.forward({"a": np.zeros((2, 10))})

    def test_requires_groups(self):
        with pytest.raises(ValueError):
            MultiInputClassifier([], n_classes=3)

    def test_backward_before_forward_raises(self):
        network = _toy_network()
        with pytest.raises(RuntimeError):
            network.backward(np.zeros((2, 5)))

    def test_parameters_exist_for_each_subnet(self):
        network = _toy_network()
        # Two compressed subnets (2 Linear layers each) + primary (2 Linear +
        # BatchNorm) + output layer.
        assert len(network.parameters()) == 8 + 6 + 2

    def test_state_dict_round_trip(self):
        network = _toy_network(seed=0)
        clone = _toy_network(seed=99)
        clone.load_state_dict(network.state_dict())
        inputs = _toy_inputs(3, np.random.default_rng(3))
        assert np.allclose(network.forward(inputs), clone.forward(inputs))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        network = _toy_network()
        inputs = _toy_inputs(120, rng)
        # Target depends on the passthrough group so the task is learnable.
        targets = (inputs["stat"][:, 0] > 0).astype(np.int64)
        trainer = NetworkTrainer(
            network, learning_rate=5e-3, n_epochs=15, batch_size=32, seed=0
        )
        trainer.fit(inputs, targets)
        assert trainer.history[-1] < trainer.history[0]

    def test_trainer_handles_empty_input(self):
        network = _toy_network()
        trainer = NetworkTrainer(network, n_epochs=2)
        trainer.fit(_toy_inputs(0, np.random.default_rng(0)), np.zeros(0, dtype=np.int64))
        assert trainer.history == []


class TestSherlockModel:
    def test_unfitted_raises(self, multi_column_tables):
        model = make_tiny_model(use_topic=False, use_struct=False)
        with pytest.raises(RuntimeError):
            model.column_model.predict_proba_table(multi_column_tables[0])

    def test_predict_proba_shape(self, trained_base, train_test_tables):
        _, test = train_test_tables
        table = test[0]
        probabilities = trained_base.predict_proba_table(table)
        assert probabilities.shape == (table.n_columns, NUM_TYPES)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_predict_table_labels(self, trained_base, train_test_tables):
        _, test = train_test_tables
        predictions = trained_base.predict_table(test[0])
        assert len(predictions) == test[0].n_columns
        assert all(p in SEMANTIC_TYPES for p in predictions)

    def test_empty_table(self, trained_base):
        assert trained_base.predict_proba_table(Table(columns=[])).shape == (0, NUM_TYPES)

    def test_column_embeddings_shape(self, trained_base, train_test_tables):
        _, test = train_test_tables
        embeddings = trained_base.column_embeddings(test[0])
        assert embeddings.shape[0] == test[0].n_columns
        assert embeddings.shape[1] > 0

    def test_better_than_chance(self, trained_base, train_test_tables):
        _, test = train_test_tables
        correct = total = 0
        for table in test:
            for column, predicted in zip(table.columns, trained_base.predict_table(table)):
                total += 1
                correct += int(predicted == column.semantic_type)
        assert correct / total > 0.15  # chance is ~1/78


class TestTopicAwareAndSato:
    def test_sato_variants_names(self):
        assert SatoModel.full().name == "Sato"
        assert SatoModel.base().name == "Base"
        assert SatoModel.no_topic().name == "SatoNoTopic"
        assert SatoModel.no_struct().name == "SatoNoStruct"

    def test_sato_crf_trained(self, trained_sato):
        assert trained_sato.crf is not None
        assert trained_sato.crf.pairwise.shape == (NUM_TYPES, NUM_TYPES)

    def test_sato_predictions_valid(self, trained_sato, train_test_tables):
        _, test = train_test_tables
        for table in test[:5]:
            predictions = trained_sato.predict_table(table)
            assert len(predictions) == table.n_columns
            assert all(p in SEMANTIC_TYPES for p in predictions)

    def test_sato_marginals_normalised(self, trained_sato, train_test_tables):
        _, test = train_test_tables
        probabilities = trained_sato.predict_proba_table(test[0])
        assert np.allclose(probabilities.sum(axis=1), 1.0, atol=1e-6)

    def test_topic_aware_predict_from_features_defaults_topics(self, trained_sato):
        column_model = trained_sato.column_model
        features = np.zeros((2, column_model.featurizer.n_features))
        probabilities = column_model.predict_proba_from_features(features)
        assert probabilities.shape == (2, NUM_TYPES)

    def test_sato_column_embeddings(self, trained_sato, train_test_tables):
        _, test = train_test_tables
        embeddings = trained_sato.column_embeddings(test[0])
        assert embeddings.shape[0] == test[0].n_columns

    def test_singleton_table_bypasses_crf(self, trained_sato):
        table = Table(columns=[Column(values=["Paris", "London"], semantic_type="city")])
        predictions = trained_sato.predict_table(table)
        assert len(predictions) == 1

    def test_better_than_chance(self, trained_sato, train_test_tables):
        _, test = train_test_tables
        correct = total = 0
        for table in test:
            for column, predicted in zip(table.columns, trained_sato.predict_table(table)):
                total += 1
                correct += int(predicted == column.semantic_type)
        assert correct / total > 0.15

    def test_crf_unaries_come_from_one_batched_call(self, serving_split, monkeypatch):
        train, _ = serving_split
        model = make_tiny_model(use_topic=True, use_struct=True)
        column_model = model.column_model
        batched, single = [], []
        predict_proba_tables = column_model.predict_proba_tables
        predict_proba_table = column_model.predict_proba_table
        monkeypatch.setattr(
            column_model,
            "predict_proba_tables",
            lambda tables: batched.append(len(tables)) or predict_proba_tables(tables),
        )
        monkeypatch.setattr(
            column_model,
            "predict_proba_table",
            lambda table: single.append(table) or predict_proba_table(table),
        )
        model.fit(train)
        multi = [t for t in train if t.n_columns > 1 and t.is_fully_labeled]
        assert multi
        assert batched == [len(multi)]
        assert single == []

    def test_fit_is_deterministic(self, serving_split):
        train, _ = serving_split
        first, second = (
            make_tiny_model(use_topic=True, use_struct=True).fit(train) for _ in range(2)
        )
        assert model_fingerprint(first) == model_fingerprint(second)


class TestAttentionColumnModel:
    @pytest.fixture(scope="class")
    def trained(self, train_test_tables):
        train, _ = train_test_tables
        model = AttentionColumnModel(
            embed_dim=12,
            hidden_dim=16,
            max_tokens=24,
            config=TrainingConfig(n_epochs=4, learning_rate=3e-3, batch_size=32, seed=0),
        )
        model.fit(train)
        return model

    def test_unfitted_raises(self, multi_column_tables):
        model = AttentionColumnModel()
        with pytest.raises(RuntimeError):
            model.predict_proba_table(multi_column_tables[0])

    def test_fit_requires_labels(self):
        model = AttentionColumnModel()
        with pytest.raises(ValueError):
            model.fit([Table(columns=[Column(values=["a"])])])

    def test_predict_proba(self, trained, train_test_tables):
        _, test = train_test_tables
        probabilities = trained.predict_proba_table(test[0])
        assert probabilities.shape == (test[0].n_columns, NUM_TYPES)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_column_embeddings(self, trained, train_test_tables):
        _, test = train_test_tables
        embeddings = trained.column_embeddings(test[0])
        assert embeddings.shape == (test[0].n_columns, 16)

    def test_empty_column_handled(self, trained):
        table = Table(columns=[Column(values=["", ""])])
        assert trained.predict_proba_table(table).shape == (1, NUM_TYPES)
