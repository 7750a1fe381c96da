"""Shared fixtures.

Expensive objects (corpus, fitted featurizer, trained models) are
session-scoped and use deliberately tiny configurations so the whole suite
stays fast while still exercising every component end to end.  Plain helper
functions live in ``helpers.py`` so test modules can import them explicitly
without colliding with ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus import CorpusConfig, CorpusGenerator

from helpers import make_tiny_model, tiny_featurizer


def pytest_configure(config):
    # A RuntimeWarning (NumPy's 0 / 0, an overflow) means the program
    # computed with a value it did not mean to: fail the test that raised
    # it.  Only runs collecting tests/ load this file, so benchmark runs
    # keep pytest's default warning handling.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


@pytest.fixture(scope="session")
def corpus_small():
    """~90 tables, mixed singleton/multi-column, with noise."""
    config = CorpusConfig(n_tables=90, seed=5, singleton_rate=0.3, max_rows=12)
    return CorpusGenerator(config).generate()


@pytest.fixture(scope="session")
def multi_column_tables(corpus_small):
    return [t for t in corpus_small if t.n_columns > 1]


@pytest.fixture(scope="session")
def train_test_tables(multi_column_tables):
    split = int(len(multi_column_tables) * 0.8)
    return multi_column_tables[:split], multi_column_tables[split:]


@pytest.fixture(scope="session")
def fitted_featurizer(multi_column_tables):
    featurizer = tiny_featurizer()
    featurizer.fit(multi_column_tables)
    return featurizer


@pytest.fixture(scope="session")
def trained_base(train_test_tables):
    train, _ = train_test_tables
    model = make_tiny_model(use_topic=False, use_struct=False)
    model.fit(train)
    return model


#: The four paper variants: name -> (use_topic, use_struct).
MODEL_VARIANTS = {
    "Base": (False, False),
    "Sato": (True, True),
    "SatoNoStruct": (True, False),
    "SatoNoTopic": (False, True),
}


@pytest.fixture(scope="session")
def serving_split(train_test_tables):
    train, test = train_test_tables
    return train[:30], test[:8]


@pytest.fixture(scope="session", params=sorted(MODEL_VARIANTS))
def fitted_variant(request, serving_split):
    """One fitted model per paper variant, shared across test modules."""
    train, _ = serving_split
    use_topic, use_struct = MODEL_VARIANTS[request.param]
    model = make_tiny_model(use_topic=use_topic, use_struct=use_struct)
    model.fit(train)
    assert model.name == request.param
    return model


@pytest.fixture(scope="session")
def hard_case_tables():
    """Adversarial tables from the shipped hard-case suites (tiny preset).

    Unicode-heavy values (non-BMP, combining marks, RTL) plus dirty and
    mixed-type columns — the inputs where a vectorized or batched backend
    is most likely to drift from its reference loop.
    """
    from repro.corpus.suites import build_suite

    tables = []
    for name in ("unicode_heavy", "dirty_columns"):
        tables.extend(build_suite(name, "tiny").tables)
    return tables


@pytest.fixture(scope="session")
def trained_sato(train_test_tables):
    train, _ = train_test_tables
    model = make_tiny_model(use_topic=True, use_struct=True)
    model.fit(train)
    return model
