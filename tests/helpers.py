"""Shared test helpers (tiny model and featurizer builders).

These live in a plain module — imported explicitly as ``from helpers import
...`` — rather than in ``conftest.py``: conftest modules all share the bare
module name ``conftest``, so importing helpers from one is ambiguous the
moment another directory (``benchmarks/``) also has a conftest.
"""

from __future__ import annotations

from repro.features import ColumnFeaturizer
from repro.models import SatoConfig, SatoModel, TrainingConfig

__all__ = [
    "FLOAT_EDGE_PIECES",
    "TINY_TRAINING",
    "tiny_featurizer",
    "tiny_sato_config",
    "make_tiny_model",
]


#: Cells at the edge of the number rule's alphabet (what ``float()`` takes
#: after ``strip()`` and removing ``,$%``): digit separators, Arabic-Indic
#: and full-width digits, which parse; U+2212 MINUS SIGN, the full-width
#: plus, a superscript two, a digit-free exponent, the infinity spellings,
#: a bare exponent and an inner space, which do not; and a trailing U+3000
#: that ``strip()`` removes.
FLOAT_EDGE_PIECES = [
    "1_000",
    "١٢٣",
    "１２",
    "\u22125",
    "＋1",
    "1e5",
    "E5",
    "²",
    "Infinity",
    "-inf",
    "+.5",
    "5.",
    "1e",
    "1 000",
    "7\u3000",
]


TINY_TRAINING = TrainingConfig(
    n_epochs=6,
    learning_rate=3e-3,
    batch_size=32,
    subnet_dim=16,
    hidden_dim=32,
    dropout=0.1,
    seed=0,
)


def tiny_featurizer() -> ColumnFeaturizer:
    """A small featurizer suitable for unit tests."""
    return ColumnFeaturizer(word_dim=12, para_dim=8, seed=0)


def tiny_sato_config(use_topic: bool, use_struct: bool) -> SatoConfig:
    """A small Sato configuration for unit tests."""
    return SatoConfig(
        use_topic=use_topic,
        use_struct=use_struct,
        n_topics=6,
        training=TINY_TRAINING,
        crf_epochs=3,
        seed=0,
    )


def make_tiny_model(use_topic: bool, use_struct: bool) -> SatoModel:
    """Build an unfitted tiny Sato variant."""
    model = SatoModel(
        config=tiny_sato_config(use_topic, use_struct), featurizer=tiny_featurizer()
    )
    if use_topic:
        model.column_model.intent_estimator.lda.n_iterations = 5
        model.column_model.intent_estimator.lda.infer_iterations = 5
    return model
