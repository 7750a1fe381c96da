"""Semantic type detection models.

* :class:`~repro.models.sherlock.SherlockModel` — the single-column Base
  model (multi-input feed-forward network over Char/Word/Para/Stat).
* :class:`~repro.models.topic_aware.TopicAwareModel` — Base plus a topic
  subnetwork fed by the table intent estimator (global context).
* :class:`~repro.models.sato.SatoModel` — the full hybrid model: a
  column-wise model providing unary potentials plus a linear-chain CRF over
  the table's columns (local context).  ``variant()`` builds the paper's
  ablations (``SatoNoTopic``, ``SatoNoStruct``, ``Base``).
* :class:`~repro.models.attention.AttentionColumnModel` — the
  "featurisation-free" learned-representation substitute for the BERT
  experiment of Section 6, plugged in through the same interface.
* :mod:`repro.models.batched` — the layout helpers behind
  ``SatoModel.predict_tables``: one column-network forward pass and one
  masked Viterbi decode for a whole batch of tables.
"""

from repro.models.base import ColumnModel, TrainingConfig
from repro.models.batched import pad_unaries, split_by_table
from repro.models.column_network import MultiInputClassifier, NetworkTrainer
from repro.models.sherlock import SherlockModel
from repro.models.topic_aware import TopicAwareModel
from repro.models.sato import SatoConfig, SatoModel
from repro.models.attention import AttentionColumnModel

__all__ = [
    "ColumnModel",
    "TrainingConfig",
    "MultiInputClassifier",
    "NetworkTrainer",
    "SherlockModel",
    "TopicAwareModel",
    "SatoConfig",
    "SatoModel",
    "pad_unaries",
    "split_by_table",
    "AttentionColumnModel",
]
