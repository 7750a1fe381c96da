"""Column feature extraction (Sherlock-style feature groups).

Features come in four groups mirroring the paper: character-level
distribution features (**Char**), word embedding features (**Word**),
paragraph/column embedding features (**Para**) and global column statistics
(**Stat**).  The :class:`~repro.features.featurizer.ColumnFeaturizer`
combines them, records per-group slices (needed by the per-group
subnetworks and the permutation-importance analysis of Figure 9), and is the
only object models consume.
"""

from repro.features.char_features import (
    CHAR_FEATURE_NAMES,
    CharAccumulator,
    char_features,
)
from repro.features.stats_features import (
    STAT_FEATURE_NAMES,
    StatAccumulator,
    column_statistics,
)
from repro.features.accumulators import ColumnAccumulator, TokenAccumulator
from repro.features.featurizer import ColumnFeaturizer, FeatureGroup, FeatureMatrix
from repro.features.engine import (
    VectorizedEngine,
    char_features_batch,
    stats_features_batch,
)
from repro.features.sketchstore import SketchStore, SketchStoreWarning, StreamSketcher

__all__ = [
    "CHAR_FEATURE_NAMES",
    "CharAccumulator",
    "char_features",
    "char_features_batch",
    "STAT_FEATURE_NAMES",
    "StatAccumulator",
    "column_statistics",
    "stats_features_batch",
    "ColumnAccumulator",
    "TokenAccumulator",
    "ColumnFeaturizer",
    "FeatureGroup",
    "FeatureMatrix",
    "VectorizedEngine",
    "SketchStore",
    "SketchStoreWarning",
    "StreamSketcher",
]
