"""Batched inference facade with a column-level feature cache.

The training path is expensive and rare; the serving path must be cheap and
repeatable.  :class:`Predictor` wraps a fitted
:class:`~repro.models.sato.SatoModel` and serves batches of tables through

1. **one** featurization pass — every column of every table in the batch is
   featurized together (cache misses only), instead of per-column Python
   loops per table,
2. **one** column-network forward pass over all columns of the batch, and
3. a cheap per-table structured decode (Viterbi / marginals) on top of the
   shared column-wise scores.

Featurized columns are memoised in an LRU cache keyed on a fingerprint of
the column's content, so repeated traffic over the same columns (the common
case for dashboard-style workloads) skips featurization entirely.  For
topic-aware variants, inferred table-topic vectors are memoised the same
way (keyed on the whole table's content), which removes the single most
expensive per-table serving step — LDA inference — from repeat traffic;
the misses of a batch are inferred together in one batched call.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.features import sketchstore
from repro.models import SatoModel, TopicAwareModel
from repro.obs import span
from repro.models.batched import split_by_table
from repro.serving.bundle import load_model, model_fingerprint
from repro.serving.shm import load_model_shared
from repro.tables import Column, Table

__all__ = ["column_fingerprint", "LRUCache", "Predictor"]


def column_fingerprint(column: Column) -> str:
    """Content hash of a column's values (order-sensitive, header-blind).

    Values are length-prefixed before hashing so that value boundaries are
    unambiguous (``["ab", "c"]`` and ``["a", "bc"]`` hash differently).
    Headers are excluded: they are never model input.  Delegates to
    :func:`repro.features.sketchstore.values_fingerprint` — the canonical
    column-identity hash shared with the persistent sketch store.

    Examples:
        >>> from repro.tables import Column
        >>> a = column_fingerprint(Column(values=["ab", "c"]))
        >>> a == column_fingerprint(Column(values=["ab", "c"], header="other"))
        True
        >>> a == column_fingerprint(Column(values=["a", "bc"]))
        False
    """
    return sketchstore.values_fingerprint(column.values)


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss accounting.

    Examples:
        >>> import numpy as np
        >>> cache = LRUCache(capacity=2)
        >>> cache.put("a", np.zeros(2)); cache.put("b", np.ones(2))
        >>> cache.get("a") is not None   # refreshes "a", counts a hit
        True
        >>> cache.put("c", np.full(2, 2.0))   # evicts "b" (least recent)
        >>> "b" in cache
        False
        >>> (cache.hits, cache.misses)
        (1, 0)
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> np.ndarray | None:
        """Look up a key, refreshing its recency; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: np.ndarray) -> None:
        """Insert a key, evicting the least recently used entry when full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class Predictor:
    """Serve predictions from a fitted Sato model, batched and cached.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.sato.SatoModel`.
    cache_size:
        Capacity of the column-feature LRU cache and (for topic-aware
        variants) of the table-topic LRU cache.  LDA inference is a pure
        function of a table's values (the Gibbs chain is reseeded per
        call), so cached topic vectors are bit-identical to recomputed
        ones — and topic inference is the most expensive per-table step of
        the serving path, so repeated traffic gains the most here.
    sketch_store:
        Optional persistent sketch store — a
        :class:`~repro.features.sketchstore.SketchStore` or a store
        directory path — consulted as an L2 behind the in-memory feature
        and topic caches: columns (and table topics) whose fingerprint +
        config hit the store skip computation even on a cold process.
        Single-process only (the prefork fleet must not share one).
    sketch_sample_rows:
        Bounded-sample dial: featurize cache/store misses from each
        column's first N values only (topic documents are sampled the
        same way).  Trades accuracy for speed on huge columns.

    Columns are treated as immutable snapshots: both the feature cache and
    the per-object fingerprint memo assume a :class:`Column`'s values never
    change after it is first served.

    Examples:
        >>> from repro.corpus import CorpusConfig, CorpusGenerator
        >>> from repro.models import SatoConfig, SatoModel, TrainingConfig
        >>> tables = CorpusGenerator(CorpusConfig(n_tables=6, seed=2)).generate()
        >>> config = SatoConfig(use_topic=False, use_struct=False,
        ...                     training=TrainingConfig(n_epochs=1,
        ...                                             subnet_dim=4,
        ...                                             hidden_dim=8))
        >>> predictor = Predictor(SatoModel(config=config).fit(tables))
        >>> labels = predictor.predict_table(tables[0])
        >>> len(labels) == tables[0].n_columns
        True
    """

    def __init__(
        self,
        model: SatoModel,
        cache_size: int = 4096,
        model_name: str | None = None,
        model_version: str | None = None,
        sketch_store=None,
        sketch_sample_rows: int | None = None,
    ) -> None:
        if model.column_model.network is None:
            raise RuntimeError("Predictor requires a fitted model")
        self.model = model
        self.column_model = model.column_model
        self.sketch_store, self._owns_sketch_store = sketchstore.open_store(
            sketch_store
        )
        self.sketch_sample_rows = sketch_sample_rows
        self._topic_section: str | None = None
        # A runtime clone shares all fitted state but owns its sketch-store
        # setting and engine, so two predictors over the same model (or the
        # model's own training featurizer) never fight over them.
        self.featurizer = model.column_model.featurizer.runtime_clone()
        if self.sketch_store is not None or sketch_sample_rows is not None:
            self.featurizer.set_sketch_store(self.sketch_store, sketch_sample_rows)
        self.cache = LRUCache(cache_size)
        self.topic_cache = LRUCache(cache_size)
        self._fingerprints: dict[int, tuple[weakref.ref, str]] = {}
        # Hot-swap state: the lock serializes whole prediction batches
        # against model swaps, so a batch is always served start-to-finish
        # by one model (no mixed batches), and a swap simply waits for the
        # in-flight batch to finish.  The model fingerprint (a hash over
        # every fitted tensor) is computed lazily: registry-tagged
        # predictors never need it unless a swap compares models, and
        # one-shot CLI predictors never need it at all.
        self._swap_lock = threading.RLock()
        self._model_name = model_name
        self._explicit_version = model_version
        self._model_fingerprint: str | None = None
        self._swap_count = 0
        self.last_batch_version: str | None = model_version
        # Instrumentation hooks for online serving: every batched forward
        # pass bumps these, so a server's /metrics endpoint can report
        # model-side totals without wrapping the hot path.
        self._batches = 0
        self._tables = 0
        self._columns = 0
        self._predict_seconds = 0.0
        # Set by from_shared_bundle (and by fleet workers on commit): the
        # shared-memory tensor store backing this predictor's model weights.
        # Owned here so close() unmaps it after the featurizer lets go.
        self.shared_store = None

    @classmethod
    def from_bundle(
        cls,
        path,
        cache_size: int = 4096,
        model_name: str | None = None,
        model_version: str | None = None,
        sketch_store=None,
        sketch_sample_rows: int | None = None,
    ) -> "Predictor":
        """Build a predictor straight from a saved bundle directory."""
        return cls(
            load_model(path),
            cache_size=cache_size,
            model_name=model_name,
            model_version=model_version,
            sketch_store=sketch_store,
            sketch_sample_rows=sketch_sample_rows,
        )

    @classmethod
    def from_shared_bundle(
        cls,
        bundle_path,
        store_path,
        cache_size: int = 4096,
        model_name: str | None = None,
        model_version: str | None = None,
    ) -> "Predictor":
        """Build a predictor whose weights are zero-copy shared-memory views.

        ``store_path`` is a packed tensor store produced by
        :func:`repro.serving.shm.pack_bundle` from the bundle at
        ``bundle_path``.  The model's tensors become read-only views into
        one memory mapping, so N worker processes serving the same bundle
        share a single physical copy of the weights.  The mapping is owned
        by the returned predictor (``shared_store``) and released by
        :meth:`close`.
        """
        model, store = load_model_shared(bundle_path, store_path)
        predictor = cls(
            model,
            cache_size=cache_size,
            model_name=model_name,
            model_version=model_version,
        )
        predictor.shared_store = store
        return predictor

    @classmethod
    def from_registry(
        cls,
        registry,
        name: str,
        version: str | None = None,
        cache_size: int = 4096,
        sketch_store=None,
        sketch_sample_rows: int | None = None,
    ) -> "Predictor":
        """Build a predictor from a registry version (default: the promoted).

        ``registry`` is a :class:`~repro.registry.ModelRegistry`; the
        version is integrity-checked before loading.
        """
        model, info = registry.load(name, version)
        return cls(
            model,
            cache_size=cache_size,
            model_name=info.name,
            model_version=info.version,
            sketch_store=sketch_store,
            sketch_sample_rows=sketch_sample_rows,
        )

    # ------------------------------------------------------------- hot swap

    @property
    def model_name(self) -> str | None:
        """Registered model name (None when serving a loose bundle)."""
        return self._model_name

    @property
    def model_version(self) -> str:
        """Version tag of the serving model (fingerprint prefix if untagged)."""
        if self._explicit_version is not None:
            return self._explicit_version
        return self.fingerprint[:12]

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the serving model (computed on demand)."""
        if self._model_fingerprint is None:
            self._model_fingerprint = model_fingerprint(self.model)
        return self._model_fingerprint

    @property
    def swap_count(self) -> int:
        """How many times :meth:`swap_model` has replaced the model."""
        return self._swap_count

    def swap_model(
        self,
        model: SatoModel,
        model_name: str | None = None,
        model_version: str | None = None,
    ) -> dict:
        """Atomically replace the serving model (zero-downtime hot swap).

        The swap takes the same lock as batch prediction, so the in-flight
        batch (if any) finishes on the old model and every later batch runs
        on the new one — no request is ever served by a half-swapped
        predictor and no batch mixes models.  The column-feature and
        table-topic caches are invalidated **only when the model
        fingerprint actually changes**: re-loading an identical bundle
        keeps the warm caches (both featurization and topic inference are
        pure functions of model state + column content, so an unchanged
        fingerprint guarantees cached entries are still bit-exact).

        Returns a summary dictionary: ``version``, ``fingerprint``,
        ``changed`` (did the model content change), ``cache_cleared`` and
        the cumulative ``swap_count``.
        """
        if model.column_model.network is None:
            raise RuntimeError("swap_model requires a fitted model")
        fingerprint = model_fingerprint(model)
        with self._swap_lock:
            changed = fingerprint != self.fingerprint
            self.model = model
            self.column_model = model.column_model
            self.featurizer = model.column_model.featurizer.runtime_clone()
            if self.sketch_store is not None or self.sketch_sample_rows is not None:
                # Re-resolve sections lazily: a new substrate hashes to a
                # new section, so old sketches become misses, not wrong hits.
                self.featurizer.set_sketch_store(
                    self.sketch_store, self.sketch_sample_rows
                )
                self._topic_section = None
            if changed:
                # Feature vectors and topic vectors are functions of model
                # state; a different fingerprint invalidates both.  The
                # column fingerprint memo keys on content only and stays.
                self.cache.clear()
                self.topic_cache.clear()
            if model_name is not None:
                self._model_name = model_name
            self._explicit_version = model_version
            self._model_fingerprint = fingerprint
            self._swap_count += 1
            version = self.model_version
        return {
            "version": version,
            "fingerprint": fingerprint,
            "changed": changed,
            "cache_cleared": changed,
            "swap_count": self._swap_count,
        }

    # ------------------------------------------------------------- plumbing

    def _fingerprint(self, column: Column) -> str:
        """Fingerprint a column, memoised per live column object.

        Repeated traffic usually re-sends the same :class:`Column` objects
        (dashboards keep tables alive between refreshes); hashing their
        values once instead of on every call keeps the cache-hit path free
        of per-value work.  Entries are keyed on object identity and evicted
        by a weakref callback when the column is garbage collected.
        """
        key_id = id(column)
        entry = self._fingerprints.get(key_id)
        if entry is not None and entry[0]() is column:
            return entry[1]
        fingerprint = column_fingerprint(column)
        memo = self._fingerprints
        reference = weakref.ref(column, lambda _, k=key_id, m=memo: m.pop(k, None))
        memo[key_id] = (reference, fingerprint)
        return fingerprint

    def _batch_features(self, columns: Sequence[Column]) -> np.ndarray:
        """Featurize a batch of columns, reusing cached feature vectors.

        All cache misses are deduplicated by fingerprint and featurized in a
        single vectorised :meth:`ColumnFeaturizer.transform_columns` call.
        """
        if not columns:
            return np.zeros((0, self.featurizer.n_features), dtype=np.float64)
        keys = [self._fingerprint(column) for column in columns]
        rows: list[np.ndarray | None] = [self.cache.get(key) for key in keys]
        missing: OrderedDict[str, Column] = OrderedDict()
        for key, row, column in zip(keys, rows, columns):
            if row is None and key not in missing:
                missing[key] = column
        if missing:
            computed = self.featurizer.transform_columns(list(missing.values()))
            fresh = dict(zip(missing, computed))
            for key, vector in fresh.items():
                # Copy: a row view would pin the whole batch matrix in the
                # cache, defeating eviction for large batches.
                self.cache.put(key, vector.copy())
            rows = [fresh[key] if row is None else row for key, row in zip(keys, rows)]
        return np.stack(rows)

    def _table_fingerprint(self, table: Table) -> str:
        """Content hash of a whole table, composed from column fingerprints.

        Reuses the per-column memo, so for repeated traffic this is a few
        dict hits and one digest over 16-byte column hashes — no value is
        re-read.  The composition is
        :func:`~repro.features.sketchstore.combine_fingerprints`, shared with
        ``annotate`` and fleet routing.
        """
        return sketchstore.combine_fingerprints(
            [self._fingerprint(column) for column in table.columns]
        )

    def _batch_topics(self, tables: Sequence[Table]) -> np.ndarray | None:
        """Per-column topic matrix for the batch (None for topic-free models).

        Topic vectors are memoised in their own LRU cache keyed on table
        content: LDA inference reseeds its Gibbs chain per call, so the
        cached vector is bit-identical to a recomputation.  Every miss of
        the batch is inferred in one batched call, each distinct table once.
        """
        if not isinstance(self.column_model, TopicAwareModel):
            return None
        store = self.sketch_store
        sample = self.sketch_sample_rows
        intent = self.column_model.intent_estimator
        tables = [table for table in tables if table.columns]
        keys = [self._table_fingerprint(table) for table in tables]
        vectors: dict[str, np.ndarray] = {}
        missing: dict[str, Table] = {}
        for key, table in zip(keys, tables):
            vector = self.topic_cache.get(key)
            if vector is None and key not in vectors and key not in missing:
                if store is not None:
                    if self._topic_section is None:
                        self._topic_section = store.section(
                            sketchstore.topic_section_config(intent, sample_rows=sample)
                        )
                    vector = sketchstore.topic_vector_from_sketch(
                        store.get(self._topic_section, key), intent.n_topics
                    )
                if vector is None:
                    source = table
                    if sample is not None:
                        source = sketchstore.sampled_table(table, sample)
                    missing[key] = source
                else:
                    self.topic_cache.put(key, vector)
            if vector is not None:
                vectors[key] = vector
        if missing:
            inferred = intent.topic_vectors(list(missing.values()))
            for key, vector in zip(missing, inferred):
                # Copy: a row view would pin the whole batch matrix in the cache.
                vectors[key] = vector.copy()
                self.topic_cache.put(key, vectors[key])
                if store is not None:
                    store.put(self._topic_section, key, {"topic": vector.tolist()})
        if not tables:
            return np.zeros((0, self.column_model.n_topics))
        return np.repeat(
            np.stack([vectors[key] for key in keys]),
            [table.n_columns for table in tables],
            axis=0,
        )

    def _columnwise_proba(self, tables: Sequence[Table]) -> list[np.ndarray]:
        """Column-wise class scores per table, from one batched forward pass."""
        columns = [column for table in tables for column in table.columns]
        n_classes = self.column_model.n_classes
        self._batches += 1
        self._tables += len(tables)
        self._columns += len(columns)
        if not columns:
            return [np.zeros((0, n_classes)) for _ in tables]
        started = time.perf_counter()
        # The three sequential pipeline stages of a batch: cached/vectorised
        # featurization, table-topic inference, column-network forward.
        # Stage spans land in the trace of whichever request anchors the
        # batch (see repro.serving.scheduler.dispatch_batch).
        with span("featurize", n_columns=len(columns)):
            features = self._batch_features(columns)
        with span("topic.infer", n_tables=len(tables)):
            topics = self._batch_topics(tables)
        with span("forward", n_columns=len(columns)):
            probabilities = self.column_model.predict_proba_matrix(features, topics)
        self._predict_seconds += time.perf_counter() - started
        return split_by_table(probabilities, tables)

    # ------------------------------------------------------------- serving

    def predict_proba_tables(self, tables: Sequence[Table]) -> list[np.ndarray]:
        """Structured per-column type distributions for a batch of tables."""
        tables = list(tables)
        with self._swap_lock:
            self.last_batch_version = self.model_version
            return [
                self.model.marginals_from_proba(proba)
                for proba in self._columnwise_proba(tables)
            ]

    def predict_tables(self, tables: Sequence[Table]) -> list[list[str]]:
        """Predicted semantic types for every column of every table.

        The structured decode runs once for the whole batch (one masked
        Viterbi recurrence over a padded unary tensor) instead of once per
        table; the labels equal ``SatoModel.predict_table`` on each table.

        The whole batch — featurization, forward pass, structured decode —
        runs under the swap lock, so a concurrent :meth:`swap_model` can
        only take effect between batches, never inside one.
        ``last_batch_version`` records which model version served the most
        recent batch (read by the micro-batch scheduler to stamp responses).
        """
        tables = list(tables)
        with self._swap_lock:
            self.last_batch_version = self.model_version
            probabilities = self._columnwise_proba(tables)
            with span("decode", n_tables=len(tables)):
                return self.model.labels_from_proba_batch(probabilities)

    def predict_proba_table(self, table: Table) -> np.ndarray:
        """Structured per-column type distributions for one table."""
        return self.predict_proba_tables([table])[0]

    def predict_table(self, table: Table) -> list[str]:
        """Predicted semantic types for one table."""
        return self.predict_tables([table])[0]

    def close(self) -> None:
        """Release the stores this predictor owns (sketch, shared tensors).

        A predictor built from a shared tensor store unmaps the store —
        after that, the model's weight views are gone and the predictor
        must not serve again.
        """
        if self._owns_sketch_store and self.sketch_store is not None:
            self.sketch_store.close()
        if self.shared_store is not None:
            store, self.shared_store = self.shared_store, None
            store.close()

    def cache_info(self) -> dict:
        """Cache statistics of the serving hot path.

        Returns a dictionary with the column-feature LRU cache's current
        ``size`` and ``capacity``, its cumulative ``hits`` and ``misses``
        (one lookup per column served), and the number of live entries in
        the per-object ``fingerprints`` memo.  First-contact traffic shows
        up as misses; repeated traffic over the same columns shows up as
        hits — the ratio is the cache hit rate a server's ``/metrics``
        endpoint reports.

        Examples:
            >>> from repro.corpus import CorpusConfig, CorpusGenerator
            >>> from repro.models import SatoConfig, SatoModel, TrainingConfig
            >>> tables = CorpusGenerator(CorpusConfig(n_tables=5, seed=3)).generate()
            >>> config = SatoConfig(use_topic=False, use_struct=False,
            ...                     training=TrainingConfig(n_epochs=1,
            ...                                             subnet_dim=4,
            ...                                             hidden_dim=8))
            >>> predictor = Predictor(SatoModel(config=config).fit(tables))
            >>> _ = predictor.predict_table(tables[0])   # cold: misses only
            >>> first = predictor.cache_info()
            >>> first["misses"] == tables[0].n_columns and first["hits"] == 0
            True
            >>> _ = predictor.predict_table(tables[0])   # warm: hits only
            >>> second = predictor.cache_info()
            >>> second["hits"] == tables[0].n_columns
            True
            >>> second["misses"] == first["misses"]
            True
        """
        info = {
            "size": len(self.cache),
            "capacity": self.cache.capacity,
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "topic_size": len(self.topic_cache),
            "topic_hits": self.topic_cache.hits,
            "topic_misses": self.topic_cache.misses,
            "fingerprints": len(self._fingerprints),
        }
        if self.sketch_store is not None:
            info["sketch_store"] = self.sketch_store.stats()
        return info

    def predict_info(self) -> dict:
        """Cumulative model-side serving counters (instrumentation hook).

        Tracks every batched forward pass served by this predictor:
        ``batches`` (number of ``predict*`` calls), ``tables`` and
        ``columns`` (work volume), ``predict_seconds`` (time spent in
        featurization, table-topic inference and the column-network
        forward, excluding structured decode), and the serving model's
        identity.  The online server surfaces this under the
        ``predictor`` key of ``GET /metrics``.
        """
        return {
            "batches": self._batches,
            "tables": self._tables,
            "columns": self._columns,
            "predict_seconds": self._predict_seconds,
            "model_name": self._model_name,
            "model_version": self.model_version,
            "model_fingerprint": self.fingerprint,
            "swap_count": self._swap_count,
        }
