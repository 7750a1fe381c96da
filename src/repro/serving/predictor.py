"""Batched inference facade with a content-addressed feature and topic cache.

The training path is expensive and rare; the serving path must be cheap and
repeatable.  :class:`Predictor` wraps a fitted
:class:`~repro.models.sato.SatoModel` and serves batches of tables through

1. **one** featurization pass — every column of every table in the batch is
   featurized together (cache misses only), instead of per-column Python
   loops per table,
2. **one** column-network forward pass over all columns of the batch, and
3. a cheap per-table structured decode (Viterbi / marginals) on top of the
   shared column-wise scores.

Featurized columns are memoised in an LRU cache keyed on the column's
content fingerprint (:attr:`~repro.tables.Column.fingerprint`), so repeated
traffic over the same columns (the common case for dashboard-style
workloads) skips featurization entirely.  For topic-aware variants,
inferred table-topic vectors are memoised the same way (keyed on
:attr:`~repro.tables.Table.fingerprint`), which removes the single most
expensive per-table serving step — LDA inference — from repeat traffic.
Both go through one two-tier lookup: the memory LRU, then the optional
persistent sketch store, then one batched compute over the distinct misses.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro.features import sketchstore
from repro.features.sketchstore import LRUCache
from repro.models import SatoModel, TopicAwareModel
from repro.obs import span
from repro.models.batched import split_by_table
from repro.serving.bundle import load_model, model_fingerprint
from repro.serving.shm import load_model_shared
from repro.tables import Column, Table

__all__ = ["Predictor"]


class Predictor:
    """Serve predictions from a fitted Sato model, batched and cached.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.sato.SatoModel`.
    cache_size:
        Capacity of the column-feature LRU cache and (for topic-aware
        variants) of the table-topic LRU cache.  LDA inference is a pure
        function of a table's values (fold-in draws no random numbers), so
        cached topic vectors are bit-identical to recomputed ones — and
        after featurization, topic inference is the largest per-table step
        of the serving path.
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

    Columns are treated as immutable snapshots: the caches key on
    :attr:`Column.fingerprint <repro.tables.Column.fingerprint>`, which is
    hashed once per column object and assumes its values never change.

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
        if sketch_sample_rows is not None and sketch_sample_rows < 1:
            raise ValueError("sketch_sample_rows must be >= 1")
        self.model = model
        self.column_model = model.column_model
        self.sketch_store, self._owns_sketch_store = sketchstore.open_store(
            sketch_store
        )
        self.sketch_sample_rows = sketch_sample_rows
        # Store section (id, vector size) per sketch field of the serving
        # model; resolved lazily and dropped on swap.
        self._sections: dict[str, tuple[str, int]] = {}
        self.cache = LRUCache(cache_size)
        self.topic_cache = LRUCache(cache_size)
        # Hot-swap state: the lock serializes whole prediction batches
        # against model swaps, so a batch is always served start-to-finish
        # by one model (no mixed batches), and a swap simply waits for the
        # in-flight batch to finish.  The model fingerprint (a hash over
        # every fitted tensor) is computed lazily: an untagged predictor
        # needs it to stamp its first batch with a version, registry-tagged
        # predictors only when a swap compares models.
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
            # Re-resolve sections lazily: a new model hashes to new
            # sections, so old sketches become misses, not wrong hits.
            self._sections.clear()
            if changed:
                # Feature vectors and topic vectors are functions of model
                # state; a different fingerprint invalidates both.
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

    def _section(self, field: str) -> tuple[str, int]:
        """The store section and vector size of one sketch field.

        Feature rows (``"row"``) are stored standardized, so their section
        hashes the whole featurizer state, standardizer included.  Topic
        vectors (``"topic"``) use the section ``annotate`` writes too.
        """
        if field not in self._sections:
            sample = self.sketch_sample_rows
            if field == "row":
                featurizer = self.column_model.featurizer
                config = sketchstore.column_section_config(
                    featurizer, "predictor", sample_rows=sample
                )
                config["state"] = sketchstore.state_hash(featurizer.state_dict())
                size = featurizer.n_features
            else:
                intent = self.column_model.intent_estimator
                config = sketchstore.topic_section_config(intent, sample_rows=sample)
                size = intent.n_topics
            self._sections[field] = (self.sketch_store.section(config), size)
        return self._sections[field]

    def _lookup(
        self,
        cache: LRUCache,
        field: str,
        sources: Sequence,
        compute: Callable[[list], np.ndarray],
        sampled: Callable,
    ) -> list[np.ndarray]:
        """One vector per source (column or table), keyed by its fingerprint.

        The two-tier content cache: every occurrence is looked up in the
        memory ``cache`` once, so hits and misses count per occurrence;
        each distinct miss then reads the store section once, and the
        rest are computed in one ``compute`` call over their sources (the
        ``sampled`` copies when ``sketch_sample_rows`` is set).  Computed
        vectors are written back to both tiers.
        """
        keys = [source.fingerprint for source in sources]
        found = [cache.get(key) for key in keys]
        todo = {}
        for key, vector, source in zip(keys, found, sources):
            if vector is None:
                todo.setdefault(key, source)
        fresh: dict[str, np.ndarray] = {}
        store = self.sketch_store
        if store is not None and todo:
            section, size = self._section(field)
            with span("sketch.lookup", field=field) as lookup:
                for key in list(todo):
                    sketch = store.get(section, key)
                    vector = sketchstore.sketch_vector(sketch, field, size)
                    if vector is not None:
                        fresh[key] = vector
                        cache.put(key, vector)
                        del todo[key]
                lookup.meta = {"hits": len(fresh), "misses": len(todo)}
        if todo:
            misses = list(todo.values())
            if self.sketch_sample_rows is not None:
                misses = [sampled(item, self.sketch_sample_rows) for item in misses]
            for key, vector in zip(todo, compute(misses)):
                # Copy: a row view would pin the whole batch matrix in the cache.
                fresh[key] = vector = vector.copy()
                cache.put(key, vector)
                if store is not None:
                    store.put(section, key, {field: sketchstore.pack_vector(vector)})
        return [
            fresh[key] if vector is None else vector
            for key, vector in zip(keys, found)
        ]

    def _batch_features(self, columns: Sequence[Column]) -> np.ndarray:
        """Feature matrix of a batch of columns, through the content cache.

        The distinct misses are featurized in a single vectorised
        :meth:`ColumnFeaturizer.transform_columns` call.
        """
        featurizer = self.column_model.featurizer
        if not columns:
            return np.zeros((0, featurizer.n_features), dtype=np.float64)
        rows = self._lookup(
            self.cache,
            "row",
            columns,
            featurizer.transform_columns,
            sketchstore.sampled_column,
        )
        return np.stack(rows)

    def _batch_topics(self, tables: Sequence[Table]) -> np.ndarray | None:
        """Per-column topic matrix for the batch (None for topic-free models).

        Topic vectors go through the content cache keyed on table content:
        LDA fold-in is deterministic, so a cached vector is bit-identical to
        a recomputation.  The distinct misses of the batch are inferred in
        one batched call.
        """
        if not isinstance(self.column_model, TopicAwareModel):
            return None
        tables = [table for table in tables if table.columns]
        if not tables:
            return np.zeros((0, self.column_model.n_topics))
        vectors = self._lookup(
            self.topic_cache,
            "topic",
            tables,
            self.column_model.intent_estimator.topic_vectors,
            sketchstore.sampled_table,
        )
        return np.repeat(
            np.stack(vectors), [table.n_columns for table in tables], axis=0
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
        (one lookup per column served), the same counters of the
        table-topic cache, and the sketch store's counters when one is
        attached.  First-contact traffic shows
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
