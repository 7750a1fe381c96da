"""Doctest pass over the documented hot-path packages.

Every public class/function in ``repro.serving`` and the vectorized
featurization engine carries an ``Examples:`` block; this module executes
them so the documentation cannot silently rot.  Kept inside ``tests/`` so
the tier-1 run (`pytest -x -q`) exercises the examples without extra flags.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

import repro.features.accumulators
import repro.features.engine
import repro.features.sketchstore
import repro.features.stats_features
import repro.ingest.base
import repro.models.batched
import repro.obs.logs
import repro.obs.profile
import repro.obs.prom
import repro.obs.trace
import repro.registry
import repro.registry.shadow
import repro.registry.store
import repro.registry.watch
import repro.serving
import repro.serving.bundle
import repro.serving.component
import repro.serving.predictor
import repro.serving.scheduler
import repro.serving.server
import repro.tables.chunks
import repro.tables.fingerprint

# ``repro.features`` re-exports a ``char_features`` *function*, which
# shadows the submodule as a package attribute — resolve the module itself.
char_features_module = importlib.import_module("repro.features.char_features")

DOCUMENTED_MODULES = [
    char_features_module,
    repro.features.accumulators,
    repro.features.engine,
    repro.features.sketchstore,
    repro.features.stats_features,
    repro.ingest.base,
    repro.models.batched,
    repro.obs.logs,
    repro.obs.profile,
    repro.obs.prom,
    repro.obs.trace,
    repro.registry,
    repro.registry.shadow,
    repro.registry.store,
    repro.registry.watch,
    repro.serving,
    repro.serving.bundle,
    repro.serving.component,
    repro.serving.predictor,
    repro.serving.scheduler,
    repro.serving.server,
    repro.tables.chunks,
    repro.tables.fingerprint,
]

PUBLIC_EXAMPLE_PACKAGES = {
    char_features_module: ["CharAccumulator"],
    repro.features.sketchstore: ["LRUCache"],
    repro.features.stats_features: ["StatAccumulator"],
    repro.models.batched: ["pad_unaries", "split_by_table"],
    repro.obs.logs: ["RequestLogger"],
    repro.obs.profile: ["profile_predictor", "render_flame"],
    repro.obs.prom: ["render_prometheus"],
    repro.obs.trace: ["Span", "StageAggregates", "Tracer"],
    repro.registry.store: ["ModelRegistry"],
    repro.registry.shadow: ["ShadowEvaluator"],
    repro.registry.watch: ["RegistryWatcher"],
    repro.serving.bundle: [
        "save_model",
        "load_model",
        "model_fingerprint",
        "BundleFormatError",
    ],
    repro.serving.component: ["StatefulComponent"],
    repro.serving.predictor: ["Predictor"],
    repro.serving.scheduler: ["MicroBatcher", "ServingMetrics"],
    repro.serving.server: ["serve_in_thread"],
    repro.tables.fingerprint: ["values_fingerprint"],
    repro.features.engine: [
        "VectorizedEngine",
        "char_features_batch",
        "stats_features_batch",
    ],
}


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests_pass(module, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples writing artifacts stay sandboxed
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"


@pytest.mark.parametrize(
    "module", sorted(PUBLIC_EXAMPLE_PACKAGES, key=lambda m: m.__name__),
    ids=lambda m: m.__name__,
)
def test_public_api_has_runnable_examples(module):
    """Every public name keeps a docstring with at least one doctest."""
    finder = doctest.DocTestFinder(exclude_empty=True)
    for name in PUBLIC_EXAMPLE_PACKAGES[module]:
        obj = getattr(module, name)
        assert obj.__doc__, f"{module.__name__}.{name} has no docstring"
        tests = [t for t in finder.find(obj, name=name) if t.examples]
        assert tests, f"{module.__name__}.{name} has no runnable Examples block"
