"""Artifact bundle persistence: train once, serve many.

A *bundle* is a directory holding everything needed to serve a fitted
:class:`~repro.models.sato.SatoModel` without retraining:

``manifest.json``
    Format version, model variant, the full nested ``config_dict`` tree,
    the semantic type vocabulary the model was trained against, and the
    feature-group slices of the featurizer.
``tensors.npz``
    Every fitted tensor of every component, under the dotted keys produced
    by the model's flattened ``state_dict``.

``save_model`` / ``load_model`` round-trip a model bit-exactly: tensors are
stored as float64 ``.npy`` entries inside the archive, and inference draws
no random numbers (LDA topics are folded in by a deterministic fixed
point), so a reloaded model reproduces the in-memory model's predictions
exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.features import ColumnFeaturizer
from repro.models import (
    SatoConfig,
    SatoModel,
    SherlockModel,
    TopicAwareModel,
    TrainingConfig,
)
from repro.topic import LatentDirichletAllocation, TableIntentEstimator
from repro.types import SEMANTIC_TYPES

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "TENSORS_NAME",
    "BundleFormatError",
    "save_model",
    "read_state",
    "load_model_from_state",
    "load_model",
    "model_fingerprint",
]

#: Version of the on-disk bundle layout.  Bump on incompatible changes,
#: and whenever an old bundle would load but silently predict differently.
#: Version 2: LDA topics are inferred by EM fold-in instead of a Gibbs chain,
#: so version-1 networks, trained on Gibbs topic vectors, must be retrained.
FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.npz"


class BundleFormatError(RuntimeError):
    """Raised when a bundle directory cannot be (safely) loaded.

    Examples:
        >>> import tempfile
        >>> from repro.serving import BundleFormatError, load_model
        >>> with tempfile.TemporaryDirectory() as empty:
        ...     try:
        ...         load_model(empty)
        ...     except BundleFormatError:
        ...         print("not a bundle")
        not a bundle
    """


def save_model(model: SatoModel, path: str | Path) -> Path:
    """Persist a fitted Sato model as a bundle directory.

    Returns the bundle path.  Raises ``RuntimeError`` when the model (or any
    of its components) is not fitted.

    Examples:
        >>> import tempfile
        >>> from repro.corpus import CorpusConfig, CorpusGenerator
        >>> from repro.models import SatoConfig, SatoModel, TrainingConfig
        >>> tables = CorpusGenerator(CorpusConfig(n_tables=5, seed=1)).generate()
        >>> config = SatoConfig(use_topic=False, use_struct=False,
        ...                     training=TrainingConfig(n_epochs=1,
        ...                                             subnet_dim=4,
        ...                                             hidden_dim=8))
        >>> model = SatoModel(config=config).fit(tables)
        >>> with tempfile.TemporaryDirectory() as root:
        ...     bundle = save_model(model, root + "/bundle")
        ...     sorted(p.name for p in bundle.iterdir())
        ['manifest.json', 'tensors.npz']
    """
    path = Path(path)
    state = model.state_dict()
    path.mkdir(parents=True, exist_ok=True)
    featurizer = model.column_model.featurizer
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": model.config_dict(),
        "semantic_types": list(SEMANTIC_TYPES),
        "feature_groups": [
            {"name": g.name, "start": g.start, "stop": g.stop}
            for g in featurizer.groups
        ],
        "tensor_keys": sorted(state),
    }
    with (path / MANIFEST_NAME).open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    np.savez(path / TENSORS_NAME, **state)
    return path


def model_fingerprint(model: SatoModel) -> str:
    """Content hash of a fitted model (configuration + every tensor).

    Two models fingerprint identically exactly when they are functionally
    the same: same nested ``config_dict`` tree and bit-identical fitted
    state.  The serving layer uses this to decide whether a hot swap
    actually changed the model (and therefore whether feature/topic caches
    must be invalidated), and the registry records it per version so an
    on-disk bundle can be integrity-checked against its manifest.

    Examples:
        >>> from repro.corpus import CorpusConfig, CorpusGenerator
        >>> from repro.models import SatoConfig, SatoModel, TrainingConfig
        >>> tables = CorpusGenerator(CorpusConfig(n_tables=5, seed=1)).generate()
        >>> config = SatoConfig(use_topic=False, use_struct=False,
        ...                     training=TrainingConfig(n_epochs=1,
        ...                                             subnet_dim=4,
        ...                                             hidden_dim=8))
        >>> model = SatoModel(config=config).fit(tables)
        >>> fp = model_fingerprint(model)
        >>> len(fp) == 32 and fp == model_fingerprint(model)
        True
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(model.config_dict(), sort_keys=True).encode("utf-8"))
    state = model.state_dict()
    for key in sorted(state):
        tensor = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(tensor.dtype).encode("ascii"))
        digest.update(repr(tensor.shape).encode("ascii"))
        digest.update(tensor.tobytes())
    return digest.hexdigest()


def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleFormatError(f"no {MANIFEST_NAME} in {path}")
    try:
        with manifest_path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as error:
        raise BundleFormatError(
            f"corrupt {MANIFEST_NAME} in {path}: {error}"
        ) from error
    version = manifest.get("format_version")
    if version == 1:
        raise BundleFormatError(
            "bundle format version 1 predates fold-in LDA inference (its "
            "network learned from Gibbs-sampled topic vectors); retrain it "
            "with `repro-sato train`"
        )
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"bundle format version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    if manifest.get("semantic_types") != list(SEMANTIC_TYPES):
        raise BundleFormatError(
            "bundle was trained against a different semantic type vocabulary"
        )
    return manifest


def _build_column_model(column_config: dict) -> SherlockModel:
    """Rebuild an unfitted column model from its ``config_dict``."""
    training = TrainingConfig(**column_config["training"])
    featurizer = ColumnFeaturizer(**column_config["featurizer"])
    model_type = column_config.get("type")
    if model_type == "TopicAwareModel":
        intent_config = column_config["intent"]
        estimator = TableIntentEstimator(
            n_topics=intent_config["n_topics"],
            max_tokens_per_table=intent_config["max_tokens_per_table"],
        )
        estimator.lda = LatentDirichletAllocation(**intent_config["lda"])
        return TopicAwareModel(
            featurizer=featurizer,
            intent_estimator=estimator,
            config=training,
            n_classes=column_config["n_classes"],
            compress_topic=column_config["compress_topic"],
        )
    if model_type == "SherlockModel":
        return SherlockModel(
            featurizer=featurizer,
            config=training,
            n_classes=column_config["n_classes"],
        )
    raise BundleFormatError(f"unsupported column model type {model_type!r}")


def read_state(path: str | Path) -> dict[str, np.ndarray]:
    """Read a bundle's tensor state from its ``.npz`` archive.

    Returns the raw ``{dotted key: array}`` state dict without building a
    model — the input both to :func:`load_model_from_state` and to the
    shared-memory packer (:func:`repro.serving.shm.pack_bundle`).
    """
    path = Path(path)
    tensors_path = path / TENSORS_NAME
    if not tensors_path.is_file():
        raise BundleFormatError(f"no {TENSORS_NAME} in {path}")
    with np.load(tensors_path, allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


def load_model_from_state(path: str | Path, state: dict[str, np.ndarray]) -> SatoModel:
    """Rebuild a bundle's model around an externally supplied tensor state.

    ``path`` still provides the manifest (config tree, tensor key list,
    variant); ``state`` provides the tensors — either the bundle's own
    ``.npz`` contents (:func:`read_state`) or zero-copy views into a
    shared-memory store (:class:`repro.serving.shm.SharedTensorStore`).
    The same manifest checks run either way, so a shared-memory load is
    validated exactly like the classic path.  A config tree that lacks a
    key the constructors need, or carries one they do not take, raises
    :class:`BundleFormatError` naming the key; a value of the wrong type
    or size raises it too.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    expected_keys = manifest.get("tensor_keys")
    if expected_keys is not None and sorted(state) != expected_keys:
        missing = sorted(set(expected_keys) - set(state))
        extra = sorted(set(state) - set(expected_keys))
        raise BundleFormatError(
            f"tensor state does not match the manifest "
            f"(missing: {missing}, unexpected: {extra})"
        )
    try:
        model_config = manifest["model"]
        sato_raw = dict(model_config["sato"])
        training = TrainingConfig(**sato_raw.pop("training"))
        sato_config = SatoConfig(training=training, **sato_raw)
        column_model = _build_column_model(model_config["column_model"])
        model = SatoModel(config=sato_config, column_model=column_model)
        # A value of the wrong type or size fails only here, where the
        # network is built around it.
        model.load_state_dict(state)
    except KeyError as error:
        raise BundleFormatError(f"manifest lacks the config key {error}") from error
    except (TypeError, ValueError) as error:
        raise BundleFormatError(f"manifest config does not fit: {error}") from error

    variant = model_config.get("variant")
    if variant is not None and variant != model.name:
        raise BundleFormatError(
            f"manifest variant {variant!r} does not match the rebuilt "
            f"model's variant {model.name!r}"
        )
    return model


def load_model(path: str | Path) -> SatoModel:
    """Load a fitted Sato model from a bundle directory (no retraining).

    Examples:
        >>> import tempfile
        >>> from repro.corpus import CorpusConfig, CorpusGenerator
        >>> from repro.models import SatoConfig, SatoModel, TrainingConfig
        >>> tables = CorpusGenerator(CorpusConfig(n_tables=5, seed=1)).generate()
        >>> config = SatoConfig(use_topic=False, use_struct=False,
        ...                     training=TrainingConfig(n_epochs=1,
        ...                                             subnet_dim=4,
        ...                                             hidden_dim=8))
        >>> model = SatoModel(config=config).fit(tables)
        >>> with tempfile.TemporaryDirectory() as root:
        ...     reloaded = load_model(save_model(model, root + "/bundle"))
        ...     (reloaded.name, reloaded.predict_table(tables[0])
        ...      == model.predict_table(tables[0]))
        ('Base', True)
    """
    path = Path(path)
    return load_model_from_state(path, read_state(path))
