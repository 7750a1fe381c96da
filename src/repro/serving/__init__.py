"""Model persistence and batched serving (train once, serve many).

The training path (``SatoModel.fit``) is expensive; the serving path must
be cheap, repeatable and separately deployable.  This package provides the
three pieces that make the split possible:

* :class:`~repro.serving.component.StatefulComponent` — the structural
  protocol (``config_dict`` / ``state_dict`` / ``load_state_dict``) every
  stateful pipeline layer implements,
* :func:`~repro.serving.bundle.save_model` /
  :func:`~repro.serving.bundle.load_model` — the on-disk artifact bundle
  (JSON manifest + one ``.npz`` of tensors) round-tripping a fitted model
  bit-exactly,
* :class:`~repro.serving.predictor.Predictor` — the batched inference
  facade with a content-addressed feature and topic cache,
* :class:`~repro.serving.scheduler.MicroBatcher` — the online micro-batching
  request scheduler (admission control, graceful drain, latency accounting),
* :class:`~repro.serving.server.ServingServer` — the stdlib HTTP front end
  (``/v1/predict``, ``/v1/predict_batch``, ``/healthz``, ``/metrics``),
* :class:`~repro.serving.fleet.ServingFleet` — the prefork multi-worker
  serving pool: one shared-memory copy of the weights
  (:mod:`repro.serving.shm`), fingerprint-affinity routing
  (:class:`~repro.serving.fleet.HashRing`), fleet-wide two-phase model
  promotion and crash-restart supervision.
"""

from repro.serving.component import StatefulComponent
from repro.serving.bundle import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    TENSORS_NAME,
    BundleFormatError,
    load_model,
    load_model_from_state,
    model_fingerprint,
    read_state,
    save_model,
)
from repro.serving.fleet import (
    FleetError,
    HashRing,
    ServingFleet,
    WorkerSpec,
    table_routing_key,
)
from repro.serving.shm import (
    SharedTensorStore,
    ShmFormatError,
    load_model_shared,
    pack_bundle,
    remove_store,
)
from repro.serving.predictor import Predictor
from repro.serving.scheduler import (
    DrainingError,
    MicroBatcher,
    QueueFullError,
    ServingMetrics,
)
from repro.serving.server import (
    MalformedRequest,
    ServerHandle,
    ServingServer,
    serve_in_thread,
)

__all__ = [
    "StatefulComponent",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "TENSORS_NAME",
    "BundleFormatError",
    "save_model",
    "load_model",
    "load_model_from_state",
    "read_state",
    "model_fingerprint",
    "SharedTensorStore",
    "ShmFormatError",
    "load_model_shared",
    "pack_bundle",
    "remove_store",
    "FleetError",
    "HashRing",
    "ServingFleet",
    "WorkerSpec",
    "table_routing_key",
    "Predictor",
    "DrainingError",
    "MicroBatcher",
    "QueueFullError",
    "ServingMetrics",
    "MalformedRequest",
    "ServerHandle",
    "ServingServer",
    "serve_in_thread",
]
