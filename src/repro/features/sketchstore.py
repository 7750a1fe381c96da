"""Persistent, content-fingerprint-keyed store of per-column feature sketches.

PR 8 made every per-column quantity the featurizer needs reducible to a
mergeable accumulator; this module makes that state *persistent*.  A
:class:`SketchStore` maps ``(section, column fingerprint)`` to a JSON
sketch — char/stat accumulator state, the capped token prefix and the
assembled raw feature row — so re-annotating a mostly-unchanged corpus
only featurizes the columns whose content actually changed.  Inferred
table-topic vectors are stored the same way, keyed by the table
fingerprint, removing LDA inference from repeat traffic, and so are
``annotate``'s typed records, removing the model from unchanged tables.

Design points:

* **Keys are content fingerprints.**  Entries are keyed by
  :attr:`~repro.tables.Column.fingerprint` (and, for topic vectors,
  :attr:`~repro.tables.Table.fingerprint`), the one column identity every
  cache in the system shares.  Headers never hash: they are not model
  input.
* **Sections are config hashes.**  A sketch is only reusable under the
  featurizer configuration that produced it, so entries live in sections
  keyed by a hash over the store format version, the producing code path,
  the char vocabulary, the token caps, the sampling dial and the fitted
  state (:func:`state_hash`).  A config mismatch is simply a different
  section — a miss, never a wrong hit.
* **Append-friendly on-disk layout.**  Each section is one append-only
  log of CRC-framed JSON records under the store directory; a ``put`` is
  a single flushed append.  Re-puts append a newer record that shadows
  the older one at load time.  Vectors travel as base64 float64 text
  (:func:`pack_vector`): opening a section decodes its whole log, and a
  JSON float list costs several times more to parse than its bytes.
* **LRU-bounded with explicit GC.**  The in-memory index of each section
  is an :class:`LRUCache` of at most ``capacity`` entries; :meth:`gc`
  compacts each log down to the live entries (and optionally deletes
  stale sections from older configs).
* **Corruption-tolerant.**  A corrupt or truncated record ends the
  readable prefix of its log: the store warns (:class:`SketchStoreWarning`),
  truncates the log back to the last good record and carries on.  A bad
  store can cost recomputation, never correctness and never a crash.

The store assumes a single writer process (the prefork fleet's processes
must not share one store directory; concurrent appends would interleave
records).

Examples:
    >>> import tempfile
    >>> root = tempfile.mkdtemp()
    >>> store = SketchStore(root, capacity=4)
    >>> section = store.section({"producer": "doctest"})
    >>> store.get(section, "abc") is None
    True
    >>> store.put(section, "abc", {"row": [1.0, 2.0]})
    >>> store.get(section, "abc")["row"]
    [1.0, 2.0]
    >>> reopened = SketchStore(root, capacity=4)
    >>> reopened.get(reopened.section({"producer": "doctest"}), "abc")["row"]
    [1.0, 2.0]
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import threading
import warnings
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.features.accumulators import ColumnAccumulator
from repro.features.char_features import CHAR_VOCABULARY
from repro.tables import Column, ColumnFingerprinter, Table
from repro.types import TYPE_TO_INDEX

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_DEFER_VALUES",
    "STORE_FORMAT",
    "SketchStoreWarning",
    "LRUCache",
    "SketchStore",
    "StreamSketcher",
    "state_hash",
    "substrate_hash",
    "column_section_config",
    "topic_section_config",
    "record_section_config",
    "column_sketch",
    "pack_vector",
    "record_sketch",
    "sketch_vector",
    "sketch_types",
    "sketch_tokens",
    "open_store",
    "sampled_column",
    "sampled_table",
]

#: On-disk format version; bumped on any incompatible layout change and
#: folded into every section config, so old entries become misses.
#: Format 2 stores vectors packed (:func:`pack_vector`), not as JSON lists.
STORE_FORMAT = 2

#: Default per-section LRU bound of the in-memory index.
DEFAULT_CAPACITY = 16384

#: Default total deferred-value budget of :class:`StreamSketcher` before
#: it falls back to eager accumulation (bounded-memory guarantee).
DEFAULT_DEFER_VALUES = 262144

_MAGIC = b"SKC1"
_HEADER_SIZE = 12  # magic + uint32 payload length + uint32 crc32


class SketchStoreWarning(UserWarning):
    """Raised as a warning when a store entry or log is unusable.

    The store never turns corruption into an exception: the affected
    entries are dropped (and recomputed by the caller) and the log is
    truncated back to its last good record.
    """


# ------------------------------------------------------------ state hashes


def state_hash(state: dict, prefixes: tuple[str, ...] | None = None) -> str:
    """Hash a ``state_dict`` of named arrays (dtype + shape + bytes).

    ``prefixes`` restricts the hash to keys starting with any of the
    given prefixes (e.g. the embedding substrate without the
    standardizer, which sketches bypass by storing *raw* rows).
    """
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(state):
        if prefixes is not None and not key.startswith(prefixes):
            continue
        array = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def substrate_hash(featurizer) -> str:
    """Hash of the fitted embedding substrate (word + para arrays only).

    The standardizer is deliberately excluded: ``annotate``'s sketches
    store raw (unstandardized) feature rows and re-standardize on every
    hit, so a refreshed mean/std never invalidates them.
    """
    return state_hash(featurizer.state_dict(), prefixes=("word.", "para."))


# --------------------------------------------------------- section configs


def column_section_config(
    featurizer,
    producer: str,
    token_cap: int | None = None,
    sample_rows: int | None = None,
) -> dict:
    """Section config for fitted-featurizer column sketches.

    ``producer`` names the code path that computed the rows (the
    ``"accumulator"`` streaming path of ``annotate``, which stores raw
    rows plus tokens, or ``"predictor"`` for the serving path, which
    stores standardized rows and adds the whole featurizer state to the
    config), so paths with different bit-level guarantees never share
    entries.  The name is part of the section id: changing it would turn
    every stored row into a miss.
    """
    if token_cap is None:
        token_cap = featurizer.max_tokens_per_column
    return {
        "kind": "column-sketch",
        "format": STORE_FORMAT,
        "producer": producer,
        "char_vocabulary": CHAR_VOCABULARY,
        "word_dim": featurizer.word_dim,
        "para_dim": featurizer.para_dim,
        "max_tokens_per_column": featurizer.max_tokens_per_column,
        "token_cap": token_cap,
        "sample_rows": sample_rows,
        "substrate": substrate_hash(featurizer),
    }


def topic_section_config(intent, sample_rows: int | None = None) -> dict:
    """Section config for table-topic vectors keyed by table fingerprint.

    A vector depends on how it was inferred as well as on the fitted LDA
    state: ``producer`` names the inference algorithm and ``intent`` holds
    its settings (``infer_iterations`` among them), so vectors inferred
    any other way never share entries.
    """
    return {
        "kind": "table-topic",
        "format": STORE_FORMAT,
        "producer": "topic-fold-in",
        "intent": intent.config_dict(),
        "sample_rows": sample_rows,
        "state": state_hash(intent.state_dict()),
    }


def record_section_config(model, sample_rows: int | None = None) -> dict:
    """Section config for ``annotate``'s typed records keyed by table fingerprint.

    A record (each column's predicted type and confidence) is the whole
    model's output for a table's content, so the section hashes the
    model's full configuration and fitted state.
    """
    return {
        "kind": "table-record",
        "format": STORE_FORMAT,
        "model": model.config_dict(),
        "sample_rows": sample_rows,
        "state": state_hash(model.state_dict()),
    }


# ------------------------------------------------------- sketch (de)coding


def column_sketch(
    featurizer, accumulator, n_rows: int, row: np.ndarray | None = None
) -> dict:
    """Full sketch of one column under a fitted featurizer.

    Holds the exact accumulator states (char counts, stat counter, token
    prefix) and the assembled raw feature row, so a hit can serve the row
    directly and rebuild the topic document from the tokens.  ``row``
    lets a caller that already finalized the accumulator pass the raw row
    in instead of recomputing it.
    """
    if row is None:
        row = featurizer.raw_from_accumulator(accumulator)
    return {
        "n": int(n_rows),
        "tokens": accumulator.token_list(),
        "char": accumulator.char.to_state(),
        "stat": accumulator.stat.to_state(),
        "row": pack_vector(row),
    }


def pack_vector(vector: np.ndarray) -> str:
    """A float vector as base64 text of its little-endian float64 bytes.

    Exact (every bit round-trips through :func:`sketch_vector`), and about
    six times cheaper to decode than a JSON list of the same floats.
    """
    data = np.ascontiguousarray(vector, dtype="<f8").tobytes()
    return base64.b64encode(data).decode("ascii")


def sketch_vector(sketch: dict | None, field: str, size: int) -> np.ndarray | None:
    """The ``size``-long vector packed under ``field``, or ``None`` when unusable.

    ``field`` is ``"row"`` for feature rows and ``"topic"`` for table-topic
    vectors; a missing, malformed or wrongly sized entry reads as a miss.
    The array is read-only: it is a view of the decoded bytes.
    """
    if not isinstance(sketch, dict):
        return None
    packed = sketch.get(field)
    if not isinstance(packed, str):
        return None
    try:
        data = base64.b64decode(packed, validate=True)
    except (binascii.Error, ValueError):
        return None
    if len(data) != 8 * size:
        return None
    return np.frombuffer(data, dtype="<f8")


def record_sketch(types: list[str], confidences: list[float]) -> dict:
    """A table record for the store: per column, its type and confidence."""
    return {"types": list(types), "confidence": list(confidences)}


def sketch_types(
    sketch: dict | None, n_columns: int
) -> tuple[list[str], list[float]] | None:
    """The per-column types and confidences of a :func:`record_sketch`, or ``None``.

    The entry must hold ``n_columns`` known semantic type names under
    ``"types"`` and as many floats under ``"confidence"``; anything else
    reads as a miss.
    """
    if not isinstance(sketch, dict):
        return None
    types = sketch.get("types")
    confidences = sketch.get("confidence")
    if not (
        isinstance(types, list)
        and isinstance(confidences, list)
        and len(types) == len(confidences) == n_columns
        and all(isinstance(name, str) and name in TYPE_TO_INDEX for name in types)
        and all(type(value) is float for value in confidences)
    ):
        return None
    return types, confidences


def sketch_tokens(sketch: dict | None) -> list[str] | None:
    """The token prefix of a sketch, or ``None`` when unusable."""
    if not isinstance(sketch, dict):
        return None
    tokens = sketch.get("tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        return None
    return tokens


# ------------------------------------------------------------ sample dials


def sampled_column(column, sample_rows: int):
    """A copy of ``column`` trimmed to its first ``sample_rows`` values."""
    if len(column.values) <= sample_rows:
        return column
    return Column(
        values=list(column.values[:sample_rows]),
        header=column.header,
        semantic_type=column.semantic_type,
    )


def sampled_table(table, sample_rows: int):
    """A copy of ``table`` with every column trimmed to ``sample_rows``."""
    if all(len(column.values) <= sample_rows for column in table.columns):
        return table
    return Table(
        columns=[sampled_column(column, sample_rows) for column in table.columns],
        table_id=table.table_id,
        metadata=dict(table.metadata),
    )


# ---------------------------------------------------------------- the store


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss accounting.

    The one LRU of the system: the serving predictor's feature and topic
    caches and every :class:`SketchStore` section index are instances.

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
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """Look up a key, refreshing its recency; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value) -> None:
        """Insert a key, evicting the least recently used entry when full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def items(self):
        """Every ``(key, value)`` pair, least recently used first."""
        return self._entries.items()

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class _Section:
    """One config hash's entries: an LRU index over an append-only log."""

    __slots__ = ("path", "entries", "handle")

    def __init__(self, path: Path, capacity: int) -> None:
        self.path = path
        self.entries = LRUCache(capacity)
        self.handle = None


class SketchStore:
    """Persistent LRU-bounded map of content fingerprints to sketches.

    Parameters
    ----------
    path:
        Store directory (created on first use).  Layout: ``STORE.json``
        (format metadata) plus one ``<config-hash>.log`` append-only
        record log and one ``<config-hash>.json`` config sidecar per
        section.
    capacity:
        Per-section LRU bound of the in-memory index.  Logs grow past it
        on disk until :meth:`gc` compacts them.
    """

    def __init__(self, path, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.path = Path(path)
        self.capacity = capacity
        self.corrupt_records = 0
        self._sections: dict[str, _Section] = {}
        self._lock = threading.RLock()
        self.path.mkdir(parents=True, exist_ok=True)
        self._check_meta()

    # ------------------------------------------------------------- lifecycle

    def _check_meta(self) -> None:
        meta_path = self.path / "STORE.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                known = meta.get("format")
            except (OSError, ValueError):
                known = None
            if known != STORE_FORMAT:
                warnings.warn(
                    f"sketch store at {self.path} has format {known!r}, "
                    f"expected {STORE_FORMAT}; treating it as empty",
                    SketchStoreWarning,
                    stacklevel=3,
                )
                self._stale_format = True
            else:
                self._stale_format = False
        else:
            self._stale_format = False
        meta_path.write_text(
            json.dumps({"format": STORE_FORMAT}, indent=2) + "\n",
            encoding="utf-8",
        )

    def close(self) -> None:
        """Flush and close every open section log handle.

        The store stays usable: handles reopen lazily on the next put.
        """
        with self._lock:
            for section in self._sections.values():
                if section.handle is not None:
                    section.handle.close()
                    section.handle = None

    def __enter__(self) -> "SketchStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- sections

    def section(self, config: dict) -> str:
        """Resolve (and lazily load) the section for a config dict.

        The returned id is a hash over the canonical JSON encoding of
        ``config``; any difference in configuration yields a different
        section, so stale sketches are structurally unreachable.
        """
        encoded = json.dumps(config, sort_keys=True, ensure_ascii=True)
        section_id = hashlib.blake2b(
            encoded.encode("utf-8"), digest_size=16
        ).hexdigest()
        with self._lock:
            if section_id not in self._sections:
                section = _Section(self.path / f"{section_id}.log", self.capacity)
                if not self._stale_format:
                    self._load_section(section)
                self._sections[section_id] = section
                sidecar = self.path / f"{section_id}.json"
                if not sidecar.exists():
                    sidecar.write_text(encoded + "\n", encoding="utf-8")
        return section_id

    def _load_section(self, section: _Section) -> None:
        try:
            data = section.path.read_bytes()
        except FileNotFoundError:
            return
        entries = section.entries
        offset = 0
        size = len(data)
        reason = None
        while offset < size:
            if size - offset < _HEADER_SIZE:
                reason = "truncated record header"
                break
            if data[offset : offset + 4] != _MAGIC:
                reason = "bad record magic"
                break
            length = int.from_bytes(data[offset + 4 : offset + 8], "little")
            crc = int.from_bytes(data[offset + 8 : offset + 12], "little")
            start = offset + _HEADER_SIZE
            end = start + length
            if end > size:
                reason = "truncated record payload"
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                reason = "record checksum mismatch"
                break
            try:
                record = json.loads(payload.decode("ascii"))
            except (UnicodeDecodeError, ValueError):
                reason = "undecodable record payload"
                break
            if not isinstance(record, dict) or not isinstance(record.get("fp"), str):
                reason = "malformed record"
                break
            entries.put(record["fp"], record.get("sketch"))
            offset = end
        if reason is not None:
            self.corrupt_records += 1
            warnings.warn(
                f"sketch log {section.path.name}: {reason} at byte {offset}; "
                f"keeping the {len(entries)} readable entr"
                f"{'y' if len(entries) == 1 else 'ies'} and truncating "
                "the log (dropped entries will be recomputed)",
                SketchStoreWarning,
                stacklevel=4,
            )
            with open(section.path, "r+b") as handle:
                handle.truncate(offset)

    # --------------------------------------------------------------- get/put

    def get(self, section_id: str, fingerprint: str) -> dict | None:
        """Look up one sketch, refreshing its LRU recency.

        The returned dict is the store's live entry: treat it as
        read-only.
        """
        with self._lock:
            section = self._sections.get(section_id)
            if section is None:
                raise KeyError(f"unknown section {section_id!r}")
            return section.entries.get(fingerprint)

    def put(self, section_id: str, fingerprint: str, sketch: dict) -> None:
        """Append one sketch to the section log and index it."""
        record = json.dumps(
            {"fp": fingerprint, "sketch": sketch},
            ensure_ascii=True,
            separators=(",", ":"),
        ).encode("ascii")
        frame = (
            _MAGIC
            + len(record).to_bytes(4, "little")
            + zlib.crc32(record).to_bytes(4, "little")
            + record
        )
        with self._lock:
            section = self._sections.get(section_id)
            if section is None:
                raise KeyError(f"unknown section {section_id!r}")
            if section.handle is None:
                section.handle = open(section.path, "ab")
            section.handle.write(frame)
            section.handle.flush()
            section.entries.put(fingerprint, sketch)

    # -------------------------------------------------------------------- gc

    def gc(self, purge_stale: bool = False) -> dict:
        """Compact every loaded section log down to its live LRU entries.

        Logs are rewritten atomically (temp file + ``os.replace``) in
        recency order, oldest first, so a reload reproduces the same LRU
        order.  With ``purge_stale``, section files not opened by this
        store instance (older config hashes) are deleted too.

        Returns a summary: live entry count, bytes reclaimed and the
        number of stale section files purged.
        """
        reclaimed = 0
        live = 0
        purged = 0
        with self._lock:
            for section_id, section in self._sections.items():
                if section.handle is not None:
                    section.handle.close()
                    section.handle = None
                before = section.path.stat().st_size if section.path.exists() else 0
                tmp_path = section.path.with_suffix(".log.tmp")
                with open(tmp_path, "wb") as handle:
                    for fingerprint, sketch in section.entries.items():
                        record = json.dumps(
                            {"fp": fingerprint, "sketch": sketch},
                            ensure_ascii=True,
                            separators=(",", ":"),
                        ).encode("ascii")
                        handle.write(_MAGIC)
                        handle.write(len(record).to_bytes(4, "little"))
                        handle.write(zlib.crc32(record).to_bytes(4, "little"))
                        handle.write(record)
                os.replace(tmp_path, section.path)
                reclaimed += max(0, before - section.path.stat().st_size)
                live += len(section.entries)
            if purge_stale:
                keep = {f"{sid}.log" for sid in self._sections}
                keep |= {f"{sid}.json" for sid in self._sections}
                keep.add("STORE.json")
                for child in self.path.iterdir():
                    if child.name in keep or child.suffix not in (".log", ".json"):
                        continue
                    child.unlink()
                    purged += 1
        return {
            "sections": len(self._sections),
            "live_entries": live,
            "reclaimed_bytes": reclaimed,
            "purged_files": purged,
        }

    def stats(self) -> dict:
        """Cumulative hit/miss/corruption counters and per-section sizes.

        Hits and misses are the sums of the section indexes' counters.
        """
        with self._lock:
            sections = self._sections.values()
            return {
                "hits": sum(section.entries.hits for section in sections),
                "misses": sum(section.entries.misses for section in sections),
                "corrupt_records": self.corrupt_records,
                "sections": {
                    section_id: len(section.entries)
                    for section_id, section in self._sections.items()
                },
            }


def open_store(store) -> tuple["SketchStore | None", bool]:
    """Coerce a store argument (``SketchStore`` | path | None).

    Returns ``(store, owned)`` where ``owned`` says the caller opened it
    (and is responsible for closing it).
    """
    if store is None:
        return None, False
    if isinstance(store, SketchStore):
        return store, False
    return SketchStore(store), True


# ------------------------------------------------------------ stream sketch


class StreamSketcher:
    """Fingerprint a stream's columns while deferring featurization.

    The incremental-reannotation dilemma: a column's fingerprint is only
    known once the whole stream has been consumed, but skipping
    featurization requires knowing it *first*.  The sketcher resolves it
    by buffering each column's chunk segments (positions + values) while
    hashing them, so accumulation happens lazily — only for columns that
    turn out to be store misses — by replaying the exact ``partial_fit``
    calls the eager path would have made (bit-identical by construction).

    Memory stays bounded: once the deferred-value budget is exceeded the
    sketcher flushes everything into eager accumulators and stops
    deferring (that stream gains no skip, but is still hashed and its
    sketches still warm the store).  With ``sample_rows`` set, only the
    first N values per column are retained for featurization, while the
    fingerprint always covers the full content.
    """

    def __init__(
        self,
        featurizer,
        n_columns: int,
        token_cap: int | None = None,
        sample_rows: int | None = None,
        defer_values: int = DEFAULT_DEFER_VALUES,
    ) -> None:
        if sample_rows is not None and sample_rows < 1:
            raise ValueError("sample_rows must be >= 1")
        self._featurizer = featurizer
        self._token_cap = token_cap
        self.sample_rows = sample_rows
        self._defer_limit = defer_values
        self._fingerprinters = [ColumnFingerprinter() for _ in range(n_columns)]
        self._deferred: list[list[tuple[int, int, list[str]]]] | None = [
            [] for _ in range(n_columns)
        ]
        self._accumulators: list[ColumnAccumulator] | None = None
        self._built: dict[int, ColumnAccumulator] = {}
        self._kept = [0] * n_columns
        self._pending = 0
        self.n_rows = 0

    @property
    def n_columns(self) -> int:
        """Number of columns tracked."""
        return len(self._fingerprinters)

    @property
    def flushed(self) -> bool:
        """Whether the deferred buffer spilled into eager accumulation."""
        return self._accumulators is not None

    def _new_accumulator(self) -> ColumnAccumulator:
        return self._featurizer.column_accumulator(self._token_cap)

    def feed(self, chunk) -> None:
        """Fold one :class:`~repro.tables.TableChunk` into the sketcher."""
        row_span = chunk.n_rows
        self.n_rows = max(self.n_rows, chunk.start_row + row_span)
        sample = self.sample_rows
        for index, values in enumerate(chunk.columns):
            values = list(values)
            self._fingerprinters[index].update(values)
            kept = values
            if sample is not None:
                budget = sample - self._kept[index]
                if budget <= 0:
                    kept = []
                elif len(values) > budget:
                    kept = values[:budget]
            self._kept[index] += len(kept)
            if self._accumulators is not None:
                if kept or sample is None:
                    self._accumulators[index].partial_fit(
                        kept, start_row=chunk.start_row, row_span=row_span
                    )
            else:
                if kept or sample is None:
                    self._deferred[index].append((chunk.start_row, row_span, kept))
                    self._pending += len(kept)
        if self._accumulators is None and self._pending > self._defer_limit:
            self._flush()

    def _flush(self) -> None:
        accumulators = []
        for index, segments in enumerate(self._deferred):
            accumulator = self._built.pop(index, None)
            if accumulator is None:
                accumulator = self._replay(segments)
            accumulators.append(accumulator)
        self._accumulators = accumulators
        self._deferred = None
        self._pending = 0

    def _replay(self, segments: list[tuple[int, int, list[str]]]) -> ColumnAccumulator:
        accumulator = self._new_accumulator()
        for start_row, row_span, values in segments:
            accumulator.partial_fit(values, start_row=start_row, row_span=row_span)
        return accumulator

    def fingerprints(self) -> list[str]:
        """Per-column content fingerprints of everything fed so far."""
        return [fingerprinter.hexdigest() for fingerprinter in self._fingerprinters]

    def accumulator(self, index: int) -> ColumnAccumulator:
        """The accumulator for one column, built on demand from the buffer."""
        if self._accumulators is not None:
            return self._accumulators[index]
        accumulator = self._built.get(index)
        if accumulator is None:
            accumulator = self._replay(self._deferred[index])
            self._built[index] = accumulator
        return accumulator
