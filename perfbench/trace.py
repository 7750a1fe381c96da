"""Spans recorded by the benchmark around the program's public entry points.

The benchmark never edits the program to trace it.  :func:`install` wraps
chosen methods at class level; each call becomes one span (name, layer,
start, end, parent, meta) kept in memory by a :class:`Recorder` and
written out as JSON when the run ends.  Parents follow the caller through
``contextvars``, so concurrent asyncio requests keep separate trees.  A
call that starts on a thread with no open span (the scheduler's dispatch
thread) can *adopt* the oldest open span of named entry points instead,
which is the request that anchors a micro-batch (the queue is FIFO).

:func:`exclusive_times` turns spans into self time.  It sweeps the
timeline and gives each instant to the deepest open span, the most
recently started one on a tie.  For nested spans on one thread that is
exactly "the span minus the part its children cover"; for concurrent
trees it partitions wall time instead of counting overlap twice, so layer
shares add up to one.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: ``meta(args, kwargs, result) -> dict``: counts recorded on a span.
MetaFn = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    id: int
    parent: int | None
    name: str
    layer: str
    kind: str
    start: float
    end: float
    meta: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EntryPoint:
    """A method to wrap: ``module.Class.attr`` attributed to ``layer``.

    ``kind`` groups spans inside a layer (``fit``, ``infer``, ...).
    ``adopt`` names the entry points whose oldest open span becomes the
    parent when the call starts with no open span in its own context.
    """

    module: str
    qualname: str
    layer: str
    kind: str
    meta: MetaFn | None = None
    adopt: tuple[str, ...] = ()


class Recorder:
    """Collects spans in memory; thread- and task-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._open: dict[int, tuple[str, float]] = {}
        self._lock = threading.Lock()

    def _oldest_open(self, names: Sequence[str]) -> int | None:
        with self._lock:
            candidates = [
                (start, span_id)
                for span_id, (name, start) in self._open.items()
                if name in names
            ]
        return min(candidates)[1] if candidates else None

    def open(self, name: str, adopt: Sequence[str] = ()):
        """Start a span; returns the handle :meth:`close` needs."""
        parent = _CURRENT.get()
        if parent is None and adopt:
            parent = self._oldest_open(adopt)
        span_id = next(self._ids)
        start = time.monotonic()
        with self._lock:
            self._open[span_id] = (name, start)
        return span_id, parent, start, _CURRENT.set(span_id)

    def close(self, handle, name: str, layer: str, kind: str, meta: dict) -> None:
        """Finish the span ``handle`` refers to."""
        end = time.monotonic()
        span_id, parent, start, token = handle
        _CURRENT.reset(token)
        with self._lock:
            del self._open[span_id]
            self.spans.append(
                Span(span_id, parent, name, layer, kind, start, end, meta)
            )

    def iterate(
        self,
        iterator: Iterator,
        name: str,
        layer: str,
        kind: str,
        meta: Callable[[object], dict] = lambda item: {},
    ) -> Iterator:
        """Yield from ``iterator``, recording one span per item produced."""
        while True:
            handle = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(handle, name, layer, kind, {})
                return
            except BaseException:
                self.close(handle, name, layer, kind, {"error": True})
                raise
            self.close(handle, name, layer, kind, meta(item))
            yield item

    def dump(self, path) -> None:
        """Write every span to ``path`` as JSON."""
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def load_spans(path) -> list[Span]:
    """Read a :meth:`Recorder.dump` file back."""
    with open(path, encoding="utf-8") as handle:
        return [Span(**item) for item in json.load(handle)]


def _wrap(recorder: Recorder, entry: EntryPoint, function):
    name, layer, kind, meta, adopt = (
        entry.qualname, entry.layer, entry.kind, entry.meta, entry.adopt
    )

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            handle = recorder.open(name, adopt)
            result = error = None
            try:
                result = await function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                fields = {"error": True} if error is not None else (
                    meta(args, kwargs, result) if meta is not None else {}
                )
                recorder.close(handle, name, layer, kind, fields)

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        handle = recorder.open(name, adopt)
        result = error = None
        try:
            result = function(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            fields = {"error": True} if error is not None else (
                meta(args, kwargs, result) if meta is not None else {}
            )
            recorder.close(handle, name, layer, kind, fields)

    return traced


def install(recorder: Recorder, entries: Iterable[EntryPoint]) -> Callable[[], None]:
    """Wrap every entry point at class level; returns an undo function."""
    undo: list[tuple[type, str, object]] = []
    for entry in entries:
        owner_name, attr = entry.qualname.rsplit(".", 1)
        owner = importlib.import_module(entry.module)
        for part in owner_name.split("."):
            owner = getattr(owner, part)
        if attr not in vars(owner):
            raise AttributeError(f"{entry.module}.{entry.qualname} is not defined")
        original = vars(owner)[attr]
        setattr(owner, attr, _wrap(recorder, entry, original))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def clip(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """Spans overlapping ``[start, end]``, cut to that window."""
    kept = []
    for span in spans:
        lo, hi = max(span.start, start), min(span.end, end)
        if hi > lo:
            kept.append(
                Span(span.id, span.parent, span.name, span.layer, span.kind,
                     lo, hi, span.meta)
            )
    return kept


def depths(spans: Sequence[Span]) -> dict[int, int]:
    """Nesting depth of every span (a missing parent counts as a root)."""
    parents = {span.id: span.parent for span in spans}
    memo: dict[int, int] = {}
    for span in spans:
        chain = []
        node = span.id
        while node not in memo and parents.get(node) in parents:
            chain.append(node)
            node = parents[node]
        base = memo.setdefault(node, 0)
        for offset, item in enumerate(reversed(chain), start=1):
            memo[item] = base + offset
    return memo


def roots(spans: Sequence[Span]) -> dict[int, int]:
    """The root ancestor (request identifier) of every span."""
    parents = {span.id: span.parent for span in spans}
    result: dict[int, int] = {}
    for span in spans:
        node = span.id
        while parents.get(node) in parents:
            node = parents[node]
        result[span.id] = node
    return result


def exclusive_times(
    spans: Sequence[Span], background: Iterable[int] = ()
) -> dict[int, float]:
    """Self time of every span: each instant goes to the deepest open span.

    Spans listed in ``background`` sit below every other span: they only
    keep the instants nothing else covers (the benchmark's own view of an
    operation, which the program's spans should explain).  Returns seconds
    per span id; spans that never win an instant are absent.
    """
    depth = depths(spans)
    for span_id in background:
        depth[span_id] = -1
    events = []
    for span in spans:
        if span.end > span.start:
            events.append((span.start, 1, span))
            events.append((span.end, 0, span))
    # At equal times, ends come before starts.
    events.sort(key=lambda event: (event[0], event[1]))
    heap: list[tuple[int, float, int]] = []
    ended: set[int] = set()
    result: dict[int, float] = defaultdict(float)
    previous = None
    for moment, is_start, span in events:
        while heap and heap[0][2] in ended:
            heapq.heappop(heap)
        if heap and previous is not None and moment > previous:
            result[heap[0][2]] += moment - previous
        previous = moment
        if is_start:
            heapq.heappush(heap, (-depth[span.id], -span.start, span.id))
        else:
            ended.add(span.id)
    return dict(result)
