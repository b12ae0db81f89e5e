"""In-memory span ledger wrapped around each layer's public functions.

The traced run installs wrappers on the names each caller looks up
(``Tracer.install``) and removes them afterwards (``Tracer.uninstall``);
the untraced run never installs anything, so its numbers carry no
tracing cost.  Spans live in a list until the run ends and are then
summarised into per-layer metrics and written out with their self time.

Conventions:

* A span's parent is the innermost open span on the same thread.  A span
  that opens on a thread with no open span (a thread-farm worker) is
  attached to the farm dispatch call that is open at that moment.
* A span's self time is its duration minus the union of its same-thread
  children's intervals.  The benchmark's own ``request`` span is the root
  of every request; its self time is the ledger's unattributed residual.
* A farm dispatch (``CompileFarm.iter_results``) is a generator: each
  resumption is one ``farm.dispatch`` segment span, and the segments of
  one call share a call id.  The dispatch's wall time is the sum of its
  segments; its overhead is that minus the part of it covered by the
  call's worker ``farm.job`` spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.core import farm as farm_module
from repro.core.evaluator import PerformanceEvaluator
from repro.core.farm import CompileFarm, WorkloadSpec
from repro.core.generic_router import GenericRouter
from repro.core.qaoa_router import QAOARouter
from repro.core.qsim_router import QSimRouter
from repro.core.schedule import FPQASchedule
from repro.service import store as store_module
from repro.service.queue import JobQueue
from repro.service.service import CompileResponse, CompileService
from repro.service.store import ScheduleStore
from repro.utils import serialization as serialization_module


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    call: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``(owner, attribute, span name, kind)`` of every wrapped name.  Kinds
#: other than "plain" get a wrapper that records extra attributes.
TARGETS: tuple[tuple[Any, str, str, str], ...] = (
    (GenericRouter, "compile", "route.generic", "plain"),
    (QAOARouter, "compile", "route.qaoa", "plain"),
    (QSimRouter, "compile", "route.qsim", "plain"),
    (FPQASchedule, "validate", "check.validate", "plain"),
    (PerformanceEvaluator, "evaluate", "check.evaluate", "plain"),
    (CompileFarm, "iter_results", "farm.dispatch", "dispatch"),
    (farm_module, "compile_farm_job_with_schedule", "farm.job", "plain"),
    (WorkloadSpec, "build", "farm.build", "plain"),
    (serialization_module, "schedule_to_dict", "farm.worker_encode", "plain"),
    (ScheduleStore, "get", "store.get", "store_get"),
    (ScheduleStore, "put", "store.put", "store_put"),
    (store_module, "canonical_json", "serialization.store_encode", "plain"),
    (CompileResponse, "schedule_json", "serialization.response_encode", "plain"),
    (JobQueue, "submit", "queue.submit", "plain"),
    (JobQueue, "pop_batch", "queue.pop", "plain"),
    (CompileService, "compile", "service", "plain"),
    (CompileService, "stream", "service", "generator"),
)


def current_targets() -> list[Any]:
    """What each wrapped name resolves to right now (for tests)."""
    return [getattr(owner, attribute) for owner, attribute, _, _ in TARGETS]


class Tracer:
    """Span recorder; wrappers are live only between install and uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_call: int | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self) -> tuple[int, int | None, int | None, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        call = None if stack else self._open_call
        stack.append(span_id)
        return span_id, parent, call, perf_counter()

    def _end(self, begun, name: str, attrs: dict[str, Any] | None = None) -> None:
        end = perf_counter()
        span_id, parent, call, start = begun
        self._stack().pop()
        self.spans.append(
            Span(span_id, name, parent, threading.get_ident(), start, end, call, attrs or {})
        )

    def root(self, **attrs: Any) -> "_Root":
        """Context manager for the benchmark's own per-request root span."""
        return _Root(self, attrs)

    # -- wrappers ---------------------------------------------------------
    def _plain(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begun = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(begun, name)

        return wrapper

    def _store_get(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(store, digest, *args, **kwargs):
            before = store.stats
            begun = self._begin()
            try:
                return fn(store, digest, *args, **kwargs)
            finally:
                after = store.stats
                if after.memory_hits > before.memory_hits:
                    outcome = "memory"
                elif after.disk_hits > before.disk_hits:
                    outcome = "disk"
                else:
                    outcome = "miss"
                self._end(begun, name, {"outcome": outcome})

        return wrapper

    def _store_put(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(store, digest, *args, **kwargs):
            begun = self._begin()
            try:
                return fn(store, digest, *args, **kwargs)
            finally:
                try:
                    size = store.path_for(digest).stat().st_size
                except OSError:
                    size = None
                self._end(begun, name, {"bytes": size})

        return wrapper

    def _resumptions(self, name: str, gen: Iterator, attrs: dict[str, Any]) -> Iterator:
        """Re-yield ``gen``, recording one span per resumption."""
        try:
            while True:
                begun = self._begin()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._end(begun, name, attrs)
                yield item
        finally:
            gen.close()

    def _generator(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._resumptions(name, fn(*args, **kwargs), {})

        return wrapper

    def _dispatch(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(farm, jobs, *args, **kwargs):
            jobs = list(jobs)
            call = next(self._ids)

            def run() -> Iterator:
                self._open_call = call
                try:
                    yield from self._resumptions(
                        name, fn(farm, jobs, *args, **kwargs), {"call": call, "jobs": len(jobs)}
                    )
                finally:
                    self._open_call = None

            return run()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        makers = {
            "plain": self._plain,
            "store_get": self._store_get,
            "store_put": self._store_put,
            "generator": self._generator,
            "dispatch": self._dispatch,
        }
        for owner, attribute, name, kind in TARGETS:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, makers[kind](name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


class _Root:
    def __init__(self, tracer: Tracer, attrs: dict[str, Any]):
        self.tracer = tracer
        self.attrs = attrs

    def __enter__(self) -> "_Root":
        self.begun = self.tracer._begin()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._end(self.begun, "request", self.attrs)


# -- summarising ----------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _covered(intervals: list[tuple[float, float]], within: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` that falls inside ``within``."""
    clipped = [
        (max(a, c), min(b, d))
        for a, b in intervals
        for c, d in within
        if min(b, d) > max(a, c)
    ]
    return _union_length(clipped)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None and parent.thread == span.thread:
            children.setdefault(parent.id, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, []), [(span.start, span.end)])
        for span in spans
    }


def _mean(values: list[float], scale: float = 1.0) -> float:
    return scale * sum(values) / len(values) if values else 0.0


def summarize(spans: list[Span], *, requests: int, coalesced: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``requests`` is the number of delivered responses and ``coalesced``
    the number of those that shared another request's compile (both
    counted by the benchmark from what it received).  A mean over no
    samples is reported as 0; the run prints which layers had none.
    """
    selfs = self_times(spans)
    named: dict[str, list[Span]] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def durations(name: str, **match: Any) -> list[float]:
        return [
            s.duration
            for s in named.get(name, [])
            if all(s.attrs.get(k) == v for k, v in match.items())
        ]

    metrics: dict[str, float] = {}
    ms = 1e3
    for router in ("generic", "qaoa", "qsim"):
        metrics[f"route.{router}_ms_mean"] = _mean(durations(f"route.{router}"), ms)
    metrics["check.validate_ms_mean"] = _mean(durations("check.validate"), ms)
    metrics["check.evaluate_ms_mean"] = _mean(durations("check.evaluate"), ms)

    segments: dict[int, list[Span]] = {}
    for span in named.get("farm.dispatch", []):
        segments.setdefault(span.attrs["call"], []).append(span)
    segment_call = {seg.id: call for call, segs in segments.items() for seg in segs}
    jobs_by_call: dict[int | None, list[tuple[float, float]]] = {}
    for span in named.get("farm.job", []):
        # a pool-thread job carries its call; an inline one sits in a segment
        call = span.call if span.call is not None else segment_call.get(span.parent)
        jobs_by_call.setdefault(call, []).append((span.start, span.end))
    dispatch_walls, overheads = [], []
    for call, segs in segments.items():
        windows = [(s.start, s.end) for s in segs]
        wall = sum(s.duration for s in segs)
        dispatch_walls.append(wall)
        overheads.append(wall - _covered(jobs_by_call.get(call, []), windows))
    metrics["farm.dispatch_calls"] = float(len(segments))
    metrics["farm.jobs"] = float(sum(segs[0].attrs["jobs"] for segs in segments.values()))
    metrics["farm.dispatch_ms_mean"] = _mean(dispatch_walls, ms)
    metrics["farm.overhead_ms_mean"] = _mean(overheads, ms)
    metrics["farm.build_ms_mean"] = _mean(durations("farm.build"), ms)
    metrics["farm.worker_encode_ms_mean"] = _mean(durations("farm.worker_encode"), ms)

    gets = named.get("store.get", [])
    metrics["store.get_calls"] = float(len(gets))
    for outcome, key in (("memory", "memory_hit"), ("disk", "disk_hit"), ("miss", "miss")):
        metrics[f"store.get_{key}_ms_mean"] = _mean(durations("store.get", outcome=outcome), ms)
    metrics["store.memory_hit_ratio"] = (
        len(durations("store.get", outcome="memory")) / len(gets) if gets else 0.0
    )
    metrics["store.disk_hit_ratio"] = (
        len(durations("store.get", outcome="disk")) / len(gets) if gets else 0.0
    )
    puts = named.get("store.put", [])
    metrics["store.put_calls"] = float(len(puts))
    metrics["store.put_ms_mean"] = _mean([s.duration for s in puts], ms)
    metrics["store.entry_bytes_mean"] = _mean(
        [float(s.attrs["bytes"]) for s in puts if s.attrs.get("bytes") is not None]
    )

    metrics["serialization.store_encode_ms_mean"] = _mean(
        durations("serialization.store_encode"), ms
    )
    metrics["serialization.response_encode_ms_mean"] = _mean(
        durations("serialization.response_encode"), ms
    )
    metrics["serialization.encode_calls"] = float(
        len(named.get("serialization.store_encode", []))
        + len(named.get("serialization.response_encode", []))
    )

    metrics["queue.submit_us_mean"] = _mean(durations("queue.submit"), 1e6)
    metrics["queue.pop_us_mean"] = _mean(durations("queue.pop"), 1e6)
    metrics["queue.coalesced_ratio"] = coalesced / requests if requests else 0.0

    service_self = sum(selfs[s.id] for s in named.get("service", []))
    metrics["service.self_ms_mean"] = ms * service_self / requests if requests else 0.0
    roots = named.get("request", [])
    root_wall = sum(s.duration for s in roots)
    metrics["service.unattributed_ratio"] = (
        sum(selfs[s.id] for s in roots) / root_wall if root_wall else 0.0
    )
    return metrics


def family_ledger(spans: list[Span], family: str) -> dict[str, Any]:
    """Mean per-request times of one workload family, for the baseline table.

    Walks each span up to its ``request`` root and keeps those whose root
    carries ``family``.  Only spans on the root's thread are reachable,
    which covers the single-request ``compile()`` path completely.
    """
    by_id = {span.id: span for span in spans}
    root_of: dict[int, Span | None] = {}

    def find_root(span: Span) -> Span | None:
        if span.id in root_of:
            return root_of[span.id]
        parent = by_id.get(span.parent) if span.parent is not None else None
        root = span if span.name == "request" else (find_root(parent) if parent else None)
        root_of[span.id] = root
        return root

    roots = [s for s in spans if s.name == "request" and s.attrs.get("family") == family]
    picked: dict[str, list[float]] = {}
    for span in spans:
        root = find_root(span)
        if root is None or root.attrs.get("family") != family or span is root:
            continue
        key = span.name
        if span.name == "store.get":
            key = f"store.get[{span.attrs['outcome']}]"
        picked.setdefault(key, []).append(span.duration)
    return {
        "requests": len(roots),
        "request_ms_mean": _mean([s.duration for s in roots], 1e3),
        "span_ms_mean": {name: _mean(values, 1e3) for name, values in sorted(picked.items())},
    }


def dump(spans: list[Span]) -> list[dict[str, Any]]:
    """JSON-ready span records with self time (seconds, relative to the first span)."""
    if not spans:
        return []
    selfs = self_times(spans)
    origin = min(span.start for span in spans)
    return [
        {
            "id": span.id,
            "name": span.name,
            "parent": span.parent,
            "call": span.call,
            "thread": span.thread,
            "start_s": round(span.start - origin, 7),
            "duration_s": round(span.duration, 7),
            "self_s": round(selfs[span.id], 7),
            **({"attrs": span.attrs} if span.attrs else {}),
        }
        for span in sorted(spans, key=lambda s: s.start)
    ]
