"""Span-based run tracing: schema-versioned JSONL events per run.

A sweep today spans processes (pool workers), machines (shards) and
retries; the only durable record of *where time went* is whatever the CLI
printed.  This module gives every run an append-only ``trace.jsonl``:

* a :class:`Tracer` opens nested spans (``sweep > cell``,
  ``sweep > cell_batch > cell``, ``sweep > train > episode``,
  ``sweep > device_round``/``device_batch``, ``federated_round`` for a
  standalone fleet, ``shard_run``, ``merge``) and appends one
  complete, schema-versioned JSON event per span/point event through
  :func:`repro.core.persistence.append_jsonl` (single ``write()`` per
  line, so concurrent writers interleave whole lines, never bytes);
* pool workers inherit the trace destination through the
  ``REPRO_TRACE`` environment variable exactly like fault plans inherit
  ``REPRO_FAULT_PLAN`` -- activation exports, workers lazily resolve and
  cache on the env text, deactivation clears;
* all wall-clock reads route through the REP002-allowlisted
  :mod:`repro.reliability.clock` seams, so the determinism linter keeps
  its "no raw clock reads" guarantee with tracing in the tree.

The non-negotiable invariant: tracing must never perturb results.  The
tracer touches no RNG, no simulated clock and no recorded value; parity
of ``sample_stream_hash`` with tracing on/off is pinned by the golden,
chaos and differential suites.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from contextlib import contextmanager

from repro.core.persistence import append_jsonl, atomic_write_text, quarantine_entry
from repro.reliability.clock import wall_now

#: Environment variable carrying the trace destination to pool workers.
TRACE_ENV = "REPRO_TRACE"

#: Version stamp of the event schema; bumped on breaking changes.
TRACE_SCHEMA_VERSION = 1

#: Conventional basename of a per-run trace file.
TRACE_BASENAME = "trace.jsonl"


class TraceSink:
    """Where events go and which foreign span adopts this process's roots.

    ``root`` is the span id of the orchestrator's enclosing span: worker
    processes have an empty span stack, so their top-level spans parent
    to ``root`` and the report stitches one tree across processes.
    """

    def __init__(self, path: str, root: Optional[str] = None) -> None:
        self.path = path
        self.root = root

    def to_json(self) -> str:
        return json.dumps({"path": self.path, "root": self.root}, sort_keys=True)

    @classmethod
    def parse(cls, text: str) -> "TraceSink":
        """Parse an env value: inline JSON (starts with ``{``) or a bare path."""
        stripped = text.strip()
        if stripped.startswith("{"):
            data = json.loads(stripped)
            return cls(path=str(data["path"]), root=data.get("root"))
        return cls(path=stripped)


class Span:
    """One open span; emitted as a single complete event when it ends."""

    __slots__ = ("name", "span_id", "parent_id", "start_s", "end_s", "attrs")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start_s: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs = attrs

    def note(self, key: str, value: Any) -> None:
        """Attach an attribute that is only known after the span opened."""
        self.attrs[key] = value

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else self.start_s
        return end - self.start_s


class Tracer:
    """Appends span / point / metrics events for one process to a sink.

    Span ids are ``<pid-hex>-<ms-suffix>:<counter>``: unique enough to
    stitch traces from concurrent workers and merged shards without any
    randomness (the trace is diagnostics, never folded into results).
    """

    def __init__(self, sink: TraceSink) -> None:
        self.sink = sink
        self._stack: List[Span] = []
        self._counter = 0
        pid = os.getpid()
        self._prefix = f"{pid:x}-{int(wall_now() * 1000.0) & 0xFFFFFF:06x}"
        self._pid = pid
        self._header_written = False

    # -- low-level emission ---------------------------------------------------------

    def _emit(self, payload: Dict[str, Any]) -> None:
        if not self._header_written:
            self._header_written = True
            append_jsonl(
                self.sink.path,
                {
                    "kind": "header",
                    "schema": TRACE_SCHEMA_VERSION,
                    "pid": self._pid,
                    "prefix": self._prefix,
                    "wall_s": wall_now(),
                },
            )
        payload.setdefault("pid", self._pid)
        append_jsonl(self.sink.path, payload)

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self._prefix}:{self._counter}"

    # -- spans ----------------------------------------------------------------------

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the innermost open span (or the sink root)."""
        parent = self._stack[-1].span_id if self._stack else self.sink.root
        span = Span(name, self._next_id(), parent, wall_now(), dict(attrs))
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` and append its complete event."""
        span.end_s = wall_now()
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
        self._emit(
            {
                "kind": "span",
                "name": span.name,
                "span": span.span_id,
                "parent": span.parent_id,
                "start_s": span.start_s,
                "end_s": span.end_s,
                "attrs": span.attrs,
            }
        )
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def event(self, name: str, **attrs: Any) -> None:
        """Append a point event (retry, progress, fault) at the current wall time."""
        parent = self._stack[-1].span_id if self._stack else self.sink.root
        self._emit(
            {
                "kind": "event",
                "name": name,
                "parent": parent,
                "wall_s": wall_now(),
                "attrs": dict(attrs),
            }
        )

    def flush_metrics(
        self,
        snapshot: Dict[str, Any],
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append a metrics footer (and optional profiler snapshot)."""
        payload: Dict[str, Any] = {
            "kind": "metrics",
            "wall_s": wall_now(),
            "metrics": snapshot,
        }
        if profile is not None:
            payload["profile"] = profile
        self._emit(payload)

    # -- cross-process root adoption ------------------------------------------------

    def adopt_root(self, span: Span) -> None:
        """Export ``span`` as the parent for spans opened in pool workers.

        Must run before the executor is created so worker processes
        inherit the updated environment value.
        """
        self.set_root(span.span_id)

    def set_root(self, root: Optional[str]) -> None:
        """Set (or restore) the exported worker-parent span id."""
        global _active_source
        self.sink.root = root
        text = self.sink.to_json()
        os.environ[TRACE_ENV] = text
        if _active_tracer is self:
            # Keep the lazy-resolution cache coherent: the env text changed
            # but this tracer (and its open span stack) stays the active one.
            _active_source = text


# ---------------------------------------------------------------------------------
# Activation: module global + env mirror, exactly like reliability.faults.
# ---------------------------------------------------------------------------------

# ``False`` means "not yet resolved from the environment"; ``None`` means
# "resolved: tracing is off".  The cached source text detects env changes.
_active_tracer: Any = False
_active_source: Optional[str] = None


def activate_tracing(path: str, root: Optional[str] = None) -> Tracer:
    """Enable tracing to ``path`` in this process and export to children."""
    global _active_tracer, _active_source
    sink = TraceSink(path, root=root)
    tracer = Tracer(sink)
    _active_tracer = tracer
    _active_source = sink.to_json()
    os.environ[TRACE_ENV] = _active_source
    return tracer


def deactivate_tracing() -> None:
    """Disable tracing in this process and stop exporting to children."""
    global _active_tracer, _active_source
    _active_tracer = None
    _active_source = None
    os.environ.pop(TRACE_ENV, None)


def active_tracer() -> Optional[Tracer]:
    """The process-wide tracer, lazily resolved from ``REPRO_TRACE``.

    Workers never call :func:`activate_tracing`; their first span
    resolves the sink inherited through the pool's environment.  The
    result is cached keyed on the env text so repeated calls are one
    dict lookup and an equality check.
    """
    global _active_tracer, _active_source
    text = os.environ.get(TRACE_ENV)
    if _active_tracer is not False and text == _active_source:
        if _active_tracer is None or _active_tracer._pid == os.getpid():
            return _active_tracer
        # A fork()ed pool worker inherited the parent's live tracer --
        # parent pid, span-id prefix, open span stack and all.  Writing
        # through it would collide span ids across workers and parent
        # worker spans to the wrong process's stack, so fall through and
        # rebuild from the env: the child gets its own prefix and parents
        # its top-level spans to the exported root, exactly like a
        # spawn()ed worker resolving the sink for the first time.
    if text is None:
        _active_tracer = None
        _active_source = None
        return None
    try:
        sink = TraceSink.parse(text)
    except (ValueError, KeyError, TypeError):
        _active_tracer = None
        _active_source = text
        return None
    _active_tracer = Tracer(sink)
    _active_source = text
    return _active_tracer


def tracing_active() -> bool:
    return active_tracer() is not None


@contextmanager
def traced(path: str) -> Iterator[Tracer]:
    """Scoped activation for tests and harnesses."""
    tracer = activate_tracing(path)
    try:
        yield tracer
    finally:
        deactivate_tracing()


@contextmanager
def maybe_span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """A span when tracing is active, a no-op otherwise.

    The inactive path costs one env read and allocates nothing, so
    instrumented call sites stay on their untraced fast path.
    """
    tracer = active_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span:
        yield span


def emit_event(name: str, **attrs: Any) -> None:
    """Append a point event iff tracing is active."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.event(name, **attrs)


def flush_task_metrics() -> None:
    """Worker-side footer: flush this process's metric deltas after one task.

    Pool workers can be recycled without notice, so each finished task
    flushes whatever metrics it accumulated into the trace and resets the
    registry (making every footer a delta; the report sums footers across
    processes).  A no-op in the orchestrator -- which flushes one
    cumulative footer per run -- and whenever tracing is off.
    """
    tracer = active_tracer()
    if tracer is None:
        return
    from repro.reliability.faults import in_worker_process

    if not in_worker_process():
        return
    from repro.obs.metrics import metrics, reset_metrics

    registry = metrics()
    if registry.empty():
        return
    tracer.flush_metrics(registry.snapshot())
    reset_metrics()


# ---------------------------------------------------------------------------------
# Reading and merging
# ---------------------------------------------------------------------------------


def read_trace(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a trace file, tolerating a torn tail.

    A process killed mid-append leaves a truncated final line; readers
    skip unparseable lines and report how many were skipped instead of
    raising -- the same posture the shard merge takes toward torn cache
    entries.  A header from a *newer* schema raises: silently misreading
    a future format is worse than a loud error.
    """
    events: List[Dict[str, Any]] = []
    torn = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                event = json.loads(stripped)
            except ValueError:
                torn += 1
                continue
            if not isinstance(event, dict) or "kind" not in event:
                torn += 1
                continue
            if event["kind"] == "header":
                schema = event.get("schema", 0)
                if schema > TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"trace schema {schema} is newer than supported "
                        f"{TRACE_SCHEMA_VERSION}: {path}"
                    )
            events.append(event)
    return events, torn


def merge_traces(sources: List[str], destination: str) -> Dict[str, int]:
    """Concatenate per-shard traces into one file, quarantining dead ones.

    A source that exists but yields no parseable events is quarantined as
    ``<path>.bad`` (the shared ``.bad`` idiom); a merely torn tail is
    tolerated and counted.  The merged file is published atomically so a
    concurrent reader never observes a half-merged trace.
    """
    merged: List[Dict[str, Any]] = []
    counters = {"sources": 0, "events": 0, "torn_lines": 0, "quarantined": 0}
    for source in sources:
        if not os.path.exists(source):
            continue
        try:
            events, torn = read_trace(source)
        except OSError:
            continue
        counters["torn_lines"] += torn
        if not events and torn:
            quarantine_entry(source)
            counters["quarantined"] += 1
            continue
        counters["sources"] += 1
        counters["events"] += len(events)
        merged.extend(events)
    lines = [json.dumps(event, sort_keys=True) for event in merged]
    atomic_write_text(destination, "\n".join(lines) + ("\n" if lines else ""))
    return counters
