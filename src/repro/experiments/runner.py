"""Scenario-matrix execution through one scheduler, with caching.

The runner owns no simulation logic of its own: every cell funnels through
:func:`execute_cell` (or its batched form), which records the cell's demand
trace and hands it to :func:`repro.sim.experiment.run_trace` -- the same
single-cell primitive the sequential helpers use.  One event loop schedules
every sweep: on a process pool, or -- with ``max_workers=1`` -- on an
in-process executor that runs the same jobs one at a time in the
orchestrator.  Both produce bit-identical summaries, which the determinism
regression tests assert.

Failure isolation: a cell that raises reports an error :class:`CellResult`
(status ``"error"`` with the traceback) instead of killing the sweep, so a
1000-cell overnight run survives one diverging configuration.

Fault tolerance (:mod:`repro.reliability`): failures are *classified* where
the exception object still exists -- transient infrastructure failures
(injected faults, broken pools, store I/O errors, timeouts) retry with
bounded seeded backoff, while deterministic failures (anything else, or the
same traceback twice in a row) are quarantined as permanent immediately.
A broken pool (crashed worker) or an expired watchdog deadline (hung
worker) tears the pool down and rebuilds it, resubmitting only the cells
that were in flight -- their attempt counters bumped so first-attempt-only
injected faults cannot re-fire -- and after ``max_pool_rebuilds`` restarts
the *remaining* cells (never the already-delivered ones) finish through the
same event loop on the in-process executor, where injected crashes raise
instead of exiting.  All of this is safe because of the bit-identity
contract: a retried cell can only ever produce the same bytes the first
attempt would have, which the chaos harness pins per cell via
``sample_stream_hash``.

Caching: with a ``cache_dir``, each completed cell is written to
``<fingerprint>.json``; re-running a sweep serves completed cells from disk
and only computes the missing ones.  Error results are *not* cached, so a
fixed bug re-runs its cells automatically.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.core.artifact import AgentArtifact, TrainingSpec
from repro.core.federated import FleetArtifact, FleetSpec
from repro.core.persistence import atomic_write_json, list_entry_paths
from repro.experiments.artifacts import ArtifactStore, train_artifact
from repro.experiments.federated import (
    FleetBuild,
    FleetStore,
    round_lane_seconds,
    train_device_round,
    train_device_rounds_batched,
    train_fleet_artifact,
    use_batch_kernel,
)
from repro.experiments.matrix import ScenarioCell, ScenarioMatrix
from repro.obs.metrics import metrics
from repro.obs.profile import active_profiler
from repro.obs.trace import active_tracer, emit_event, flush_task_metrics
from repro.reliability.clock import monotonic_now
from repro.reliability.faults import (
    SITE_EXECUTE_BATCH,
    SITE_EXECUTE_CELL,
    fault_point,
    mark_worker_process,
)
from repro.reliability.retry import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    RetryState,
    classify_exception,
)
from repro.reliability.watchdog import WatchdogPolicy
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    STOCHASTIC_GOVERNORS,
    SessionResult,
    make_governor,
    record_session_trace,
    run_trace,
)
from repro.soc.platform import make_platform
from repro.workloads.session import SessionSegment

#: Progress callback signature: (completed_count, total_count, latest_result).
ProgressCallback = Callable[[int, int, "CellResult"], None]

#: What a cell may evaluate instead of a cold governor: a trained single
#: agent or a trained federated fleet (both expose ``build_governor`` and a
#: content ``fingerprint``).
CellArtifact = Union[AgentArtifact, FleetArtifact]


@dataclass
class CellResult:
    """Outcome of one cell: a summary dict on success, a traceback on failure.

    ``error_kind`` classifies a failure as ``"transient"`` (infrastructure:
    a retry could help) or ``"permanent"`` (deterministic, or retries
    exhausted); ``error_type`` is the raising exception's class name.
    ``attempts`` is the retry lineage -- one record per failed attempt that
    preceded this result -- so a cell that succeeded after two injected
    faults still documents them.  All three are populated only when
    something actually failed, keeping fault-free results (and their cached
    entries) byte-identical to a runner without the retry machinery.
    """

    cell: ScenarioCell
    status: str
    summary: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    from_cache: bool = False
    elapsed_s: float = 0.0
    error_kind: Optional[str] = None
    error_type: Optional[str] = None
    attempts: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        """Whether the cell completed successfully."""
        return self.status == "ok"

    def metric(self, name: str) -> float:
        """Read one summary metric by name (raises on error results)."""
        if self.summary is None:
            raise ValueError(f"cell {self.cell.label()} has no summary ({self.status})")
        value = self.summary.get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            scalars = sorted(
                key
                for key, entry in self.summary.items()
                if isinstance(entry, (int, float)) and not isinstance(entry, bool)
            )
            raise ValueError(f"unknown metric {name!r}; available: {scalars}")
        return value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the result cache).

        The failure/retry fields are emitted only when set, so a fault-free
        success serialises to exactly the pre-reliability document -- cache
        entries stay byte-stable across the feature's introduction.
        """
        data: Dict[str, Any] = {
            "cell": self.cell.spec(),
            "status": self.status,
            "summary": self.summary,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
        }
        if self.error_kind is not None:
            data["error_kind"] = self.error_kind
        if self.error_type is not None:
            data["error_type"] = self.error_type
        if self.attempts:
            data["attempts"] = self.attempts
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            cell=ScenarioCell.from_spec(data["cell"]),
            status=data["status"],
            summary=data.get("summary"),
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            error_kind=data.get("error_kind"),
            error_type=data.get("error_type"),
            attempts=data.get("attempts"),
        )


def summary_to_dict(result: SessionResult) -> Dict[str, Any]:
    """Flatten a :class:`SessionResult` summary into a JSON-clean dict.

    JSON float serialisation round-trips exactly (shortest-repr), so a cached
    summary compares equal to a freshly computed one -- the property the
    determinism tests pin down.

    ``sample_stream_hash`` is the canonical SHA-256 of the full recorded
    sample stream (:meth:`repro.sim.recorder.Recorder.content_hash`): two
    cells agree on it iff their recorded traces are bit-identical.  It is
    what lets a merged distributed sweep prove per-cell equality with a
    single-machine run without shipping the raw samples around.
    """
    summary = asdict(result.summary)
    summary["frame_delivery_ratio"] = result.summary.frame_delivery_ratio
    summary["app_names"] = list(result.app_names)
    summary["governor_name"] = result.governor_name
    summary["sample_stream_hash"] = result.recorder.content_hash()
    return summary


def run_cell_session(
    cell: ScenarioCell, artifact: Optional[CellArtifact] = None
) -> SessionResult:
    """Execute one cell in-process and return the full session result.

    Records the cell's demand trace with its governor-independent
    ``trace_seed``, instantiates the governor (seeding stochastic ones with
    the cell's ``governor_seed``) and replays the trace through the shared
    single-cell primitive.

    A pretrained cell evaluates the frozen greedy policy of its trained
    artifact, a federated cell the merged greedy agent of its trained fleet
    (``training=False`` either way), never a cold exploring agent.  The
    sweep runner resolves artifacts through its :class:`ArtifactStore` /
    :class:`FleetStore` before the cell runs and passes them in;
    standalone callers may omit ``artifact``, in which case the cell's
    :class:`TrainingSpec` or :class:`FleetSpec` is trained inline --
    identical result, just without the train-once sharing.
    """
    platform = make_platform(cell.platform)
    segments = [
        SessionSegment(app_name, duration_s)
        for app_name, duration_s in cell.workload.segments
    ]
    trace = record_session_trace(segments, platform=platform, seed=cell.trace_seed)
    spec = cell.training_spec()
    fleet = cell.fleet_spec()
    if fleet is not None:
        if artifact is None:
            artifact = train_fleet_artifact(fleet)
        elif artifact.fingerprint != fleet.fingerprint():
            raise ValueError(
                f"fleet artifact {artifact.fingerprint!r} does not match cell "
                f"{cell.label()} fleet spec {fleet.fingerprint()!r}"
            )
        governor = artifact.build_governor()
    elif spec is not None:
        if artifact is None:
            artifact = train_artifact(spec)
        elif artifact.fingerprint != spec.fingerprint():
            raise ValueError(
                f"artifact {artifact.fingerprint!r} does not match cell "
                f"{cell.label()} training spec {spec.fingerprint()!r}"
            )
        governor = artifact.build_governor()
    else:
        params = dict(cell.governor_params)
        if cell.governor in STOCHASTIC_GOVERNORS:
            params.setdefault("seed", cell.governor_seed)
        governor = make_governor(cell.governor, **params)
    config = SimulationConfig(
        refresh_hz=platform.display_refresh_hz,
        duration_s=trace.duration_s,
        seed=cell.sim_seed,
        **dict(cell.config_overrides),
    )
    return run_trace(trace, governor, platform=platform, config=config)


def execute_cell(
    cell: ScenarioCell,
    artifact: Optional[CellArtifact] = None,
    attempt: int = 0,
) -> CellResult:
    """Run one cell with failure isolation (the process-pool work unit).

    ``attempt`` is the orchestrator's retry counter for this cell: it feeds
    the fault-injection seam (so a scheduled fault stops firing once its
    ``max_attempt`` budget is spent) and has no effect on a successful
    result, which is a pure function of the cell.  A failure is classified
    here, where the exception object still exists -- ``error_kind`` tells
    the orchestrator whether a retry could help (transient infrastructure
    failure) or cannot (deterministic error in the cell itself).
    """
    started = time.perf_counter()
    tracer = active_tracer()
    span = (
        tracer.begin(
            "cell", fingerprint=cell.fingerprint(), label=cell.label(), attempt=attempt
        )
        if tracer is not None
        else None
    )
    try:
        fault_point(SITE_EXECUTE_CELL, cell.fingerprint(), attempt)
        session = run_cell_session(cell, artifact=artifact)
        if span is not None:
            span.note("status", "ok")
        return CellResult(
            cell=cell,
            status="ok",
            summary=summary_to_dict(session),
            elapsed_s=time.perf_counter() - started,
        )
    except Exception as exc:
        if span is not None:
            span.note("status", "error")
            span.note("error_type", type(exc).__name__)
        return CellResult(
            cell=cell,
            status="error",
            error=traceback.format_exc(),
            elapsed_s=time.perf_counter() - started,
            error_kind=classify_exception(exc),
            error_type=type(exc).__name__,
        )
    finally:
        if tracer is not None:
            tracer.end(span)
            flush_task_metrics()


def execute_cells_batched(
    cells: List[ScenarioCell], attempt: int = 0
) -> List[CellResult]:
    """Run a group of artifact-free cells through the batch kernel.

    All cells must share a platform and (cadence aside) config overrides
    (the grouping in :func:`batchable_cell_groups` guarantees it); each
    cell keeps its own trace, governor and simulation seeds, session
    duration and recording cadence -- mixed durations and cadences are just
    more segments of the kernel's one lane-schedule loop.  The batched
    device-population kernel is bit-identical per lane to the scalar
    :func:`execute_cell` path (pinned by the batch parity suite), so cached
    results from either route are interchangeable.

    Cells that replay the same session (same workload segments and
    governor-independent ``trace_seed``) share one recorded
    :class:`~repro.workloads.trace.WorkloadTrace`, each lane through its own
    :class:`~repro.workloads.trace.TracePlayer`: the trace is recorded once
    per group, not once per cell.  After the kernel, lanes are finished one
    at a time -- materialised, summarised and hashed inside their own
    ``cell`` span -- so only one lane's :class:`Recorder` is alive at once.

    Failure isolation matches the scalar path's granularity: any batch-level
    failure (including one diverging cell) falls back to running every cell
    of the group through :func:`execute_cell` individually, so a single bad
    configuration degrades throughput, never correctness.  An injected
    fault at the batch seam (keyed by the group's first fingerprint, with
    the orchestrator's ``attempt`` counter threaded through) takes the same
    fallback: the scalar re-runs classify and report their own failures.
    """
    started = time.perf_counter()
    tracer = active_tracer()
    span = (
        tracer.begin("cell_batch", cells=len(cells), attempt=attempt)
        if tracer is not None
        else None
    )
    ticks_before = metrics().counters.get("batch.device_ticks", 0.0)
    try:
        fault_point(SITE_EXECUTE_BATCH, cells[0].fingerprint(), attempt)
        from repro.sim.batch import BatchSimulation
        from repro.workloads.trace import TracePlayer

        platform = make_platform(cells[0].platform)
        recorded: Dict[Tuple[Any, int], Any] = {}
        traces = []
        governors = []
        configs = []
        for cell in cells:
            key = (cell.workload.segments, cell.trace_seed)
            if key not in recorded:
                segments = [
                    SessionSegment(app_name, duration_s)
                    for app_name, duration_s in cell.workload.segments
                ]
                recorded[key] = record_session_trace(
                    segments, platform=platform, seed=cell.trace_seed
                )
            traces.append(recorded[key])
            params = dict(cell.governor_params)
            if cell.governor in STOCHASTIC_GOVERNORS:
                params.setdefault("seed", cell.governor_seed)
            governors.append(make_governor(cell.governor, **params))
            configs.append(
                SimulationConfig(
                    refresh_hz=platform.display_refresh_hz,
                    duration_s=traces[-1].duration_s,
                    seed=cell.sim_seed,
                    **dict(cell.config_overrides),
                )
            )
        batch = BatchSimulation(platform, governors, configs)
        batch.run(
            [TracePlayer(trace) for trace in traces],
            duration_s=[trace.duration_s for trace in traces],
        )
        elapsed_s = (time.perf_counter() - started) / len(cells)
        results = [
            _finish_lane(
                batch, index, cell, governors[index].name, traces[index], elapsed_s
            )
            for index, cell in enumerate(cells)
        ]
        if span is not None:
            span.note("status", "ok")
        return results
    except Exception:  # repro-lint: disable=REP008 -- each cell re-runs scalar and records its own traceback
        if span is not None:
            span.note("status", "fallback_scalar")
        return [execute_cell(cell, attempt=attempt) for cell in cells]
    finally:
        elapsed_total = time.perf_counter() - started
        device_ticks = metrics().counters.get("batch.device_ticks", 0.0) - ticks_before
        if elapsed_total > 0 and device_ticks > 0:
            metrics().set_gauge(
                "batch.device_ticks_per_s", device_ticks / elapsed_total
            )
        if tracer is not None:
            tracer.end(span)
            flush_task_metrics()


def _finish_lane(
    batch: Any,
    index: int,
    cell: ScenarioCell,
    governor_name: str,
    trace: Any,
    elapsed_s: float,
) -> CellResult:
    """One lane of a finished batch as its cell's result.

    The lane's :class:`Recorder` lives only for this call.  When tracing,
    the lane's ``cell`` span times its own materialisation, summary and
    hash; the kernel ran every lane jointly, so the span also carries the
    amortised share of the batch's wall time as ``amortised_s``.
    """
    tracer = active_tracer()
    child = (
        tracer.begin(
            "cell", fingerprint=cell.fingerprint(), label=cell.label(), batched=True
        )
        if tracer is not None
        else None
    )
    status = "error"
    try:
        recorder = batch.device_recorder(index)
        session = SessionResult(
            governor_name=governor_name,
            app_names=list(trace.app_names()),
            recorder=recorder,
            summary=recorder.summary(),
        )
        summary = summary_to_dict(session)
        status = "ok"
    finally:
        if child is not None:
            child.note("amortised_s", elapsed_s)
            child.note("status", status)
            tracer.end(child)
    return CellResult(cell=cell, status="ok", summary=summary, elapsed_s=elapsed_s)


def batchable_cell_groups(
    pending: List[Tuple[int, ScenarioCell]], workers: int = 1
) -> Tuple[List[List[Tuple[int, ScenarioCell]]], List[Tuple[int, ScenarioCell]]]:
    """Partition pending cells into batch-kernel groups and scalar leftovers.

    Only artifact-free cells batch (trained and federated cells evaluate a
    frozen artifact resolved elsewhere), and only cells agreeing on
    platform and config overrides (recording cadence aside) can share one
    :class:`~repro.sim.batch.BatchSimulation`.  Session durations and
    ``record_every_n_ticks`` overrides may differ within a group: the
    kernel's one lane-schedule loop retires each lane on its own budget and
    cadence.

    A group batches only where the batch kernel is faster than the scalar
    route, which :func:`~repro.experiments.federated.use_batch_kernel`
    decides from its cells' session lengths: at least
    :data:`~repro.experiments.federated.BATCH_MIN_LANES` effective lanes,
    and NumPy importable.  A bucket splits into one chunk per worker (of at
    least two cells) so a process pool still spreads a large sweep across
    its workers, and it batches only when every chunk clears that
    crossover; otherwise its cells run scalar, fanned out across the pool
    one by one, which beats fewer, wider chunks that would leave workers
    idle.  NumPy is imported only once a chunk clears the crossover.

    Returns ``(groups, rest)`` preserving the original ``(index, cell)``
    pairs; ``rest`` keeps its input order.
    """
    buckets: Dict[Any, List[Tuple[int, ScenarioCell]]] = {}
    rest: List[Tuple[int, ScenarioCell]] = []
    for index, cell in pending:
        if cell.training_spec() is not None or cell.fleet_spec() is not None:
            rest.append((index, cell))
            continue
        shared_overrides = tuple(
            (name, value)
            for name, value in cell.config_overrides
            if name != "record_every_n_ticks"
        )
        key = (cell.platform, shared_overrides)
        buckets.setdefault(key, []).append((index, cell))
    groups: List[List[Tuple[int, ScenarioCell]]] = []
    for bucket in buckets.values():
        chunk_count = max(1, min(workers, len(bucket) // 2))
        size = -(-len(bucket) // chunk_count)  # ceil division
        chunks = [bucket[start : start + size] for start in range(0, len(bucket), size)]
        if all(use_batch_kernel(_lane_seconds(chunk)) for chunk in chunks):
            groups.extend(chunks)
        else:
            rest.extend(bucket)
    rest.sort(key=lambda pair: pair[0])
    return groups, rest


def _lane_seconds(group: List[Tuple[int, ScenarioCell]]) -> List[float]:
    """Per-lane session lengths of a cell group: its lanes' tick budgets in seconds."""
    return [cell.workload.duration_s for _, cell in group]


def _training_error(fingerprint: str, spec: TrainingSpec, details: str) -> str:
    """One message format for "this cell's artifact failed to train"."""
    return (
        f"training failed for artifact {fingerprint} ({spec.label()}):\n{details}"
    )


def _fleet_error(fingerprint: str, spec: FleetSpec, details: str) -> str:
    """One message format for "this cell's fleet failed to train"."""
    return f"training failed for fleet {fingerprint} ({spec.label()}):\n{details}"


def default_artifact_dir(cache_dir: Optional[str]) -> Optional[str]:
    """Where a sweep with this result cache keeps its trained-agent artifacts."""
    if cache_dir is None:
        return None
    return os.path.join(cache_dir, "artifacts")


class ResultCache:
    """On-disk JSON cache of completed cells, keyed by cell fingerprint."""

    def __init__(self, directory: Optional[str]) -> None:
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _path(self, cell: ScenarioCell) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{cell.fingerprint()}.json")

    @staticmethod
    def _quarantine(path: str) -> None:
        """Move a corrupt entry aside as ``<path>.bad`` (best effort).

        Renaming instead of deleting keeps the evidence for post-mortems,
        frees the canonical path so the re-run can store a fresh result, and
        -- because merge/iteration only considers ``*.json`` names -- keeps
        the quarantined file out of every later cache operation.
        """
        try:
            os.replace(path, f"{path}.bad")
        except OSError:
            pass  # e.g. a racing runner already quarantined or replaced it

    def _read(self, cell: ScenarioCell) -> Tuple[Optional[CellResult], Optional[str]]:
        """Acceptance check without side effects: ``(result, corrupt_path)``.

        ``result`` is the accepted entry or ``None``; ``corrupt_path`` names
        the file when the miss was caused by unparseable content (so
        :meth:`load` can quarantine it) rather than by absence, semantic
        mismatch or a stale format.
        """
        path = self._path(cell)
        if path is None or not os.path.exists(path):
            return None, None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            result = CellResult.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None, path  # corrupt entry
        # Fingerprints are truncated hashes; verify the stored cell really is
        # semantically this cell before trusting the hit.  Comparing the
        # canonical payloads (the fingerprint hash inputs) applies the same
        # normalisation the fingerprint does -- matrix name excluded,
        # training variant reduced to its execution semantics -- in
        # JSON-canonical form: the cached payload already went through JSON
        # (tuples became lists), so the live one is normalised the same way.
        cached_payload = json.loads(json.dumps(result.cell.canonical_payload()))
        live_payload = json.loads(json.dumps(cell.canonical_payload()))
        if cached_payload != live_payload or not result.ok:
            return None, None
        if result.summary is None or "sample_stream_hash" not in result.summary:
            # Entry from before summaries carried the recorded-stream hash
            # (the distributed-merge parity currency).  The execution
            # semantics -- and therefore the fingerprint -- are unchanged,
            # so treat it as a stale-format miss: the cell recomputes once
            # and the rewritten entry carries the hash.
            return None, None
        return result, None

    def peek(self, cell: ScenarioCell) -> Optional[CellResult]:
        """Read-only form of :meth:`load`: same acceptance, no side effects.

        Used by inspection paths (``repro-sweep shard status``) that must
        agree with :meth:`load` about what counts as a completed cell but
        must not touch the directory -- not even to quarantine a torn file
        that might still be mid-copy.
        """
        result, _ = self._read(cell)
        return result

    def load(self, cell: ScenarioCell) -> Optional[CellResult]:
        """Return the cached result for ``cell``, or ``None`` on a miss.

        A truncated or otherwise corrupt entry (a torn copy, a filled disk
        mid-write on a non-atomic filesystem) is quarantined with a ``.bad``
        suffix and treated as a miss, so one bad file re-runs one cell
        instead of raising mid-sweep -- the same hardening the artifact
        store applies to its entries.
        """
        result, corrupt_path = self._read(cell)
        if corrupt_path is not None:
            self._quarantine(corrupt_path)
            metrics().inc("cache.quarantined")
        if result is None:
            metrics().inc("cache.miss")
            return None
        metrics().inc("cache.hit")
        result.cell = cell
        result.from_cache = True
        return result

    def store(self, result: CellResult) -> None:
        """Persist a successful result (errors are never cached)."""
        path = self._path(result.cell)
        if path is None or not result.ok:
            return
        atomic_write_json(path, result.to_dict())

    # -- merge support (used by repro.experiments.distributed) -------------------------

    #: Filename suffix of cache entries; everything else in the directory
    #: (``.bad`` quarantines, ``.tmp.<pid>`` staging files, the ``artifacts``
    #: subdirectory) is not a result entry.
    ENTRY_SUFFIX = ".json"

    def entry_paths(self) -> List[str]:
        """Paths of every result entry in the cache directory, sorted by name."""
        return list_entry_paths(self.directory, self.ENTRY_SUFFIX)

    @staticmethod
    def canonical_entry(data: Dict[str, Any]) -> Dict[str, Any]:
        """The content identity of one cache entry: everything but wall time.

        Two shards that executed the same cell produce entries identical in
        every field except ``elapsed_s`` (machine-dependent wall clock) and
        ``attempts`` (the retry lineage: which injected faults or broken
        pools a shard happened to weather, equally machine-dependent and
        equally unable to affect the result bytes).  The shard merge engine
        compares entries through this normalisation, so honest duplicates
        merge cleanly while any divergence in actual content -- summary
        values, status, the cell spec itself -- still fails the merge
        loudly.
        """
        normalised = dict(data)
        normalised.pop("elapsed_s", None)
        normalised.pop("attempts", None)
        return normalised


@dataclass
class SweepResult:
    """All cell results of one sweep, in the matrix's pre-registered order."""

    matrix: ScenarioMatrix
    results: List[CellResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> List[CellResult]:
        """Successful cells."""
        return [result for result in self.results if result.ok]

    @property
    def failures(self) -> List[CellResult]:
        """Failed cells (error results)."""
        return [result for result in self.results if not result.ok]

    @property
    def cached_count(self) -> int:
        """How many cells were served from the result cache."""
        return sum(1 for result in self.results if result.from_cache)

    def result_for(self, cell: ScenarioCell) -> CellResult:
        """The result of one specific cell (by fingerprint)."""
        wanted = cell.fingerprint()
        for result in self.results:
            if result.cell.fingerprint() == wanted:
                return result
        raise KeyError(f"no result for cell {cell.label()}")


class _PoolRestart(Exception):
    """Internal signal: the process pool must be torn down and rebuilt.

    Raised inside the pool event loop when the pool breaks (a worker died)
    or a watchdog deadline expires (a worker hung).  Carries the retry keys
    of the work that was in flight so :meth:`SweepRunner.run` can bump
    their attempt counters before resubmitting -- which is what lets a
    first-attempt-only injected crash or hang rule stop firing on the
    rebuilt pool.
    """

    def __init__(self, cause: str, keys: Tuple[str, ...]) -> None:
        super().__init__(cause)
        self.cause = cause
        self.keys = keys


class _InProcessExecutor:
    """The scheduler's executor for work that runs in the orchestrator.

    :meth:`submit` only queues the call and returns a pending
    :class:`~concurrent.futures.Future`; :func:`_wait_first` runs the oldest
    queued job and hands back just its future.  Jobs therefore run one at a
    time in submission order, and each result is settled -- cached,
    delivered or resubmitted -- before the next job starts, so an
    interrupted sequential sweep resumes from exactly what completed.

    A job's :class:`Exception` lands in its future, as it would on a process
    pool; ``KeyboardInterrupt`` and every other non-``Exception``
    :class:`BaseException` propagate.  This process is never marked as a
    pool worker, so an injected crash raises here instead of exiting.
    """

    def __init__(self) -> None:
        self._queue: Deque[Tuple[Future, Callable[..., Any], tuple, dict]] = deque()

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Queue ``fn(*args, **kwargs)``; it runs when :meth:`run_next` reaches it."""
        future: Future = Future()
        self._queue.append((future, fn, args, kwargs))
        return future

    def run_next(self) -> Future:
        """Run the oldest queued job and return its (now finished) future."""
        future, fn, args, kwargs = self._queue.popleft()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # repro-lint: disable=REP008 -- the future carries it to the scheduler, which classifies it
            future.set_exception(exc)
        return future


def _wait_first(
    executor: Union[ProcessPoolExecutor, _InProcessExecutor],
    futures: Set[Future],
    timeout: Optional[float],
) -> Set[Future]:
    """The scheduler's wait step: futures that finished, empty on timeout.

    A process pool waits for the first completion (or the next watchdog
    deadline); the in-process executor runs its oldest queued job, so its
    wait always returns exactly one finished future and a watchdog deadline
    can never expire while a job is still running.
    """
    if isinstance(executor, _InProcessExecutor):
        return {executor.run_next()}
    finished, _ = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
    return finished


class SweepRunner:
    """Runs every cell of a matrix, optionally across a process pool.

    One event loop runs every sweep.  ``max_workers=1``, a single pending
    cell and the fallback after the pool-rebuild budget is spent run it on
    an in-process executor, which executes the same jobs one at a time in
    this process; otherwise it runs on a process pool.

    Pretrained cells depend on a training job: every distinct
    :class:`TrainingSpec` among the pending cells is resolved through the
    runner's :class:`ArtifactStore` -- loaded when stored, trained exactly
    once otherwise (on the same executor the cells use) -- and each cell
    then evaluates its frozen artifact.  Federated cells resolve the same
    way through the :class:`FleetStore`: every distinct :class:`FleetSpec`
    trains once (its device rounds run as executor jobs, its round-0 device
    training cached in the artifact store) or is served -- complete or as
    a same-lineage resume point -- from disk.
    ``artifact_dir`` defaults to ``<cache_dir>/artifacts`` so cached sweeps
    also reuse their agents and fleets.

    Fault tolerance: ``retry_policy`` bounds how often transient failures
    (classified by :func:`repro.reliability.retry.classify_exception`)
    re-run and how long the seeded backoff between attempts is;
    ``watchdog`` prices per-job wall-clock budgets from the shard cost
    model so hung workers are detected and their cells rescheduled; a
    broken or watchdog-expired pool is rebuilt up to ``max_pool_rebuilds``
    times before the remaining cells finish on the in-process executor.
    The defaults enable all three with conservative settings (two retries,
    20x cost-model budgets with a 60 s floor, two rebuilds).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        artifact_dir: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog: Optional[WatchdogPolicy] = None,
        max_pool_rebuilds: int = 2,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")
        self.max_workers = max_workers
        self.cache = ResultCache(cache_dir)
        if artifact_dir is None:
            artifact_dir = default_artifact_dir(cache_dir)
        self.artifacts = ArtifactStore(artifact_dir)
        self.fleets = FleetStore(artifact_dir)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        if watchdog is None:
            # Imported lazily: distributed imports this module at top level.
            from repro.experiments.distributed import DEFAULT_COST_MODEL

            watchdog = WatchdogPolicy(cost_model=DEFAULT_COST_MODEL)
        self.watchdog = watchdog
        self.max_pool_rebuilds = max_pool_rebuilds

    def run(
        self,
        matrix: ScenarioMatrix,
        progress: Optional[ProgressCallback] = None,
        cells: Optional[List[ScenarioCell]] = None,
    ) -> SweepResult:
        """Execute the matrix and return results in cell order.

        ``cells`` restricts execution to a subset of the matrix (in the given
        order) -- the distributed shard worker passes its shard's cells here
        so one shard runs through exactly the same scheduling, caching and
        artifact-resolution paths as a whole-matrix sweep.
        """
        if cells is None:
            cells = matrix.cells()
        total = len(cells)
        slots: List[Optional[CellResult]] = [None] * total
        done = 0

        tracer = active_tracer()
        sweep_span = None
        previous_root = None
        if tracer is not None:
            sweep_span = tracer.begin(
                "sweep", matrix=getattr(matrix, "name", None), cells=total
            )
            # Export the sweep span as the parent for worker-side spans; the
            # pool inherits the updated env value at creation below.
            previous_root = tracer.sink.root
            tracer.adopt_root(sweep_span)

        def deliver(index: int, result: CellResult) -> None:
            nonlocal done
            slots[index] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

        try:
            pending: List[Tuple[int, ScenarioCell]] = []
            for index, cell in enumerate(cells):
                cached = self.cache.load(cell)
                if cached is not None:
                    deliver(index, cached)
                else:
                    pending.append((index, cell))

            workers = self.max_workers if self.max_workers is not None else os.cpu_count() or 1
            retry_states: Dict[str, RetryState] = {}
            rebuilds = 0
            while True:
                remaining = [
                    (index, cell) for index, cell in pending if slots[index] is None
                ]
                if not remaining:
                    break
                if workers <= 1 or len(remaining) <= 1 or rebuilds > self.max_pool_rebuilds:
                    # Either a sequential run was requested, or the pool broke
                    # more often than the rebuild budget allows.  Only the
                    # *remaining* cells run here: everything delivered before
                    # the last restart already sits in its slot and the cache.
                    self._schedule(
                        _InProcessExecutor(), 1, remaining, deliver, retry_states
                    )
                    break
                pool_workers = min(workers, len(remaining))
                try:
                    with ProcessPoolExecutor(
                        max_workers=pool_workers, initializer=mark_worker_process
                    ) as pool:
                        try:
                            self._schedule(
                                pool, pool_workers, remaining, deliver, retry_states
                            )
                        except (KeyboardInterrupt, _PoolRestart):
                            # Abandon queued and running work so the executor's
                            # __exit__ cannot block on a hung or dead worker.
                            # Every result delivered so far is already in the
                            # cache, so a re-run (or the rebuilt pool) resumes
                            # from exactly what completed.
                            self._abandon_pool(pool)
                            raise
                    break
                except _PoolRestart as restart:
                    rebuilds += 1
                    metrics().inc(
                        "watchdog.reschedules"
                        if restart.cause == "watchdog timeout"
                        else "pool.rebuilds"
                    )
                    emit_event(
                        "pool_restart", cause=restart.cause, cells=len(restart.keys)
                    )
                    for key in restart.keys:
                        state = retry_states.setdefault(key, RetryState())
                        state.record_failure(TRANSIENT, restart.cause, None)

            return SweepResult(
                matrix=matrix, results=[slot for slot in slots if slot is not None]
            )
        finally:
            if tracer is not None:
                sweep_span.note("done", done)
                tracer.end(sweep_span)
                tracer.set_root(previous_root)
                profiler = active_profiler()
                tracer.flush_metrics(
                    metrics().snapshot(),
                    profile=profiler.snapshot() if profiler is not None else None,
                )

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting for hung or dead workers.

        Worker processes are terminated outright: they compute in memory
        and return results by pickle -- every store write happens in the
        orchestrator -- so killing them mid-cell cannot corrupt anything on
        disk.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    def _schedule(
        self,
        executor: Union[ProcessPoolExecutor, _InProcessExecutor],
        workers: int,
        pending: List[Tuple[int, ScenarioCell]],
        deliver: Callable[[int, CellResult], None],
        retry_states: Dict[str, RetryState],
    ) -> None:
        """The sweep's one event loop: training jobs gate only their own cells.

        ``executor`` is a process pool of ``workers`` processes or, for
        sequential runs and the pool-rebuild fallback, an
        :class:`_InProcessExecutor` (``workers=1``); the loop is the same
        either way.  Missing artifacts are submitted *first* (so training
        starts on the first free workers), artifact-free cells run
        concurrently with the training phase, already-stored artifacts
        dispatch their cells immediately, and each freshly trained artifact
        releases its cells the moment it lands -- no cell ever waits on an
        unrelated spec.

        Routing: artifact-free cells batch in groups that
        :func:`batchable_cell_groups` found wide enough to beat the scalar
        route, and a fleet round runs as one batched job only when
        :func:`~repro.experiments.federated.use_batch_kernel` says its
        devices are; everything narrower runs one job per cell or device.
        NumPy availability is asked only for a group or round that clears
        the crossover, so a sweep with none never imports NumPy.

        Federated fleets resolve through the same event loop: stored fleets
        load up front (a same-lineage shallower fleet resumes), a missing
        fleet's round-0 device specs join the training queue (deduplicated
        against the cells' own specs and the artifact store), each
        continuation round runs -- one batched job, or one job per device --
        as soon as the previous round's aggregation lands, and a fleet's
        cells dispatch the moment its artifact is captured.  Unrelated cells
        keep flowing while fleets train, and a fleet failure fails exactly
        its own cells.

        Fault tolerance: every submitted job carries its retry attempt
        counter and, when the watchdog can price it, a wall-clock deadline.
        A transient in-band failure (a classified error result or raised
        exception) resubmits the same job after seeded backoff; a broken
        pool or an expired deadline raises :class:`_PoolRestart` carrying
        the in-flight retry keys, and :meth:`run` rebuilds the pool around
        whatever this loop already delivered.
        """
        specs: Dict[str, TrainingSpec] = {}
        fleet_specs: Dict[str, FleetSpec] = {}
        spec_cells: Dict[str, ScenarioCell] = {}  # spec fp -> a cell needing it
        for _, cell in pending:
            spec = cell.training_spec()
            if spec is not None:
                fingerprint = spec.fingerprint()
                specs.setdefault(fingerprint, spec)
                spec_cells.setdefault(fingerprint, cell)
            fleet = cell.fleet_spec()
            if fleet is not None:
                fleet_specs.setdefault(fleet.fingerprint(), fleet)

        pending_futures: set = set()
        #: future -> (monotonic deadline, retry keys to bump on expiry).
        deadlines: Dict[Any, Tuple[float, Tuple[str, ...]]] = {}
        cell_futures: Dict[Any, Tuple[int, ScenarioCell, Optional[CellArtifact]]] = {}
        waiting: Dict[str, List[Tuple[int, ScenarioCell]]] = {}

        # -- fleet state -------------------------------------------------------
        fleets: Dict[str, FleetArtifact] = {}
        builds: Dict[str, FleetBuild] = {}
        failed_fleets: Dict[str, str] = {}
        fleet_waiting: Dict[str, List[Tuple[int, ScenarioCell]]] = {}
        device_artifacts: Dict[str, AgentArtifact] = {}
        device_needs: Dict[str, List[str]] = {}  # device spec fp -> fleet fps
        missing_devices: Dict[str, set] = {}  # fleet fp -> unresolved device fps
        round_futures: Dict[Any, Tuple[str, int, int, Tuple[Any, ...]]] = {}
        round_buffers: Dict[str, List[Optional[Dict[str, Any]]]] = {}
        batched_round_futures: Dict[Any, Tuple[str, int, List[Tuple[Any, ...]]]] = {}
        batched_cell_futures: Dict[Any, List[Tuple[int, ScenarioCell]]] = {}

        def arm(future: Any, budget_s: Optional[float], keys: Tuple[str, ...]) -> None:
            """Give a future a watchdog deadline, when one can be priced."""
            if budget_s is not None:
                deadlines[future] = (monotonic_now() + budget_s, keys)

        def in_flight_keys() -> Tuple[str, ...]:
            """Retry keys of everything currently submitted to the pool.

            A broken pool voids every outstanding future at once, so all of
            them get their attempt counters bumped on restart -- which is
            what stops a first-attempt-only injected crash from re-firing
            and guarantees the rebuild loop converges.
            """
            keys = set()
            for _, in_flight_cell, _ in cell_futures.values():
                keys.add(in_flight_cell.fingerprint())
            for group in batched_cell_futures.values():
                keys.update(cell.fingerprint() for _, cell in group)
            keys.update(training_futures.values())
            for fleet_fp, round_index, device, _ in round_futures.values():
                keys.add(f"{fleet_fp}:r{round_index}:d{device}")
            keys.update(
                f"{fleet_fp}:r{round_index}"
                for fleet_fp, round_index, _ in batched_round_futures.values()
            )
            return tuple(sorted(keys))

        for fleet_fingerprint, fleet_spec in fleet_specs.items():
            stored = self.fleets.load(fleet_spec)
            if stored is not None:
                self.fleets.reused_count += 1
                fleets[fleet_fingerprint] = stored
            else:
                builds[fleet_fingerprint] = FleetBuild(
                    fleet_spec, start=self.fleets.resume_candidate(fleet_spec)
                )

        # -- artifact resolution: cell specs + fleet round-0 device specs ------
        artifacts: Dict[str, AgentArtifact] = {}
        missing: Dict[str, TrainingSpec] = {}
        for fleet_fingerprint, build in builds.items():
            if not build.needs_round0:
                continue
            unresolved = set()
            for device_spec in build.device_specs():
                fingerprint = device_spec.fingerprint()
                if fingerprint in device_artifacts:
                    continue
                if fingerprint not in missing:
                    artifact = self.artifacts.resolve(device_spec)
                    if artifact is not None:
                        device_artifacts[fingerprint] = artifact
                        continue
                    missing[fingerprint] = device_spec
                unresolved.add(fingerprint)
                device_needs.setdefault(fingerprint, []).append(fleet_fingerprint)
            if unresolved:
                missing_devices[fleet_fingerprint] = unresolved
        for fingerprint, spec in specs.items():
            if fingerprint in missing:
                continue  # already queued as a fleet device spec
            if fingerprint in device_artifacts:
                artifacts[fingerprint] = device_artifacts[fingerprint]
                continue
            artifact = self.artifacts.resolve(spec)
            if artifact is not None:
                artifacts[fingerprint] = artifact
            else:
                missing[fingerprint] = spec

        training_futures: Dict[Any, str] = {}

        def submit_training(fingerprint: str, spec: TrainingSpec) -> None:
            attempt = self._attempt_of(fingerprint, retry_states)
            future = executor.submit(train_artifact, spec, attempt=attempt)
            training_futures[future] = fingerprint
            pending_futures.add(future)
            # Price the budget from a cell that needs this spec; a fleet
            # round-0 device spec has no such cell, so it only gets the flat
            # --cell-timeout override (if any).
            representative = spec_cells.get(fingerprint)
            budget = (
                self.watchdog.training_budget_s(representative)
                if representative is not None
                else self.watchdog.cell_timeout_s
            )
            arm(future, budget, (fingerprint,))

        for fingerprint, spec in missing.items():
            submit_training(fingerprint, spec)

        def submit_cell(
            index: int, cell: ScenarioCell, artifact: Optional[CellArtifact] = None
        ) -> None:
            if isinstance(artifact, FleetArtifact):
                # Don't serialise N device states per cell; evaluation only
                # reads the merged agent.
                artifact = artifact.evaluation_only()
            key = cell.fingerprint()
            future = executor.submit(
                execute_cell, cell, artifact, attempt=self._attempt_of(key, retry_states)
            )
            cell_futures[future] = (index, cell, artifact)
            pending_futures.add(future)
            arm(future, self.watchdog.cell_budget_s(cell), (key,))

        def submit_round_job(
            fleet_fingerprint: str, round_index: int, device: int, job: Tuple[Any, ...]
        ) -> None:
            key = f"{fleet_fingerprint}:r{round_index}:d{device}"
            future = executor.submit(
                train_device_round, *job, attempt=self._attempt_of(key, retry_states)
            )
            round_futures[future] = (fleet_fingerprint, round_index, device, tuple(job))
            pending_futures.add(future)
            arm(future, self.watchdog.cell_timeout_s, (key,))

        def submit_round_batch(
            fleet_fingerprint: str, round_index: int, jobs: List[Tuple[Any, ...]]
        ) -> None:
            key = f"{fleet_fingerprint}:r{round_index}"
            future = executor.submit(
                train_device_rounds_batched,
                jobs,
                attempt=self._attempt_of(key, retry_states),
            )
            batched_round_futures[future] = (fleet_fingerprint, round_index, jobs)
            pending_futures.add(future)
            arm(future, self.watchdog.cell_timeout_s, (key,))

        def fail_fleet(fleet_fingerprint: str, details: str) -> None:
            failed_fleets[fleet_fingerprint] = details
            round_buffers.pop(fleet_fingerprint, None)
            error = _fleet_error(
                fleet_fingerprint, fleet_specs[fleet_fingerprint], details
            )
            for index, cell in fleet_waiting.pop(fleet_fingerprint, ()):
                deliver(
                    index,
                    CellResult(
                        cell=cell, status="error", error=error, error_kind=PERMANENT
                    ),
                )

        def advance_fleet(fleet_fingerprint: str) -> None:
            """Submit the build's next round, or capture and release it."""
            build = builds[fleet_fingerprint]
            if build.finished:
                artifact = build.artifact()
                self.fleets.accept(artifact, resumed=build.resumed)
                fleets[fleet_fingerprint] = artifact
                for index, cell in fleet_waiting.pop(fleet_fingerprint, ()):
                    submit_cell(index, cell, artifact)
                return
            round_index, jobs = build.round_jobs()
            if use_batch_kernel(round_lane_seconds(jobs)):
                # One job steps the whole fleet through the batched
                # device-population kernel -- bit-identical to the
                # one-job-per-device fan-out (the federated parity tests
                # pin it), but the round costs one worker instead of N.
                submit_round_batch(fleet_fingerprint, round_index, jobs)
                return
            round_buffers[fleet_fingerprint] = [None] * len(jobs)
            for device, job in enumerate(jobs):
                submit_round_job(fleet_fingerprint, round_index, device, job)

        # Kick off fleets that need no round-0 training: resumed lineages,
        # and fleets whose device artifacts were all served from the store.
        for fleet_fingerprint, build in builds.items():
            if not build.needs_round0:
                advance_fleet(fleet_fingerprint)
            elif fleet_fingerprint not in missing_devices:
                build.provide_round0(device_artifacts)
                advance_fleet(fleet_fingerprint)

        # Artifact-free cell groups wide enough to beat the scalar route run
        # through the batched device-population kernel, chunked so a pool
        # still spreads a large sweep across its workers; everything else
        # (trained, federated, narrow groups) dispatches per cell below.
        cell_groups, dispatch = batchable_cell_groups(pending, workers=workers)
        for group in cell_groups:
            group_cells = [cell for _, cell in group]
            attempt = max(
                self._attempt_of(cell.fingerprint(), retry_states)
                for cell in group_cells
            )
            future = executor.submit(
                execute_cells_batched, group_cells, attempt=attempt
            )
            batched_cell_futures[future] = group
            pending_futures.add(future)
            arm(
                future,
                self.watchdog.batch_budget_s(group_cells),
                tuple(cell.fingerprint() for cell in group_cells),
            )

        for index, cell in dispatch:
            fleet = cell.fleet_spec()
            if fleet is not None:
                fleet_fingerprint = fleet.fingerprint()
                if fleet_fingerprint in fleets:
                    submit_cell(index, cell, fleets[fleet_fingerprint])
                else:
                    # No fleet can have failed yet (nothing has completed),
                    # so every unresolved fleet's cells simply queue.
                    fleet_waiting.setdefault(fleet_fingerprint, []).append(
                        (index, cell)
                    )
                continue
            spec = cell.training_spec()
            if spec is None:
                submit_cell(index, cell)
                continue
            fingerprint = spec.fingerprint()
            if fingerprint in artifacts:
                submit_cell(index, cell, artifacts[fingerprint])
            else:
                waiting.setdefault(fingerprint, []).append((index, cell))

        while pending_futures:
            timeout = None
            if deadlines:
                timeout = max(
                    0.0,
                    min(deadline for deadline, _ in deadlines.values())
                    - monotonic_now(),
                )
            finished = _wait_first(executor, pending_futures, timeout)
            if not finished:
                # The wait timed out on a watchdog deadline.  Anything past
                # its budget is presumed hung: tear the pool down (run()
                # rebuilds it) rather than let one stuck worker stall the
                # sweep forever.
                now = monotonic_now()
                expired: set = set()
                for future, (deadline, keys) in deadlines.items():
                    if deadline <= now and not future.done():
                        expired.update(keys)
                if expired:
                    raise _PoolRestart("watchdog timeout", tuple(sorted(expired)))
                continue
            try:
                for future in finished:
                    pending_futures.discard(future)
                    deadlines.pop(future, None)
                    if future in training_futures:
                        fingerprint = training_futures.pop(future)
                        spec = missing[fingerprint]
                        try:
                            artifact = future.result()
                        except BrokenExecutor:
                            raise _PoolRestart(
                                "worker crash", in_flight_keys() + (fingerprint,)
                            )
                        except Exception as exc:
                            if self._note_failure(fingerprint, exc, retry_states):
                                self._backoff(
                                    fingerprint, retry_states[fingerprint].attempt
                                )
                                submit_training(fingerprint, spec)
                                continue
                            # The artifact failed to train for good: fail its
                            # cells, and any fleet whose round 0 needed it,
                            # without occupying workers (errors are never
                            # cached).
                            error = _training_error(
                                fingerprint, spec, traceback.format_exc()
                            )
                            for index, cell in waiting.pop(fingerprint, ()):
                                deliver(
                                    index,
                                    CellResult(
                                        cell=cell,
                                        status="error",
                                        error=error,
                                        error_kind=PERMANENT,
                                        error_type=type(exc).__name__,
                                    ),
                                )
                            for fleet_fingerprint in device_needs.pop(fingerprint, ()):
                                if fleet_fingerprint not in failed_fleets:
                                    fail_fleet(fleet_fingerprint, error)
                            continue
                        self.artifacts.accept(artifact)
                        device_artifacts[fingerprint] = artifact
                        for index, cell in waiting.pop(fingerprint, ()):
                            submit_cell(index, cell, artifact)
                        for fleet_fingerprint in device_needs.pop(fingerprint, ()):
                            if fleet_fingerprint in failed_fleets:
                                continue
                            unresolved = missing_devices[fleet_fingerprint]
                            unresolved.discard(fingerprint)
                            if not unresolved:
                                del missing_devices[fleet_fingerprint]
                                builds[fleet_fingerprint].provide_round0(
                                    device_artifacts
                                )
                                advance_fleet(fleet_fingerprint)
                    elif future in batched_cell_futures:
                        group = batched_cell_futures.pop(future)
                        try:
                            results = future.result()
                        except BrokenExecutor:
                            raise _PoolRestart(
                                "worker crash",
                                in_flight_keys()
                                + tuple(cell.fingerprint() for _, cell in group),
                            )
                        except Exception:  # repro-lint: disable=REP008 -- the group re-runs scalar below, where each cell records its own traceback
                            # Pool infrastructure failed for this job alone:
                            # retry the group's cells individually, restoring
                            # the scalar path's per-cell failure isolation.
                            results = None
                        if results is None or len(results) != len(group):
                            for index, cell in group:
                                submit_cell(index, cell)
                            continue
                        for (index, cell), result in zip(group, results):
                            self._settle_result(
                                index, cell, None, result, deliver, retry_states,
                                submit_cell,
                            )
                    elif future in batched_round_futures:
                        fleet_fingerprint, round_index, jobs = (
                            batched_round_futures.pop(future)
                        )
                        if fleet_fingerprint in failed_fleets:
                            continue
                        key = f"{fleet_fingerprint}:r{round_index}"
                        try:
                            states = future.result()
                        except BrokenExecutor:
                            raise _PoolRestart(
                                "worker crash", in_flight_keys() + (key,)
                            )
                        except Exception as exc:
                            if self._note_failure(key, exc, retry_states):
                                self._backoff(key, retry_states[key].attempt)
                                submit_round_batch(fleet_fingerprint, round_index, jobs)
                                continue
                            fail_fleet(fleet_fingerprint, traceback.format_exc())
                            continue
                        builds[fleet_fingerprint].finish_round(round_index, states)
                        advance_fleet(fleet_fingerprint)
                    elif future in round_futures:
                        fleet_fingerprint, round_index, device, job = round_futures.pop(
                            future
                        )
                        if fleet_fingerprint in failed_fleets:
                            continue  # a sibling device job already doomed it
                        key = f"{fleet_fingerprint}:r{round_index}:d{device}"
                        try:
                            state = future.result()
                        except BrokenExecutor:
                            raise _PoolRestart(
                                "worker crash", in_flight_keys() + (key,)
                            )
                        except Exception as exc:
                            if self._note_failure(key, exc, retry_states):
                                self._backoff(key, retry_states[key].attempt)
                                submit_round_job(
                                    fleet_fingerprint, round_index, device, job
                                )
                                continue
                            fail_fleet(fleet_fingerprint, traceback.format_exc())
                            continue
                        buffer = round_buffers[fleet_fingerprint]
                        buffer[device] = state
                        if all(entry is not None for entry in buffer):
                            del round_buffers[fleet_fingerprint]
                            builds[fleet_fingerprint].finish_round(round_index, buffer)
                            advance_fleet(fleet_fingerprint)
                    else:
                        index, cell, artifact = cell_futures.pop(future)
                        try:
                            result = future.result()
                        except BrokenExecutor:
                            raise _PoolRestart(
                                "worker crash",
                                in_flight_keys() + (cell.fingerprint(),),
                            )
                        except Exception as exc:
                            # execute_cell isolates workload errors itself;
                            # reaching here means the pool infrastructure
                            # failed for this one job (e.g. an unpicklable
                            # result).  Classify and settle it like any
                            # in-band failure.
                            result = CellResult(
                                cell=cell,
                                status="error",
                                error=traceback.format_exc(),
                                error_kind=classify_exception(exc),
                                error_type=type(exc).__name__,
                            )
                        self._settle_result(
                            index, cell, artifact, result, deliver, retry_states,
                            submit_cell,
                        )
            except BrokenExecutor:
                # The pool died while a handler was resubmitting work.  The
                # job being handled may lose its bump this round; its fault
                # simply fires once more on the rebuilt pool and the next
                # restart bumps it -- the rebuild budget still bounds the
                # total.
                raise _PoolRestart("worker crash", in_flight_keys())

    # -- retry bookkeeping ------------------------------------------------------------

    @staticmethod
    def _attempt_of(key: str, retry_states: Dict[str, RetryState]) -> int:
        """The attempt counter the next execution of ``key`` should carry."""
        state = retry_states.get(key)
        return 0 if state is None else state.attempt

    @staticmethod
    def _attach_lineage(result: CellResult, state: Optional[RetryState]) -> None:
        """Document survived failures on a success (no-op on clean runs)."""
        if state is not None and state.lineage:
            result.attempts = state.lineage_dicts()

    def _note_failure(
        self,
        key: str,
        failure: Union[CellResult, BaseException],
        retry_states: Dict[str, RetryState],
    ) -> bool:
        """Account one failed attempt; ``True`` iff the caller should retry.

        ``failure`` is an error :class:`CellResult` (classified where the
        cell ran) or the exception a job raised, classified here from
        inside the caller's ``except`` block.  A repeated identical
        traceback marks the failure deterministic -- replaying it again
        cannot end differently -- and quarantines the job immediately,
        regardless of remaining retry budget.
        """
        if isinstance(failure, BaseException):
            kind = classify_exception(failure)
            error_type = type(failure).__name__
            error: Optional[str] = traceback.format_exc()
        else:
            kind = failure.error_kind or PERMANENT
            error_type = failure.error_type or ""
            error = failure.error
        state = retry_states.setdefault(key, RetryState())
        repeated = state.record_failure(kind, error_type, error)
        retrying = (
            not repeated
            and kind == TRANSIENT
            # state.attempt now counts failures; retries used is one fewer.
            and self.retry_policy.should_retry(kind, state.attempt - 1)
        )
        self._note_retry_metrics(key, kind, state.attempt, retrying)
        return retrying

    @staticmethod
    def _note_retry_metrics(key: str, kind: str, attempt: int, retrying: bool) -> None:
        """Account one failed attempt in the obs layer."""
        metrics().inc(f"retry.{kind}")
        if not retrying:
            metrics().inc("retry.quarantined" if kind != TRANSIENT else "retry.exhausted")
        emit_event(
            "retry", key=key, kind=kind, attempt=attempt, will_retry=retrying
        )

    @staticmethod
    def _finalize_error(result: CellResult, state: RetryState) -> None:
        """Stamp a no-more-retries error with its classification and lineage."""
        result.error_kind = PERMANENT
        result.attempts = state.lineage_dicts()

    def _backoff(self, key: str, attempt: int) -> None:
        """Sleep the seeded, capped backoff before retry ``attempt``."""
        delay = self.retry_policy.backoff_s(key, attempt)
        if delay > 0:
            time.sleep(delay)

    def _settle_result(
        self,
        index: int,
        cell: ScenarioCell,
        artifact: Optional[CellArtifact],
        result: CellResult,
        deliver: Callable[[int, CellResult], None],
        retry_states: Dict[str, RetryState],
        submit_cell: Callable[..., None],
    ) -> None:
        """Deliver or retry one cell result (shared by cell and batch jobs)."""
        key = cell.fingerprint()
        if result.ok:
            self._attach_lineage(result, retry_states.get(key))
            self.cache.store(result)
            deliver(index, result)
        elif self._note_failure(key, result, retry_states):
            self._backoff(key, retry_states[key].attempt)
            submit_cell(index, cell, artifact)
        else:
            self._finalize_error(result, retry_states[key])
            deliver(index, result)


def run_matrix(
    matrix: ScenarioMatrix,
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    retry_policy: Optional[RetryPolicy] = None,
    watchdog: Optional[WatchdogPolicy] = None,
    max_pool_rebuilds: int = 2,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    runner = SweepRunner(
        max_workers=max_workers,
        cache_dir=cache_dir,
        artifact_dir=artifact_dir,
        retry_policy=retry_policy,
        watchdog=watchdog,
        max_pool_rebuilds=max_pool_rebuilds,
    )
    return runner.run(matrix, progress=progress)
