"""Deterministic, seeded fault injection at named execution seams.

Fault tolerance that is only exercised by real outages is untested code.
This module lets tests and the CI chaos job *schedule* failures -- worker
crashes, hung cells, torn JSON writes, transient exceptions -- and replay
exactly the same failure sequence on every run:

* a :class:`FaultPlan` is a seed plus a list of :class:`FaultRule` entries,
  each naming a seam (``site``), a failure ``kind``, a key pattern and a
  firing budget;
* instrumented seams call :func:`fault_point` with their site name, a
  stable key (a cell fingerprint, a store filename) and the orchestrator's
  attempt counter;
* whether a fault fires is a pure function of ``(plan seed, site, key,
  attempt)`` -- no process-global randomness, no wall clock -- so the same
  plan over the same work produces the same faults on any machine, and a
  retried attempt (higher ``attempt``) deterministically escapes a rule
  whose ``max_attempt`` budget is spent.

Activation is process-wide and inherited by pool workers: programmatic
:func:`activate_fault_plan` / :func:`injected_faults` also export the plan
through the ``REPRO_FAULT_PLAN`` environment variable (inline JSON or a
file path), which every worker process reads lazily on its first
instrumented call.  Without an active plan, :func:`fault_point` is a cheap
no-op -- production sweeps pay one ``None`` check per seam.

The seams themselves stay honest: a fault fires *before* the seam's real
work (or, for write seams, at a named stage inside it), so a retried
attempt that escapes its fault executes the untouched code path and -- by
the bit-identity contract -- produces exactly the bytes a fault-free first
attempt would have.  The chaos harness pins that parity per cell.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

#: Environment variable holding the active plan: inline JSON (starts with
#: ``{``) or a path to a JSON file.  Pool workers inherit it, so one
#: activation drives faults across the whole process tree.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Named seams.  Instrumented call sites import these constants so a typo'd
#: site name cannot silently disable a rule.
SITE_EXECUTE_CELL = "runner.execute_cell"
SITE_EXECUTE_BATCH = "runner.execute_cells_batched"
SITE_TRAIN_ARTIFACT = "artifacts.train_artifact"
SITE_TRAIN_DEVICE_ROUND = "federated.train_device_round"
SITE_ATOMIC_WRITE = "persistence.atomic_write_json"
#: Stage inside :func:`~repro.core.persistence.atomic_write_json` after the
#: temporary file is staged but before the ``os.replace`` publication --
#: a crash here models a process dying mid-write.
SITE_ATOMIC_WRITE_STAGED = "persistence.atomic_write_json:staged"

KNOWN_SITES = (
    SITE_EXECUTE_CELL,
    SITE_EXECUTE_BATCH,
    SITE_TRAIN_ARTIFACT,
    SITE_TRAIN_DEVICE_ROUND,
    SITE_ATOMIC_WRITE,
    SITE_ATOMIC_WRITE_STAGED,
)

#: Failure kinds a rule may inject.
KIND_CRASH = "crash"
KIND_HANG = "hang"
KIND_TRANSIENT = "transient"
KIND_TORN_WRITE = "torn_write"

KNOWN_KINDS = (KIND_CRASH, KIND_HANG, KIND_TRANSIENT, KIND_TORN_WRITE)

#: Exit code of an injected worker crash, distinctive in pool post-mortems.
CRASH_EXIT_CODE = 70


class InjectedTransientError(RuntimeError):
    """An injected transient failure: retryable by classification."""


class InjectedCrashError(RuntimeError):
    """An injected crash at a seam that cannot kill its host process.

    Write seams raise this instead of exiting so tests can observe the
    half-written state (staged temp file, untouched destination) that a
    genuine mid-write crash leaves behind.
    """


@dataclass(frozen=True)
class FaultRule:
    """One scheduled failure mode at one seam.

    ``match`` is an ``fnmatch`` pattern over the seam's key (cell
    fingerprint, store filename).  ``rate`` thins firing below 1.0 via the
    plan's seeded hash.  ``max_attempt`` bounds firing by the caller's
    attempt counter: the default of 1 fires on the first attempt only, so
    bounded retry always converges.  ``max_fires`` additionally bounds
    total firings per ``(site, key)`` within one process -- the budget that
    matters for write seams, which have no attempt counter.
    """

    site: str
    kind: str
    match: str = "*"
    rate: float = 1.0
    max_attempt: int = 1
    max_fires: Optional[int] = None
    hang_s: float = 2.0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {list(KNOWN_SITES)}"
            )
        if self.kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {list(KNOWN_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.max_attempt < 1:
            raise ValueError("max_attempt must be at least 1")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be at least 1 (or omitted)")
        if self.hang_s < 0:
            raise ValueError("hang_s must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the ``REPRO_FAULT_PLAN`` document)."""
        return {
            "site": self.site,
            "kind": self.kind,
            "match": self.match,
            "rate": self.rate,
            "max_attempt": self.max_attempt,
            "max_fires": self.max_fires,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        """Rebuild a rule from :meth:`to_dict` output."""
        return cls(
            site=data["site"],
            kind=data["kind"],
            match=data.get("match", "*"),
            rate=float(data.get("rate", 1.0)),
            max_attempt=int(data.get("max_attempt", 1)),
            max_fires=(
                None if data.get("max_fires") is None else int(data["max_fires"])
            ),
            hang_s=float(data.get("hang_s", 2.0)),
        )


def _decision_fraction(seed: int, site: str, key: str, attempt: int, rule_index: int) -> float:
    """Deterministic uniform draw in [0, 1) for one firing decision.

    A pure function of its inputs: the same plan over the same work yields
    the same faults in any process on any machine, which is what lets the
    chaos harness assert bit-identical results against a fault-free run.
    """
    text = "\x1f".join(str(part) for part in (seed, site, key, attempt, rule_index))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable schedule of injected failures."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def decide(self, site: str, key: str, attempt: int, fires: Mapping[Tuple[str, str], int]) -> Optional[FaultRule]:
        """The first rule that fires at this call, or ``None``.

        ``fires`` is the caller's per-process ``(site, key)`` firing
        counter, consulted for ``max_fires`` budgets; :func:`fault_point`
        owns the counter and increments it when a rule fires.
        """
        for index, rule in enumerate(self.rules):
            if rule.site != site or not fnmatch.fnmatchcase(key, rule.match):
                continue
            if attempt >= rule.max_attempt:
                continue
            if (
                rule.max_fires is not None
                and fires.get((site, key), 0) >= rule.max_fires
            ):
                continue
            if rule.rate < 1.0 and _decision_fraction(
                self.seed, site, key, attempt, index
            ) >= rule.rate:
                continue
            return rule
        return None

    # -- serialisation ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the ``REPRO_FAULT_PLAN`` document)."""
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self) -> str:
        """Compact JSON, suitable for the environment variable."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(
                FaultRule.from_dict(entry) for entry in data.get("rules", ())
            ),
        )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse an inline-JSON plan or a path to a JSON plan file."""
        text = text.strip()
        if not text:
            return cls()
        if not text.startswith("{"):
            with open(text, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Process-wide activation
# ---------------------------------------------------------------------------

#: Whether an injected ``crash`` may hard-exit this process.  Set by
#: :func:`mark_worker_process`, which the sweep runner installs as its pool
#: initializer: a crash in a pool worker dies for real (the parent observes
#: ``BrokenProcessPool``, exactly like a kernel OOM-kill), while the same
#: rule reached from the orchestrator or a sequential run raises
#: :class:`InjectedCrashError` instead -- killing the host there would take
#: the sweep (and the test suite) down with it.
_crash_exits_process = False
#: The programmatically activated plan, if any.  ``False`` means "not yet
#: resolved from the environment"; ``None`` means "resolved: no plan".
_active_plan: Any = False
#: The environment text the cached plan was parsed from, to detect changes.
_active_source: Optional[str] = None
#: Per-process ``(site, key) -> firings`` counter for ``max_fires`` budgets.
_fire_counts: Dict[Tuple[str, str], int] = {}


def mark_worker_process() -> None:
    """Declare this process expendable: injected crashes may hard-exit it.

    Installed as the sweep runner's ``ProcessPoolExecutor`` initializer, so
    the distinction between "worker" and "orchestrator" is structural
    rather than guessed from process ancestry.  Never unset: a process that
    was ever a pool worker stays expendable.

    Also empties the metrics registry: a fork()ed worker inherits the
    orchestrator's counters, and its per-task flushes must carry only its
    own deltas (the same fork-inheritance the tracer guards against).
    """
    global _crash_exits_process
    from repro.obs.metrics import reset_metrics

    _crash_exits_process = True
    reset_metrics()


def in_worker_process() -> bool:
    """Whether this process was marked as an expendable pool worker.

    Also the observability layer's worker test: a pool worker flushes its
    metrics into the trace as it finishes each task (its process may be
    recycled at any time), while the orchestrator flushes once per run.
    """
    return _crash_exits_process


def activate_fault_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` in this process and every future child process.

    Exported through ``REPRO_FAULT_PLAN`` so pool workers -- which may be
    forked or spawned -- pick the identical plan up from the environment.
    Resets the per-process firing counters so activation order cannot leak
    between tests.
    """
    global _active_plan, _active_source
    _active_plan = plan
    _active_source = plan.to_json()
    os.environ[FAULT_PLAN_ENV] = _active_source
    _fire_counts.clear()


def deactivate_fault_plan() -> None:
    """Clear the active plan (and the environment export)."""
    global _active_plan, _active_source
    _active_plan = None
    _active_source = None
    os.environ.pop(FAULT_PLAN_ENV, None)
    _fire_counts.clear()


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: activate ``plan``, deactivate on exit."""
    activate_fault_plan(plan)
    try:
        yield plan
    finally:
        deactivate_fault_plan()


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan driving this process, resolved lazily from the environment.

    A worker process that never saw :func:`activate_fault_plan` resolves
    the plan from ``REPRO_FAULT_PLAN`` on its first instrumented call; the
    parse is cached until the variable's text changes.
    """
    global _active_plan, _active_source
    source = os.environ.get(FAULT_PLAN_ENV)
    if _active_plan is not False and source == _active_source:
        return _active_plan
    if source is None:
        _active_plan, _active_source = None, None
        return None
    _active_plan = FaultPlan.parse(source)
    _active_source = source
    _fire_counts.clear()
    return _active_plan


def fire_counts() -> Dict[Tuple[str, str], int]:
    """This process's per-``(site, key)`` firing counters (for assertions)."""
    return dict(_fire_counts)


def fault_point(site: str, key: str, attempt: int = 0) -> Optional[FaultRule]:
    """Evaluate (and execute) any scheduled fault at an instrumented seam.

    * ``transient`` raises :class:`InjectedTransientError`,
    * ``crash`` hard-exits the process with :data:`CRASH_EXIT_CODE` at
      execution seams in a marked pool worker (modelling a killed worker;
      the parent pool observes ``BrokenProcessPool``) and raises
      :class:`InjectedCrashError` everywhere else -- at write seams, in the
      orchestrator and in sequential runs, where killing the host would
      take the sweep down too,
    * ``hang`` sleeps ``hang_s`` wall seconds and then returns the rule, so
      an un-watchdogged run still completes (slowly) with correct results,
    * ``torn_write`` returns the rule and lets the seam implement the tear
      (the seam knows what a torn version of its document looks like).

    Returns the fired rule for kinds the seam must act on itself, ``None``
    when nothing fired.
    """
    plan = active_fault_plan()
    if plan is None:
        return None
    rule = plan.decide(site, key, attempt, _fire_counts)
    if rule is None:
        return None
    _fire_counts[(site, key)] = _fire_counts.get((site, key), 0) + 1
    # Imported lazily: obs sits above reliability in the layering, and the
    # counter only matters once a fault actually fires.
    from repro.obs.metrics import metrics

    metrics().inc(f"faults.fired.{rule.kind}")
    if rule.kind == KIND_TRANSIENT:
        raise InjectedTransientError(
            f"injected transient fault at {site} (key={key}, attempt={attempt})"
        )
    if rule.kind == KIND_CRASH:
        if _crash_exits_process and site not in (
            SITE_ATOMIC_WRITE,
            SITE_ATOMIC_WRITE_STAGED,
        ):
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrashError(
            f"injected crash at {site} (key={key}, attempt={attempt})"
        )
    if rule.kind == KIND_HANG:
        time.sleep(rule.hang_s)
        return rule
    return rule  # torn_write: the seam implements the tear
