"""One ``repro-sweep`` invocation with every layer boundary timed from outside.

Usage::

    PYTHONPATH=src python3 sweepbench/traced.py --out LAYERS.json \
        --trace-file TRACE.jsonl [--spans SPANS.json] -- <repro-sweep arguments>

The benchmark's own code wraps each layer's public functions in
:class:`Layers` spans, runs the CLI in this process with ``--trace`` on,
and writes the per-layer metrics (names as in ``run.py``'s
``PER_LAYER_UNITS``) to ``LAYERS.json``, together with the CLI's output,
its exit code and any broken conservation law.  Nothing in the program is
changed: the hot-loop stages come from the program's opt-in profiler
(:mod:`repro.obs.profile`), switched per kernel route so scalar and batch
stage times stay apart.

Layers that run inside process-pool workers are out of reach of these
wrappers: a pooled sweep reports the orchestrator-side metrics only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence

perf = time.perf_counter

#: Profiler stage -> per-layer metric name (suffixed ``.scalar``/``.batch``).
STAGE_METRICS = {
    "workload": "workloads.tick_s",
    "pipeline": "graphics.pipeline_s",
    "power_thermal": "soc.power_thermal_s",
    "scaler": "soc.scaler_s",
    "governor": "governors.update_s",
    "recorder": "sim.recorder_s",
}


class Layers:
    """Spans and counts recorded at layer boundaries.

    A span's self time is its duration minus the time of the spans it
    directly encloses.  ``hot`` boundaries (once per governor decision)
    keep totals only; every other span is also kept in :attr:`spans`.
    """

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Fingerprints of the cells handed to the kernels (cache misses).
        self.computed: set = set()
        self.origin = perf()

    def parent(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str) -> List[Any]:
        frame = [name, perf(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: List[Any], hot: bool = False) -> float:
        end = perf()
        self.stack.pop()
        name, start, children = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        self.count[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        if not hot:
            self.spans.append(
                {
                    "name": name,
                    "start_s": start - self.origin,
                    "end_s": end - self.origin,
                    "parent": self.parent(),
                }
            )
        return duration

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        hot: bool = False,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``before(*args)`` returns the state ``after`` gets."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(*args, **kwargs) if before is not None else None
            frame = self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = self.exit(frame, hot)
                if after is not None:
                    after(state, result, duration, *args, **kwargs)

        # Same module and qualified name as ``fn``: process pools pickle
        # functions by reference, and must find the wrapper where ``fn`` was.
        return functools.wraps(fn)(wrapper)


def patch_function(module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace a function in every loaded ``repro`` module that imported it."""
    original = getattr(module, attr)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, attr, None) is original
        ):
            setattr(loaded, attr, wrapped)


def patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def instrument(layers: Layers) -> Dict[str, Any]:
    """Install every wrapper; returns the two hot-loop profilers."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.agent import NextAgent
    from repro.core.federated import FederatedAggregator
    from repro.experiments import artifacts, cli, federated, runner
    from repro.experiments.matrix import ScenarioMatrix
    from repro.governors.base import Governor
    from repro.obs import profile
    from repro.sim import engine, experiment

    profilers = {
        "scalar": profile.HotLoopProfiler(stride=1),
        "batch": profile.HotLoopProfiler(stride=1),
    }
    counters = layers.counters

    def routed(route: str, fn: Callable) -> Callable:
        """``fn`` with the route's profiler active: the kernels read it per run."""

        def call(*args, **kwargs):
            previous = profile._active_profiler
            profile._active_profiler = profilers[route]
            try:
                return fn(*args, **kwargs)
            finally:
                profile._active_profiler = previous

        return call

    def route_ticks() -> float:
        return sum(p.calls.get("workload", 0) for p in profilers.values())

    # -- experiments.matrix ------------------------------------------------------
    ScenarioMatrix.from_file = classmethod(
        layers.wrap("matrix.expand", ScenarioMatrix.from_file.__func__)
    )
    patch_method(ScenarioMatrix, "cells", lambda fn: layers.wrap("matrix.expand", fn))

    # -- experiments.runner --------------------------------------------------------
    def wrap_run(fn):
        timed = layers.wrap("runner.run", fn)

        def run(self, matrix, progress=None, cells=None):
            started = perf()
            expanded = len(cells) if cells is not None else len(matrix)
            counters["runner.expanded"] += expanded

            def deliver(done, total, result):
                if "runner.first_result_s" not in counters:
                    counters["runner.first_result_s"] = perf() - started
                if result.from_cache:
                    counters["cache.hits"] += 1
                if result.ok:
                    counters["delivered.ok"] += 1
                elif result.error_kind == "permanent":
                    counters["delivered.quarantined"] += 1
                else:
                    counters["delivered.failed"] += 1
                counters["reliability.retries"] += len(result.attempts or [])
                if progress is not None:
                    progress(done, total, result)

            return timed(self, matrix, progress=deliver, cells=cells)

        return run

    patch_method(runner.SweepRunner, "run", wrap_run)

    # Cache misses are the distinct cells handed to the kernels: in this
    # process on a sequential sweep, to the pool (seen at submit) otherwise.
    computed = layers.computed

    def cell_before(cell, artifact=None, attempt=0):
        computed.add(cell.fingerprint())
        if layers.parent() != "runner.execute_cells_batched":
            counters["runner.cells_scalar"] += 1

    patch_function(
        runner, "execute_cell",
        lambda fn: layers.wrap("runner.execute_cell", fn, before=cell_before),
    )

    def batch_before(cells, attempt=0):
        computed.update(cell.fingerprint() for cell in cells)
        counters["runner.cells_batched"] += len(cells)
        counters["runner.batch_groups"] += 1

    patch_function(
        runner, "execute_cells_batched",
        lambda fn: layers.wrap("runner.execute_cells_batched", fn, before=batch_before),
    )

    patch_function(
        runner, "summary_to_dict", lambda fn: layers.wrap("runner.summary", fn)
    )

    batch_wrapped: List[bool] = []

    def numpy_after(numpy_loaded, available, duration):
        if not numpy_loaded:
            counters["cli.numpy_import_s"] = duration
        if available and not batch_wrapped:
            batch_wrapped.append(True)
            instrument_batch_kernel(layers, profilers, routed)

    # The program imports NumPy lazily, on its first batch_kernel_available(),
    # and only uses the batch kernel after that call said yes.  The kernel
    # module imports NumPy, so it is wrapped then, not before: a run that
    # never needs NumPy must not load it here either.
    patch_function(
        federated, "batch_kernel_available",
        lambda fn: layers.wrap(
            "cli.numpy_import", fn,
            before=lambda: "numpy" in sys.modules, after=numpy_after,
        ),
    )

    def wrap_submit(fn):
        def submit(pool, task, *args, **kwargs):
            if task is runner.execute_cell:
                computed.add(args[0].fingerprint())
            elif task is runner.execute_cells_batched:
                computed.update(cell.fingerprint() for cell in args[0])
            return fn(pool, task, *args, **kwargs)

        return submit

    patch_method(ProcessPoolExecutor, "submit", wrap_submit)

    # -- ResultCache (runner) ------------------------------------------------------
    # Lookups are counted here, hits where results are delivered (above) and
    # misses where cells are computed, so hits + misses = lookups can fail.
    def load_before(cache_self, cell):
        counters["cache.lookups"] += 1

    patch_method(
        runner.ResultCache, "load",
        lambda fn: layers.wrap("cache.load", fn, before=load_before),
    )

    def store_after(state, _, duration, cache_self, result):
        if cache_self.directory is not None and result.ok:
            path = os.path.join(cache_self.directory, f"{result.cell.fingerprint()}.json")
            counters["cache.bytes_written"] += os.path.getsize(path)

    patch_method(
        runner.ResultCache, "store",
        lambda fn: layers.wrap("cache.store", fn, after=store_after),
    )

    # -- workloads -----------------------------------------------------------------
    patch_function(
        experiment, "record_session_trace",
        lambda fn: layers.wrap("workloads.record", fn),
    )

    # -- sim.engine (sim.batch: see instrument_batch_kernel) ------------------------
    def engine_before(sim_self, workload, duration_s=None):
        return profilers["scalar"].calls.get("workload", 0), sim_self.config.dt_s

    def engine_after(state, _, duration, *args, **kwargs):
        ticks_before, dt_s = state
        counters["engine.sim_s"] += (
            profilers["scalar"].calls.get("workload", 0) - ticks_before
        ) * dt_s

    patch_method(
        engine.Simulation, "run",
        lambda fn: layers.wrap(
            "engine.run", routed("scalar", fn), before=engine_before, after=engine_after
        ),
    )

    # -- governors (batch route) ---------------------------------------------------
    # Observation-free governors take the batch loop's vectorised path, bound
    # to ``update_batch`` when a BatchSimulation is built; the others go
    # through BatchSimulation._invoke_governor (see instrument_batch_kernel).
    def observation_free(cls):
        for sub in cls.__subclasses__():
            if sub.observation_free and "update_batch" in vars(sub):
                yield sub
            yield from observation_free(sub)

    for cls in set(observation_free(Governor)):
        patch_method(
            cls, "update_batch", lambda fn: layers.wrap("batch.governor", fn, hot=True)
        )

    # -- core (agent) --------------------------------------------------------------
    patch_method(NextAgent, "step", lambda fn: layers.wrap("core.agent_step", fn, hot=True))

    # -- experiments.artifacts -----------------------------------------------------
    def train_before(*args, **kwargs):
        return counters["engine.sim_s"]

    def train_after(sim_s_before, _, duration, *args, **kwargs):
        counters["artifacts.sim_s"] += counters["engine.sim_s"] - sim_s_before

    patch_function(
        artifacts, "train_artifact",
        lambda fn: layers.wrap("artifacts.train", fn, before=train_before, after=train_after),
    )
    for store in (artifacts.ArtifactStore, federated.FleetStore):
        patch_method(store, "store", lambda fn: layers.wrap("artifacts.store", fn))

    # -- experiments.federated / core.federated ------------------------------------
    def round_before(*args, **kwargs):
        return route_ticks()

    def round_after(ticks_before, _, duration, *args, **kwargs):
        counters["federated.device_ticks"] += route_ticks() - ticks_before

    for attr in ("train_device_rounds_batched", "train_device_round"):
        patch_function(
            federated, attr,
            lambda fn: layers.wrap(
                "federated.device_round", fn, before=round_before, after=round_after
            ),
        )
    # Round 0 is aggregated from per-device artifacts, later rounds from
    # device-round results: one call per aggregated round either way.
    for attr in ("provide_round0", "finish_round"):
        patch_method(
            federated.FleetBuild, attr, lambda fn: layers.wrap("federated.round", fn)
        )
    patch_method(
        FederatedAggregator, "aggregate",
        lambda fn: layers.wrap("federated.aggregate", fn),
    )

    # -- experiments.aggregate (as the CLI calls it) -------------------------------
    for attr in ("condition_table", "marginal_table"):
        setattr(cli, attr, layers.wrap("aggregate.tables", getattr(cli, attr)))
    return profilers


def instrument_batch_kernel(
    layers: Layers, profilers: Dict[str, Any], routed: Callable
) -> None:
    """Wrap ``BatchSimulation`` once NumPy is loaded; see :func:`instrument`."""
    from repro.sim.batch import BatchSimulation

    counters = layers.counters

    def batch_before_run(batch_self, workloads, duration_s=None):
        if duration_s is None:
            durations = [device.config.duration_s for device in batch_self.devices]
        elif isinstance(duration_s, (int, float)):
            durations = [float(duration_s)] * len(workloads)
        else:
            durations = [float(value) for value in duration_s]
        budgets = [
            int(round(duration / device.config.dt_s))
            for duration, device in zip(durations, batch_self.devices)
        ]
        counters["batch.input_lane_ticks"] += sum(budgets)
        counters["batch.stepped_lane_ticks"] += len(budgets) * max(budgets)

    patch_method(
        BatchSimulation, "run",
        lambda fn: layers.wrap("batch.run", routed("batch", fn), before=batch_before_run),
    )
    patch_method(
        BatchSimulation, "_invoke_governor",
        lambda fn: layers.wrap("batch.governor", fn, hot=True),
    )


def stage_metrics(
    route: str, profiler: Any, busy_s: float, governor_s: Optional[float]
) -> Dict[str, float]:
    """Hot-loop stage times of one kernel route; glue is what the stages leave."""
    snapshot = profiler.snapshot()["stages"]
    out = {}
    for stage, metric in STAGE_METRICS.items():
        entry = snapshot.get(stage, {"calls": 0, "sampled": 0, "wall_s": 0.0})
        sampled = entry["sampled"]
        out[f"{metric}.{route}"] = (
            entry["wall_s"] * entry["calls"] / sampled if sampled else 0.0
        )
    if governor_s is not None:
        # The batch loop's governor invocations are not a profiler stage;
        # the benchmark times them at BatchSimulation._invoke_governor and
        # at the observation-free governors' update_batch.
        out[f"governors.update_s.{route}"] = governor_s
    out[f"sim.loop_glue_s.{route}"] = busy_s - sum(out.values())
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(layers: Layers, profilers: Dict[str, Any], footer: Dict[str, float]) -> Dict[str, float]:
    c = layers.counters
    t = layers.total
    batch_ticks = float(profilers["batch"].calls.get("workload", 0))
    engine_ticks = float(profilers["scalar"].calls.get("workload", 0))
    metrics = {
        "matrix.expand_s": t["matrix.expand"],
        "runner.self_s": layers.self_time["runner.run"],
        "runner.first_result_s": c.get("runner.first_result_s", 0.0),
        "runner.cells_batched": c["runner.cells_batched"],
        "runner.cells_scalar": c["runner.cells_scalar"],
        "runner.batch_groups": c["runner.batch_groups"],
        "runner.cell_self_s": layers.self_time["runner.execute_cell"]
        + layers.self_time["runner.execute_cells_batched"],
        "runner.summary_s": t["runner.summary"],
        "cache.lookups": c["cache.lookups"],
        "cache.hits": c["cache.hits"],
        "cache.misses": float(len(layers.computed)),
        "cache.load_s": t["cache.load"],
        "cache.store_s": t["cache.store"],
        "cache.bytes_written": c["cache.bytes_written"],
        "workloads.record_s": t["workloads.record"],
        "batch.busy_s": t["batch.run"],
        "batch.device_ticks": batch_ticks,
        "batch.device_ticks_per_s": ratio(batch_ticks, t["batch.run"]),
        "batch.lane_utilisation": ratio(
            c["batch.input_lane_ticks"], c["batch.stepped_lane_ticks"]
        ),
        "engine.busy_s": t["engine.run"],
        "engine.ticks": engine_ticks,
        "engine.us_per_tick": 1e6 * ratio(t["engine.run"], engine_ticks),
        "core.agent_steps": float(layers.count["core.agent_step"]),
        "core.agent_step_us": 1e6
        * ratio(t["core.agent_step"], layers.count["core.agent_step"]),
        "artifacts.trained": float(layers.count["artifacts.train"]),
        "artifacts.train_s": t["artifacts.train"],
        "artifacts.sim_s_per_host_s": ratio(c["artifacts.sim_s"], t["artifacts.train"]),
        "artifacts.store_s": t["artifacts.store"],
        "federated.rounds": float(layers.count["federated.round"]),
        "federated.device_round_s": t["federated.device_round"],
        "federated.device_ticks_per_s": ratio(
            c["federated.device_ticks"], t["federated.device_round"]
        ),
        "federated.aggregate_s": t["federated.aggregate"],
        "aggregate.tables_s": t["aggregate.tables"],
        "reliability.retries": c["reliability.retries"],
        "reliability.quarantined": c["delivered.quarantined"],
        # The program's own trace-footer counters beside the benchmark's.
        "obs.counter_drift.cache_miss": footer.get("cache.miss", 0.0)
        - len(layers.computed),
        "obs.counter_drift.device_ticks": footer.get("batch.device_ticks", 0.0) - batch_ticks,
    }
    metrics.update(stage_metrics("scalar", profilers["scalar"], t["engine.run"], None))
    metrics.update(
        stage_metrics("batch", profilers["batch"], t["batch.run"], t["batch.governor"])
    )
    return metrics


def conservation_laws(layers: Layers, profilers: Dict[str, Any]) -> List[str]:
    """The laws the benchmark's own counts must obey; returns the broken ones."""
    c = layers.counters
    broken = []
    delivered = c["delivered.ok"] + c["delivered.failed"] + c["delivered.quarantined"]
    if delivered != c["runner.expanded"]:
        broken.append(
            f"ok + failed + quarantined = {delivered:g} != {c['runner.expanded']:g} "
            "expanded cells"
        )
    looked_up = c["cache.hits"] + len(layers.computed)
    if looked_up != c["cache.lookups"]:
        broken.append(
            f"hits + misses = {looked_up:g} != "
            f"{c['cache.lookups']:g} lookups"
        )
    stepped = profilers["batch"].calls.get("workload", 0)
    if c["batch.input_lane_ticks"] != stepped:
        broken.append(
            f"lane-ticks from the batch inputs = {c['batch.input_lane_ticks']:g} != "
            f"{stepped} device-ticks stepped"
        )
    return broken


def footer_counters(trace_path: str) -> Dict[str, float]:
    from repro.obs.report import merged_metrics
    from repro.obs.trace import read_trace

    events, _ = read_trace(trace_path)
    return merged_metrics(events).get("counters", {})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="traced repro-sweep invocation")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    started = perf()
    import repro.experiments.cli as cli

    import_s = perf() - started
    layers = Layers()
    profilers = instrument(layers)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exit_code = cli.main(cli_args + ["--trace", args.trace_file])
    numpy_import_s = layers.counters.get("cli.numpy_import_s")
    if numpy_import_s is None:
        # This run never needed NumPy (a fully cached sweep): time the
        # import the batch route would pay, after the traced run.
        started = perf()
        import numpy  # noqa: F401

        numpy_import_s = perf() - started

    metrics = layer_metrics(layers, profilers, footer_counters(args.trace_file))
    metrics["cli.import_s"] = import_s
    metrics["cli.numpy_import_s"] = numpy_import_s
    metrics["laws"] = conservation_laws(layers, profilers)
    metrics["cli_output"] = output.getvalue()
    metrics["cli_exit_code"] = exit_code
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle, indent=1, sort_keys=True)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(layers.spans, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
