#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro-sweep`` CLI.

Usage (from the root of a checkout)::

    python3 sweepbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0
    python3 sweepbench/run.py --workload train-fleet --seed 1 --seconds 20 --trace 1

``--trace 0`` times the real CLI as a user runs it (a fresh process per
invocation, tracing off) and prints the end-to-end metrics.  ``--trace 1``
runs the same command once untraced and once through ``traced.py``, which
wraps each layer's public functions in-process, and prints the per-layer
metrics.  Every run checks every output: each cell's ``sample_stream_hash``
against the pins in ``expected.json`` (default seed) or against a scalar
re-run of a fixed subset of cells with NumPy hidden (any other seed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the host and the per-metric median and quartiles within the run;
the same record is kept under ``.bench_build/sweepbench/results/``.
See ``sweepbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI_SOURCE = SRC / "repro" / "experiments" / "cli.py"
WORK_ROOT = ROOT / ".bench_build" / "sweepbench"
RESULTS_DIR = WORK_ROOT / "results"
NO_NUMPY = BENCH_DIR / "no_numpy"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: The seed whose outputs are pinned in ``expected.json``.
DEFAULT_SEED = 0
#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Timed sweep invocations per run at least, however long they take.
MIN_REPS = 3
#: A child process still running after this long is killed (counts as failed).
CHILD_TIMEOUT_S = 150.0
#: The speed probe wakes this often on each CPU a child may run on.
PROBE_PERIOD_S = 0.02
#: Iterations of the probe's fixed loop (about 0.2 ms on the reference host).
PROBE_LOOP = 1500
#: The probe loop's typical duration on the reference host (README, "Noise").
PROBE_REF_S = 170e-6
#: How much more a sweep slows than the probe loop when a core slows: on
#: the reference host a log-log fit of invocation time on mean probe time
#: gave slopes of 1.0 to 1.6 across the workloads.
PROBE_EXPONENT = 1.25

#: What ``setup_s`` times: a fresh interpreter importing the CLI and NumPy
#: and expanding the workload's matrix into fingerprinted cells.
SETUP_CODE = (
    "import sys, numpy, repro.experiments.cli\n"
    "from repro.experiments.matrix import ScenarioMatrix\n"
    "[cell.fingerprint() for cell in ScenarioMatrix.from_file(sys.argv[1]).cells()]\n"
)

SWEEP_GOVERNORS = ("schedutil", "performance", "powersave", "conservative")
SWEEP_APPS = ("facebook", "lineage", "pubg", "spotify", "web_browser", "youtube")
FLEET_APPS = ("facebook", "spotify")


def sweep_matrix(seed: int, tiny: bool) -> Dict[str, Any]:
    """The baseline sweep: 4 non-learning governors x 6 apps x 2 seeds = 48 cells.

    Games (lineage, pubg) run 4/3 as long as the other apps, as in the
    ``baselines`` matrix, so a third of the lanes outlive the rest and the
    batch kernel runs masked for the last quarter of the session.
    """
    return {
        "name": "bench-sweep",
        "governors": list(SWEEP_GOVERNORS),
        "workloads": list(SWEEP_APPS),
        "seeds": [2 * seed, 2 * seed + 1],
        "duration_s": 1.5 if tiny else 6.0,
        "game_duration_s": 2.0 if tiny else 8.0,
    }


def fleet_matrix(seed: int, tiny: bool) -> Dict[str, Any]:
    """The named ``federated`` matrix with 4 devices and 3 rounds, at a third of its length.

    At the default seed the cells equal ``repro-sweep federated --devices 4
    --rounds 3`` except that sessions run 10 s and training episodes 6 s
    (30 s and 20 s in the named matrix), so a run fits four invocations.
    """
    trained = {
        "apps": list(FLEET_APPS),
        "episodes": 2,
        "episode_duration_s": 2.0 if tiny else 6.0,
        "seed": seed,
    }
    return {
        "name": "federated",
        "governors": ["schedutil", "next"],
        "workloads": list(FLEET_APPS),
        "seeds": [seed],
        "duration_s": 2.0 if tiny else 10.0,
        "training": [
            {"key": "cold", "mode": "cold"},
            {"key": "pretrained", "mode": "pretrained", **trained},
            {"key": "federated", "mode": "federated", **trained, "devices": 4, "rounds": 3},
        ],
    }


MATRICES = {"sweep": sweep_matrix, "fleet": fleet_matrix}

#: Cells (by index in matrix order) that a non-default seed re-runs through
#: the scalar ``execute_cell`` as the reference.  The fleet subset holds one
#: pretrained and one federated cell, so both training paths are re-run.
REFERENCE_CELLS = {"sweep": tuple(range(0, 48, 5)), "fleet": (0, 2, 3, 5)}


@dataclass(frozen=True)
class Workload:
    matrix: str
    workers: int
    warm: bool


WORKLOADS = {
    "sweep-cold": Workload("sweep", workers=1, warm=False),
    "train-fleet": Workload("fleet", workers=1, warm=False),
    "sweep-warm": Workload("sweep", workers=1, warm=True),
    "sweep-pool": Workload("sweep", workers=2, warm=False),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
}

#: Per-layer metrics of the traced run, with their units (README has the
#: definitions).  Hot-loop stages come once per kernel route.
STAGES = (
    "workloads.tick_s",
    "graphics.pipeline_s",
    "soc.power_thermal_s",
    "soc.scaler_s",
    "governors.update_s",
    "sim.recorder_s",
    "sim.loop_glue_s",
)
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "matrix.expand_s": "s",
    "runner.self_s": "s",
    "runner.first_result_s": "s",
    "runner.cells_batched": "count",
    "runner.cells_scalar": "count",
    "runner.batch_groups": "count",
    "runner.cell_self_s": "s",
    "runner.summary_s": "s",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.bytes_written": "bytes",
    "workloads.record_s": "s",
    "batch.busy_s": "s",
    "batch.device_ticks": "count",
    "batch.device_ticks_per_s": "1/s",
    "batch.lane_utilisation": "ratio",
    "engine.busy_s": "s",
    "engine.ticks": "count",
    "engine.us_per_tick": "us",
    **{f"{stage}.{route}": "s" for route in ("scalar", "batch") for stage in STAGES},
    "core.agent_steps": "count",
    "core.agent_step_us": "us",
    "artifacts.trained": "count",
    "artifacts.train_s": "s",
    "artifacts.sim_s_per_host_s": "ratio",
    "artifacts.store_s": "s",
    "federated.rounds": "count",
    "federated.device_round_s": "s",
    "federated.device_ticks_per_s": "1/s",
    "federated.aggregate_s": "s",
    "aggregate.tables_s": "s",
    "reliability.retries": "count",
    "reliability.quarantined": "count",
    "bench.trace_overhead": "ratio",
    "obs.counter_drift.cache_miss": "count",
    "obs.counter_drift.device_ticks": "count",
}

SUMMARY_RE = re.compile(
    r"^(\d+)/(\d+) cells ok, (\d+) from cache, (\d+) failed$", re.MULTILINE
)
QUARANTINE_RE = re.compile(r"(\d+) cell\(s\) quarantined as permanent")


# ------------------------------------------------------------------------------------
# Child processes
# ------------------------------------------------------------------------------------


@dataclass
class Invocation:
    """One child process: its wall time, CPU time, peak RSS and output.

    ``speed`` is how fast the CPUs it ran on were while it ran, relative
    to the reference host (see :class:`SpeedProbe`); ``ref_wall_s`` and
    ``ref_cpu_s`` are its times at reference speed.
    """

    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: int
    output: str
    speed: float

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def probe_loop() -> int:
    """The probe's fixed work: a small pure-Python loop."""
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the speed of the CPUs this process may run on.

    On a shared host the speed of a core changes by a third or more from
    one second to the next, as other tenants load the host, and it changes
    a child's wall and CPU time alike.  While a child runs,
    one thread per CPU of this process's affinity set wakes every
    :data:`PROBE_PERIOD_S`, runs :func:`probe_loop` on that CPU and times
    it.  The child inherits the same set, so the samples are taken on the
    cores it runs on, in the seconds it runs.  They take about 1% of those
    cores.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        while True:
            started = time.perf_counter()
            probe_loop()
            self.samples.append(time.perf_counter() - started)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def speed(self) -> float:
        """How fast the CPUs ran, 1.0 at reference speed.

        ``(PROBE_REF_S / mean sample) ** PROBE_EXPONENT``.  The mean, unlike
        the median, also counts the rare samples a stalled core stretches.
        """
        return (PROBE_REF_S / statistics.fmean(self.samples)) ** PROBE_EXPONENT


def pin_to(cpus: int) -> Set[int]:
    """Restrict this thread, and the children it starts, to its first ``cpus`` CPUs.

    A sequential sweep then runs on one core, the core its probe samples.
    Returns the previous set, for ``os.sched_setaffinity`` to restore.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(allowed)[:cpus])
    return allowed


def launch(argv: Sequence[str], env: Dict[str, str], cwd: Path, log_path: Path) -> Invocation:
    """Run ``argv`` to completion, timed from launch to exit.

    ``os.wait4`` reports the child's own usage together with every
    descendant it reaped (pool workers included), so CPU time and peak RSS
    cover the whole sweep.  A child that outlives :data:`CHILD_TIMEOUT_S`
    is killed and reported with a non-zero return code.  A
    :class:`SpeedProbe` runs alongside.
    """
    with open(log_path, "w+", encoding="utf-8") as log, SpeedProbe() as probe:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read()
    return Invocation(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        output=output,
        speed=probe.speed(),
    )


def child_env(workdir: Path, hide_numpy: bool = False) -> Dict[str, str]:
    """The environment of every child: this checkout's sources, no fault plans."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    paths = [str(NO_NUMPY)] if hide_numpy else []
    env["PYTHONPATH"] = os.pathsep.join(paths + [str(SRC)])
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def cli_args(spec: Path, cache_dir: Path, workers: int) -> List[str]:
    """The ``repro-sweep`` arguments of one workload invocation."""
    return ["--spec", str(spec), "--cache-dir", str(cache_dir), "--max-workers", str(workers)]


def cli_argv(spec: Path, cache_dir: Path, workers: int) -> List[str]:
    return [sys.executable, "-m", "repro.experiments.cli", *cli_args(spec, cache_dir, workers)]


# ------------------------------------------------------------------------------------
# Output verification
# ------------------------------------------------------------------------------------


@dataclass
class Expected:
    """What a correct sweep leaves behind.

    ``hashes`` covers every cell for a pinned seed and the reference subset
    otherwise; ``cells`` always lists every fingerprint the matrix expands to.
    """

    cells: List[str]
    hashes: Dict[str, str]
    artifacts: List[str]
    fleets: List[str]


def pin_key(matrix: str, tiny: bool) -> str:
    return f"{matrix}/{'tiny' if tiny else 'full'}"


def load_pins(path: Path, matrix: str, tiny: bool) -> Expected:
    with open(path, "r", encoding="utf-8") as handle:
        pins = json.load(handle)[pin_key(matrix, tiny)]
    return Expected(
        cells=sorted(pins["cells"]),
        hashes=dict(pins["cells"]),
        artifacts=list(pins["artifacts"]),
        fleets=list(pins["fleets"]),
    )


def reference(spec: Path, matrix: str, workdir: Path) -> Tuple[Optional[Expected], str]:
    """Re-run the reference subset through the scalar route, NumPy hidden."""
    out = workdir / "reference.json"
    run = launch(
        [sys.executable, str(BENCH_DIR / "reference.py"), str(spec), str(out),
         ",".join(str(index) for index in REFERENCE_CELLS[matrix])],
        child_env(workdir, hide_numpy=True),
        workdir,
        workdir / "reference.log",
    )
    if run.returncode != 0:
        return None, run.output
    with open(out, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return Expected(**data), run.output


def stored_outputs(cache_dir: Path) -> Tuple[Dict[str, str], List[str], List[str]]:
    """``(cell hashes, agent fingerprints, fleet fingerprints)`` of one cache."""
    hashes: Dict[str, str] = {}
    for path in sorted(cache_dir.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            hashes[path.stem] = entry["summary"]["sample_stream_hash"]
        except (OSError, ValueError, KeyError, TypeError):
            continue  # unreadable entry: the cell counts as missing
    store = cache_dir / "artifacts"
    agents = sorted(p.name[: -len(".agent.json")] for p in store.glob("*.agent.json"))
    fleets = sorted(p.name[: -len(".fleet.json")] for p in store.glob("*.fleet.json"))
    return hashes, agents, fleets


def report_tables(output: str) -> str:
    """The aggregate report block: everything between the progress lines and the summary."""
    lines = output.splitlines()
    body = [line for line in lines[1:] if not line.startswith("  [")]
    text = "\n".join(body)
    match = SUMMARY_RE.search(text)
    return text[: match.start()] if match else text


def failed_cells(
    run: Invocation,
    expected: Expected,
    cache_dir: Path,
    consensus: Dict[str, str],
    warm_tables: Optional[str] = None,
) -> Tuple[int, List[str]]:
    """Count the failed cells of one invocation and say why.

    A cell fails when the sweep reports it failed or quarantined, when its
    cache entry is missing or carries the wrong ``sample_stream_hash``, or
    when it disagrees with an earlier invocation of the same run
    (``consensus``).  A non-zero exit, a missing summary line, a wrong
    artifact store or (warm runs) a report that differs from the one the
    cache was filled with fails every cell.
    """
    total = len(expected.cells)
    if run.returncode != 0:
        return total, [f"exit code {run.returncode}"]
    summaries = SUMMARY_RE.findall(run.output)
    if not summaries:
        return total, ["no summary line"]
    ok, cells, cached, failed = (int(field) for field in summaries[-1])
    reasons = []
    bad = max(failed, cells - ok, total - cells)
    quarantined = QUARANTINE_RE.search(run.output)
    if quarantined:
        bad = max(bad, int(quarantined.group(1)))
    if bad:
        reasons.append(f"sweep reported {bad} failed cell(s)")
    if warm_tables is not None:
        if cached != total:
            reasons.append(f"only {cached}/{total} cells came from the cache")
            return total, reasons
        if report_tables(run.output) != warm_tables:
            reasons.append("report differs from the cold run that filled the cache")
            return total, reasons
    hashes, agents, fleets = stored_outputs(cache_dir)
    if agents != expected.artifacts or fleets != expected.fleets:
        reasons.append("artifact store does not hold the expected agents and fleets")
        return total, reasons
    wrong = set()
    for fingerprint in expected.cells:
        got = hashes.get(fingerprint)
        want = expected.hashes.get(fingerprint, consensus.get(fingerprint))
        if got is None or (want is not None and got != want):
            wrong.add(fingerprint)
    for fingerprint in expected.cells:
        if fingerprint not in wrong and fingerprint in hashes:
            consensus.setdefault(fingerprint, hashes[fingerprint])
    if wrong:
        reasons.append(f"{len(wrong)} cell(s) missing or with the wrong sample_stream_hash")
    return max(bad, len(wrong)), reasons


# ------------------------------------------------------------------------------------
# Runs
# ------------------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def host_record() -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
    }


class Run:
    """State of one benchmark run: its work directory, inputs and failures."""

    def __init__(self, name: str, seed: int, tiny: bool) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.tiny = tiny
        self.workdir = WORK_ROOT / f"{name}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "tmp").mkdir(parents=True)
        self.env = child_env(self.workdir)
        self.spec = self.workdir / "matrix.json"
        with open(self.spec, "w", encoding="utf-8") as handle:
            json.dump(MATRICES[self.workload.matrix](seed, tiny), handle, indent=1)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.consensus: Dict[str, str] = {}
        self.sweeps = 0
        self.expected: Optional[Expected] = None

    def load_expected(self) -> None:
        """Pinned outputs for the default seed, a scalar reference otherwise."""
        if self.seed == DEFAULT_SEED:
            self.expected = load_pins(EXPECTED_PATH, self.workload.matrix, self.tiny)
            return
        expected, output = reference(self.spec, self.workload.matrix, self.workdir)
        if expected is None:
            raise RuntimeError(f"reference re-run failed:\n{output}")
        self.expected = expected

    def cache_dir(self) -> Path:
        return self.workdir / ("cache" if self.workload.warm else f"cache-{self.sweeps}")

    def sweep(self, warm_tables: Optional[str] = None, count: bool = True) -> Invocation:
        """One CLI invocation (a fresh cache unless the workload is warm), checked."""
        self.sweeps += 1
        cache = self.cache_dir()
        run = launch(
            cli_argv(self.spec, cache, self.workload.workers),
            self.env,
            self.workdir,
            self.workdir / f"sweep-{self.sweeps}.log",
        )
        self.check(run, cache, warm_tables, count)
        if not self.workload.warm:
            shutil.rmtree(cache, ignore_errors=True)
        return run

    def check(
        self, run: Invocation, cache: Path, warm_tables: Optional[str], count: bool = True
    ) -> None:
        """Account one invocation's cells; untimed preparation counts only if it failed."""
        bad, reasons = failed_cells(
            run, self.expected, cache, self.consensus, warm_tables
        )
        if count or bad:
            self.attempted += len(self.expected.cells)
            self.failed += bad
        self.problems.extend(f"invocation {self.sweeps}: {reason}" for reason in reasons)

    def fill(self) -> Optional[str]:
        """Fill the warm workload's cache (preparation, not timed)."""
        if not self.workload.warm:
            return None
        run = self.sweep(count=False)
        return report_tables(run.output)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup_probe(run: Run) -> Invocation:
    """One fresh interpreter importing the CLI and NumPy and expanding the matrix."""
    result = launch(
        [sys.executable, "-c", SETUP_CODE, str(run.spec)],
        run.env,
        run.workdir,
        run.workdir / "setup.log",
    )
    if result.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{result.output}")
    return result


def timed_run(run: Run, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """``--trace 0``: CLI invocations for ``seconds``, with set-up probes between them.

    The probes are spread over the run (one after each stretch of
    ``seconds / SETUP_PROBES`` spent sweeping).  Timings are taken at
    reference speed (:class:`SpeedProbe`); the stats keep the raw ones too.
    """
    setup_probe(run)  # byte-compiles a fresh checkout; not kept
    warm_tables = run.fill()
    setups: List[Invocation] = []
    sweeps: List[Invocation] = []
    errors: List[float] = []
    cells = len(run.expected.cells)
    swept_s = 0.0
    while len(sweeps) < MIN_REPS or swept_s < seconds:
        while len(setups) < SETUP_PROBES * min(1.0, swept_s / seconds):
            setups.append(setup_probe(run))
        before = run.failed
        invocation = run.sweep(warm_tables)
        sweeps.append(invocation)
        swept_s += invocation.wall_s
        # Laplace's rule of succession: (failed + 1) / (cells + 2) reads
        # 1/(n+2) for a clean invocation instead of 0, so the metric stays
        # a usable base for relative bounds while still rising with every
        # failed cell.
        errors.append((run.failed - before + 1) / (cells + 2))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(run))
    samples = {
        "setup_s": [probe.ref_wall_s for probe in setups],
        "sweep_s": [sweep.ref_wall_s for sweep in sweeps],
        "cpu_s": [sweep.ref_cpu_s for sweep in sweeps],
        "peak_rss_mb": [sweep.rss_mib for sweep in sweeps],
    }
    raw = {
        "raw.setup_s": [probe.wall_s for probe in setups],
        "raw.sweep_s": [sweep.wall_s for sweep in sweeps],
        "raw.cpu_s": [sweep.cpu_s for sweep in sweeps],
        "speed": [sweep.speed for sweep in sweeps],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["error_rate"] = statistics.fmean(errors)
    stats = {name: quartiles(values) for name, values in {**samples, **raw}.items()}
    stats["error_rate"] = quartiles(errors)
    return metrics, stats


def traced_run(run: Run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """``--trace 1``: one untraced invocation, then the same command traced."""
    warm_tables = run.fill()
    untraced = run.sweep(warm_tables)
    run.sweeps += 1
    cache = run.cache_dir()
    layers_path = run.workdir / "layers.json"
    traced = launch(
        [
            sys.executable, str(BENCH_DIR / "traced.py"),
            "--out", str(layers_path),
            "--trace-file", str(run.workdir / "trace.jsonl"),
            "--spans", str(WORK_ROOT / f"spans-{run.name}.json"),
            "--",
            *cli_args(run.spec, cache, run.workload.workers),
        ],
        run.env,
        run.workdir,
        run.workdir / f"sweep-{run.sweeps}.log",
    )
    if traced.returncode != 0 or not layers_path.exists():
        run.attempted += len(run.expected.cells)
        run.failed += len(run.expected.cells)
        run.problems.append(f"traced run failed:\n{traced.output[-4000:]}")
        return {name: 0.0 for name in PER_LAYER_UNITS}, {}
    with open(layers_path, "r", encoding="utf-8") as handle:
        layers = json.load(handle)
    traced.output = layers.pop("cli_output")
    traced.returncode = layers.pop("cli_exit_code")
    run.check(traced, cache, warm_tables)
    laws = layers.pop("laws")
    cells = len(run.expected.cells)
    want_hits = cells if run.workload.warm else 0
    if (layers["cache.hits"], layers["cache.misses"]) != (want_hits, cells - want_hits):
        laws.append(
            f"cache hits/misses {layers['cache.hits']:g}/{layers['cache.misses']:g}, "
            f"expected {want_hits}/{cells - want_hits}"
        )
    if laws:
        run.problems.extend(f"conservation law broken: {law}" for law in laws)
        run.failed += 1
    layers["bench.trace_overhead"] = traced.ref_wall_s / untraced.ref_wall_s
    metrics = {name: float(layers[name]) for name in PER_LAYER_UNITS}
    return metrics, {"untraced_s": untraced.wall_s, "traced_s": traced.wall_s}


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every session to a few seconds (harness self-test)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(
            f"sweepbench: {CLI_SOURCE.relative_to(ROOT)} not found; run from the "
            "root of a checkout that holds the program's sources",
            file=sys.stderr,
        )
        return 2
    host = host_record()
    affinity = pin_to(WORKLOADS[args.workload].workers)
    run = Run(args.workload, args.seed, args.tiny)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics: Dict[str, float] = {name: 0.0 for name in units}
    stats: Dict[str, Any] = {}
    try:
        run.load_expected()
        if args.trace:
            metrics, stats = traced_run(run)
        else:
            metrics, stats = timed_run(run, args.seconds)
    except RuntimeError as exc:
        run.problems.append(str(exc))
        run.attempted = max(run.attempted, 1)
        run.failed = max(run.failed, 1)
    finally:
        run.close()
        os.sched_setaffinity(0, affinity)
    correct = run.failed == 0 and not run.problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": host,
        "stats": stats,
        "problems": run.problems,
    }
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record_path = RESULTS_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({**record, "result": result}, handle, indent=1)
    for problem in run.problems:
        print(f"sweepbench: {problem}", file=sys.stderr)
    print(f"sweepbench: host {json.dumps(host)}")
    print(f"sweepbench: stats {json.dumps(stats)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
