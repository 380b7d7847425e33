"""Batched device-population kernel benchmark: ``BENCH_batch_kernel.json``.

Measures what the struct-of-arrays batch kernel (``repro.sim.batch``) buys
over the scalar per-device simulation: device-ticks per wall-clock second
stepping N independent devices through the paper's Fig. 1 mixed session
under the stock ``schedutil`` governor, versus the scalar kernel replaying
the identical trace.

Both sides are measured back to back in the *same process* (best of
``--repeat``): shared-runner wall clocks drift enough between runs that the
speedup ratio is only meaningful when numerator and denominator come from
one sitting.  The scalar and batched kernels produce bit-identical
per-device sample streams (pinned by ``tests/test_batch_kernel.py``), so
this is a pure throughput comparison of two routes to the same output.

Run standalone::

    python benchmarks/run_benchmarks.py --only batch_kernel
    python benchmarks/bench_batch_kernel.py --fast     # CI smoke
    python benchmarks/bench_batch_kernel.py --check-against BENCH_batch_kernel.json

``--check-against`` is the CI regression gate: it fails (exit 1) only if the
measured batched device-ticks/s regressed more than ``--max-regression``
(2x by default) versus the committed baseline -- generous on purpose so
shared CI runners do not flake the build.

``--crossover`` measures something else, informational and gating
nothing: at small widths it times the two routes the sweep runner chooses
between -- a group of baseline cells (``execute_cells_batched`` vs
``execute_cell`` per cell) and a federated round
(``train_device_rounds_batched`` vs ``train_device_round`` per device) --
interleaved in one process, and reports each width's batch/scalar wall
ratio.  Where that ratio crosses 1.0 is what
``repro.experiments.federated.BATCH_MIN_LANES`` is set from.  A masked
group (half the lanes a quarter as long as the rest) checks that the
crossover is counted in effective lanes rather than in cells::

    python benchmarks/bench_batch_kernel.py --crossover --output crossover.json

Requires NumPy (the batch kernel is NumPy-backed); the CI bench-smoke job
installs it, the plain test job does not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __package__ in (None, ""):  # standalone execution without `pip install -e .`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.sim.config import SimulationConfig
from repro.sim.experiment import make_governor, record_session_trace, run_trace
from repro.soc.platform import exynos9810
from repro.workloads.session import FIGURE1_SESSION, SessionSegment
from repro.workloads.trace import TracePlayer

#: Fleet widths measured per profile.  The acceptance bar for the batch
#: kernel is >= 5x device-steps/s over the scalar kernel at N >= 256, so the
#: full profile measures exactly that width plus one wider point to show the
#: amortisation trend; the fast profile keeps CI smoke cheap.
DEVICE_COUNTS = {"full": (256, 512), "fast": (256,)}

#: Simulated seconds of the Fig. 1 session replayed per profile (full = the
#: whole 210 s session, matching the committed baseline's methodology).
FIG1_DURATION_S = {"full": None, "fast": 12.0}

#: Group widths of the batch-vs-scalar crossover section.
CROSSOVER_LANES = (2, 4, 8, 16, 32)

#: Session length of a crossover cell and episode length of a crossover
#: device round, per profile (6 s matches the sweep benchmark's app cells).
CROSSOVER_SESSION_S = {"full": 6.0, "fast": 2.0}

#: Widths of the masked crossover groups: half app cells of the short
#: session, half game cells of the long one, so 5/8 of the lanes are live
#: on average (10 and 20 effective lanes).
MASKED_LANES = (16, 32)

#: (short, long) session lengths of a masked crossover group, per profile.
MASKED_SESSION_S = {"full": (2.0, 8.0), "fast": (0.5, 2.0)}


def _best_of(repeat, fn):
    best = None
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def measure(profile: str = "full", repeat: int = 3) -> dict:
    """Measure scalar and batched Fig. 1 throughput in one sitting."""
    from repro.sim.batch import BatchSimulation  # needs NumPy; import late

    platform = exynos9810()
    segments = FIGURE1_SESSION.segments
    limit = FIG1_DURATION_S[profile]
    if limit is not None:
        scale = limit / FIGURE1_SESSION.total_duration_s
        segments = tuple(
            SessionSegment(seg.app_name, max(1.0, seg.duration_s * scale))
            for seg in segments
        )
    trace = record_session_trace(segments, platform=platform, seed=2020)
    ticks = len(trace)

    scalar_wall, _ = _best_of(
        repeat, lambda: run_trace(trace, make_governor("schedutil"), platform=platform)
    )
    scalar_ticks_per_sec = ticks / scalar_wall

    results = {
        "fig1_ticks": ticks,
        "scalar_ticks_per_sec": round(scalar_ticks_per_sec, 1),
        "scalar_us_per_tick": round(scalar_wall * 1e6 / ticks, 2),
        "batch": {},
    }

    def run_batch(n: int):
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=trace.duration_s,
                seed=index,
            )
            for index in range(n)
        ]
        governors = [make_governor("schedutil") for _ in range(n)]
        batch = BatchSimulation(platform, governors, configs)
        batch.run([TracePlayer(trace) for _ in range(n)], duration_s=trace.duration_s)

    for n in DEVICE_COUNTS[profile]:
        batch_wall, _ = _best_of(repeat, lambda: run_batch(n))
        device_ticks_per_sec = ticks * n / batch_wall
        results["batch"][str(n)] = {
            "device_ticks_per_sec": round(device_ticks_per_sec, 1),
            "us_per_device_tick": round(batch_wall * 1e6 / (ticks * n), 3),
            "speedup_vs_scalar": round(device_ticks_per_sec / scalar_ticks_per_sec, 2),
        }
    return results


def measure_crossover(profile: str = "full", repeat: int = 3) -> dict:
    """Batch/scalar wall ratios of small cell groups and fleet rounds.

    Each width runs both routes ``repeat`` times, alternating which goes
    first so drift in the host's speed hits both alike; each side keeps its
    best time.  A ratio below 1.0 means the batch kernel is faster.
    """
    from repro.core.agent import AgentConfig, NextAgent
    from repro.experiments.federated import (
        effective_lanes,
        train_device_round,
        train_device_rounds_batched,
    )
    from repro.experiments.matrix import ScenarioMatrix
    from repro.experiments.runner import execute_cell, execute_cells_batched

    session_s = CROSSOVER_SESSION_S[profile]

    def cells_of(n, duration_s=session_s, game_duration_s=None):
        governors = ("schedutil", "powersave", "performance", "conservative")
        matrix = ScenarioMatrix.build(
            name="crossover",
            governors=governors,
            apps=("facebook", "spotify" if game_duration_s is None else "lineage"),
            seeds=tuple(range(-(-n // 8))),
            duration_s=duration_s,
            game_duration_s=game_duration_s,
        )
        return matrix.cells()[:n]

    def jobs_of(n):
        return [
            (
                json.loads(json.dumps(NextAgent(AgentConfig(), seed=device).to_dict())),
                ("facebook",),
                "exynos9810",
                1,
                session_s,
                1000 + device,
                (),
            )
            for device in range(n)
        ]

    def interleaved(batch_fn, scalar_fn):
        best = {"batch": None, "scalar": None}
        for rep in range(repeat):
            order = (("batch", batch_fn), ("scalar", scalar_fn))
            for side, fn in order if rep % 2 == 0 else order[::-1]:
                started = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - started
                if best[side] is None or elapsed < best[side]:
                    best[side] = elapsed
        return {
            "batch_s": round(best["batch"], 4),
            "scalar_s": round(best["scalar"], 4),
            "batch_over_scalar": round(best["batch"] / best["scalar"], 3),
        }

    results = {"session_s": session_s, "cells": {}, "fleet_round": {}}
    for n in CROSSOVER_LANES:
        cells = cells_of(n)
        results["cells"][str(n)] = interleaved(
            lambda: execute_cells_batched(cells),
            lambda: [execute_cell(cell) for cell in cells],
        )
        jobs = jobs_of(n)
        results["fleet_round"][str(n)] = interleaved(
            lambda: train_device_rounds_batched(jobs),
            lambda: [train_device_round(*job) for job in jobs],
        )
    short_s, long_s = MASKED_SESSION_S[profile]
    results["masked_cells"] = {"session_s": [short_s, long_s]}
    for n in MASKED_LANES:
        cells = cells_of(n, duration_s=short_s, game_duration_s=long_s)
        results["masked_cells"][str(n)] = dict(
            effective_lanes=effective_lanes(
                [cell.workload.duration_s for cell in cells]
            ),
            **interleaved(
                lambda: execute_cells_batched(cells),
                lambda: [execute_cell(cell) for cell in cells],
            ),
        )
    return results


def build_report(profile: str, repeat: int) -> dict:
    """Measure and assemble the full BENCH_batch_kernel payload."""
    results = measure(profile=profile, repeat=repeat)
    return {
        "benchmark": "batch_kernel",
        "schema": 1,
        "profile": profile,
        "repeat": repeat,
        # "before" is the scalar kernel measured in the same process -- the
        # honest denominator under shared-runner wall-clock drift.
        "before": {
            "scalar_ticks_per_sec": results["scalar_ticks_per_sec"],
            "scalar_us_per_tick": results["scalar_us_per_tick"],
        },
        "after": results,
    }


def check_regression(report: dict, baseline: dict, max_regression: float) -> int:
    """Gate measured batched device-ticks/s against a committed baseline.

    Device-ticks/s varies with fleet width (wider fleets amortise the
    per-tick Python frontend better), so the gate only ever compares equal
    widths: the widest fleet measured by *both* reports.  Both profiles
    measure N=256 -- the width the kernel's acceptance bar is stated at --
    precisely so the fast CI smoke gates against the committed full run.
    """
    shared = set(report["after"]["batch"]) & set(baseline["after"]["batch"])
    if not shared:
        counts = sorted(report["after"]["batch"], key=int)
        print(
            f"SKIP: no fleet width measured by both reports (measured "
            f"{counts}, committed {sorted(baseline['after']['batch'], key=int)})"
        )
        return 0
    width = max(shared, key=int)
    reference = baseline["after"]["batch"][width]["device_ticks_per_sec"]
    measured = report["after"]["batch"][width]["device_ticks_per_sec"]
    floor = reference / max_regression
    print(
        f"regression gate (N={width}): measured {measured:.0f} device-ticks/s "
        f"vs committed {reference:.0f} (floor {floor:.0f}, max regression "
        f"{max_regression}x)"
    )
    if measured < floor:
        print("FAIL: batch kernel regressed beyond the allowed factor")
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke profile (short session, N=256)"
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    parser.add_argument(
        "--crossover",
        action="store_true",
        help="measure only the informational batch/scalar crossover instead",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the report JSON (default BENCH_batch_kernel.json; "
        "with --crossover, only printed unless given)",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        help="committed baseline JSON to gate against (CI regression check)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail only if device-ticks/sec dropped by more than this factor",
    )
    args = parser.parse_args(argv)
    if args.crossover and args.check_against:
        parser.error("--crossover is informational: it has no --check-against gate")

    # Load the baseline BEFORE writing anything: with the default --output the
    # gate may point at the very file we are about to overwrite.
    baseline = None
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    profile = "fast" if args.fast else "full"
    if args.crossover:
        report = measure_crossover(profile=profile, repeat=args.repeat)
        output = args.output
    else:
        report = build_report(profile=profile, repeat=args.repeat)
        output = args.output or "BENCH_batch_kernel.json"
    print(json.dumps(report, indent=2))
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {output}")
    if baseline is not None:
        return check_regression(report, baseline, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
