"""Federated fleet throughput: train-once, resume, and round scaling.

Not a paper figure: this benchmark measures the scaling substrate behind
Section IV-C's cloud-assisted training.  A federated sweep must (a) train
each distinct fleet exactly once however many cells evaluate it, (b) reuse
per-device round-0 artifacts across fleets that share a lineage, and
(c) deepen an existing fleet by running only the missing rounds.  The
benchmark times the three paths and asserts the resumed fleet is
bit-identical to one trained from scratch -- the property that makes
incremental fleet training trustworthy.  Every path runs through a
``max_workers=1`` sweep of one federated cell, as ``repro-sweep`` would.
"""

import time
from dataclasses import replace

from repro.analysis.tables import format_series_table
from repro.core.federated import FleetSpec
from repro.experiments.federated import train_fleet_artifact
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import SweepRunner

BASE_SPEC = FleetSpec(
    apps=("facebook",),
    devices=3,
    rounds=2,
    episodes=1,
    episode_duration_s=15.0,
    fleet_seed=0,
)
DEEP_ROUNDS = 3
#: Simulated seconds of the one evaluation cell each sweep runs.
EVAL_DURATION_S = 2.0


def resolve_fleet(runner: SweepRunner, spec: FleetSpec):
    """Sweep one federated cell of ``spec``'s fleet; return the stored fleet."""
    matrix = ScenarioMatrix.build(
        name="bench-federated",
        governors=("next",),
        apps=spec.apps,
        platforms=(spec.platform,),
        duration_s=EVAL_DURATION_S,
        training={
            "key": "federated",
            "mode": "federated",
            "episodes": spec.episodes,
            "episode_duration_s": spec.episode_duration_s,
            "seed": spec.fleet_seed,
            "devices": spec.devices,
            "rounds": spec.rounds,
        },
    )
    sweep = runner.run(matrix)
    assert not sweep.failures
    return runner.fleets.load(spec)


def test_fleet_resume_beats_retrain_from_scratch(benchmark, tmp_path):
    artifact_dir = str(tmp_path / "artifacts")
    runner = SweepRunner(max_workers=1, artifact_dir=artifact_dir)
    store = runner.fleets

    started = time.perf_counter()
    resolve_fleet(runner, BASE_SPEC)
    scratch_s = time.perf_counter() - started

    deep_spec = replace(BASE_SPEC, rounds=DEEP_ROUNDS)

    def resume_deepening():
        return resolve_fleet(runner, deep_spec)

    started = time.perf_counter()
    resumed = benchmark.pedantic(resume_deepening, rounds=1, iterations=1)
    resume_s = time.perf_counter() - started
    assert store.resumed_count == 1

    started = time.perf_counter()
    from_scratch = train_fleet_artifact(deep_spec)
    deep_scratch_s = time.perf_counter() - started
    assert resumed.to_dict() == from_scratch.to_dict()

    started = time.perf_counter()
    served = resolve_fleet(SweepRunner(max_workers=1, artifact_dir=artifact_dir), deep_spec)
    warm_s = time.perf_counter() - started
    assert served.to_dict() == from_scratch.to_dict()

    print()
    print(
        format_series_table(
            ["path", "rounds", "seconds"],
            [
                [f"train {BASE_SPEC.rounds}-round fleet", BASE_SPEC.rounds, scratch_s],
                [f"resume to {DEEP_ROUNDS} rounds", DEEP_ROUNDS, resume_s],
                [f"train {DEEP_ROUNDS} rounds from scratch", DEEP_ROUNDS, deep_scratch_s],
                ["serve from store (warm)", DEEP_ROUNDS, warm_s],
            ],
            title=(
                f"Federated fleet ({BASE_SPEC.devices} devices, "
                f"{BASE_SPEC.episodes}x{BASE_SPEC.episode_duration_s:g}s episodes)"
            ),
        )
    )
    # Resuming runs one round instead of three; the warm path trains nothing.
    assert resume_s < deep_scratch_s
    assert warm_s < resume_s
