"""Acceptance: sweeps under injected faults stay bit-identical and isolated.

The fault-tolerance tentpole's contract, pinned end to end:

* transient faults, injected crashes and torn writes are retried/recovered
  and the delivered sweep is bit-identical (per-cell
  ``sample_stream_hash``) to a fault-free run,
* a worker crash under a process pool breaks the pool, the runner rebuilds
  it and reschedules only unfinished cells,
* a hung job trips the cost-model watchdog, the pool is abandoned and the
  cell rescheduled with a bumped attempt counter,
* a deterministically failing cell is quarantined as permanent after its
  bounded retries -- with its attempt lineage attached -- without aborting
  any other cell,
* transient faults in agent training and federated device rounds are
  retried like cell faults, sequentially and pooled alike.

Faults are scheduled by seeded :class:`FaultPlan` rules, so every run of
this suite replays the identical failure sequence.
"""

from __future__ import annotations

import pytest

from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import SweepRunner
from repro.reliability.chaos import cell_hashes, chaos_matrix, sweep_fault_plan
from repro.reliability.faults import (
    KIND_CRASH,
    KIND_HANG,
    KIND_TRANSIENT,
    SITE_EXECUTE_BATCH,
    SITE_EXECUTE_CELL,
    SITE_TRAIN_ARTIFACT,
    SITE_TRAIN_DEVICE_ROUND,
    FaultPlan,
    FaultRule,
    fire_counts,
    injected_faults,
)
from repro.reliability.retry import PERMANENT, RetryPolicy
from repro.reliability.watchdog import WatchdogPolicy


@pytest.fixture(scope="module")
def matrix():
    return chaos_matrix()


@pytest.fixture(scope="module")
def baseline(matrix):
    """Fault-free sequential hashes: the parity target for every test."""
    return cell_hashes(SweepRunner(max_workers=1).run(matrix))


@pytest.mark.usefixtures("batch_route_from_two_lanes")
class TestChaosParity:
    def test_sequential_sweep_is_bit_identical_under_fault_mix(
        self, matrix, baseline
    ):
        with injected_faults(sweep_fault_plan()):
            sweep = SweepRunner(
                max_workers=1, retry_policy=RetryPolicy(max_retries=3)
            ).run(matrix)
        assert cell_hashes(sweep) == baseline
        # Recovery is visible in the lineage, not the results: at least one
        # cell needed a retry under this plan's mix.
        assert any(result.attempts for result in sweep.results)

    def test_pooled_sweep_survives_worker_crashes(self, matrix, baseline):
        # Crash every cell's first attempt: workers die for real
        # (os._exit), the pool breaks, the runner rebuilds and reschedules
        # only unfinished cells with bumped attempt counters.
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(site=SITE_EXECUTE_BATCH, kind=KIND_TRANSIENT),
                FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_CRASH),
            ),
        )
        with injected_faults(plan):
            sweep = SweepRunner(
                max_workers=2, retry_policy=RetryPolicy(max_retries=3)
            ).run(matrix)
        assert cell_hashes(sweep) == baseline

    def test_watchdog_reschedules_hung_job(self, matrix, baseline):
        # The hang vastly outlives the flat per-cell budget; completion at
        # all proves the watchdog abandoned the hung pool and rescheduled
        # (waiting out the hang would take minutes, not the budget).
        plan = FaultPlan(
            seed=2,
            rules=(
                FaultRule(
                    site=SITE_EXECUTE_BATCH, kind=KIND_HANG, hang_s=120.0
                ),
                FaultRule(
                    site=SITE_EXECUTE_CELL, kind=KIND_HANG, hang_s=120.0
                ),
            ),
        )
        watchdog = WatchdogPolicy(cell_timeout_s=1.5)
        with injected_faults(plan):
            sweep = SweepRunner(
                max_workers=2,
                retry_policy=RetryPolicy(max_retries=3),
                watchdog=watchdog,
            ).run(matrix)
        assert cell_hashes(sweep) == baseline


@pytest.mark.usefixtures("batch_route_from_two_lanes")
class TestPermanentQuarantine:
    def test_deterministic_failure_is_permanent_and_isolated(self, matrix):
        # One cell fails on every attempt; the rest of the sweep must
        # deliver normally and the victim must surface as a permanent
        # failure carrying its full attempt lineage.
        victim = matrix.cells()[0].fingerprint()
        plan = FaultPlan(
            seed=3,
            rules=(
                # Push every batch group down to the scalar path so the
                # per-cell rule can target the victim alone.
                FaultRule(
                    site=SITE_EXECUTE_BATCH, kind=KIND_TRANSIENT, max_attempt=99
                ),
                FaultRule(
                    site=SITE_EXECUTE_CELL,
                    kind=KIND_TRANSIENT,
                    match=victim,
                    max_attempt=99,
                ),
            ),
        )
        with injected_faults(plan):
            sweep = SweepRunner(
                max_workers=1, retry_policy=RetryPolicy(max_retries=1)
            ).run(matrix)
        assert len(sweep.failures) == 1
        failure = sweep.failures[0]
        assert failure.cell.fingerprint() == victim
        assert failure.error_kind == PERMANENT
        assert failure.error is not None
        # max_retries=1: the first failure plus one retry, then quarantine.
        assert [a["attempt"] for a in failure.attempts] == [0, 1]
        ok = {r.cell.fingerprint() for r in sweep.results if r.ok}
        assert ok == {c.fingerprint() for c in matrix.cells()} - {victim}

    def test_error_results_are_never_cached(self, matrix, tmp_path, baseline):
        # A quarantined-permanent cell stays outstanding: a re-run without
        # the fault plan computes it and restores full parity.
        victim = matrix.cells()[0].fingerprint()
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    site=SITE_EXECUTE_BATCH, kind=KIND_TRANSIENT, max_attempt=99
                ),
                FaultRule(
                    site=SITE_EXECUTE_CELL,
                    kind=KIND_TRANSIENT,
                    match=victim,
                    max_attempt=99,
                ),
            ),
        )
        cache_dir = str(tmp_path / "cache")
        with injected_faults(plan):
            first = SweepRunner(
                max_workers=1,
                cache_dir=cache_dir,
                retry_policy=RetryPolicy(max_retries=0),
            ).run(matrix)
        assert len(first.failures) == 1
        rerun = SweepRunner(max_workers=1, cache_dir=cache_dir).run(matrix)
        assert cell_hashes(rerun) == baseline
        recomputed = [r for r in rerun.results if not r.from_cache]
        assert [r.cell.fingerprint() for r in recomputed] == [victim]


def _trained_matrix(training) -> ScenarioMatrix:
    """schedutil and a trained ``next`` on two apps, ~3 s cells."""
    return ScenarioMatrix.build(
        name="chaos-trained",
        governors=("schedutil", "next"),
        apps=("facebook", "spotify"),
        seeds=(0,),
        duration_s=3.0,
        training=training,
    )


class TestTrainingFaults:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_training_fault_is_retried(self, workers):
        # Every spec's first training attempt fails transiently; both
        # pretrained cells must still come back ok with clean-run hashes.
        matrix = _trained_matrix(
            {
                "key": "pretrained", "mode": "pretrained", "episodes": 1,
                "episode_duration_s": 3.0,
            }
        )
        clean = cell_hashes(SweepRunner(max_workers=1).run(matrix))
        plan = FaultPlan(
            seed=4, rules=(FaultRule(site=SITE_TRAIN_ARTIFACT, kind=KIND_TRANSIENT),)
        )
        with injected_faults(plan):
            sweep = SweepRunner(
                max_workers=workers, retry_policy=RetryPolicy(max_retries=2)
            ).run(matrix)
        assert all(result.ok for result in sweep.results)
        assert cell_hashes(sweep) == clean

    def test_transient_device_round_fault_is_retried_on_the_batch_route(
        self, batch_route_from_two_lanes
    ):
        # With NumPy a fleet's continuation rounds run as one batched job;
        # the device-round seam must still fire there, and the scheduler
        # must retry the whole round.
        pytest.importorskip("numpy")
        matrix = _trained_matrix(
            (
                {"key": "cold", "mode": "cold"},
                {
                    "key": "federated", "mode": "federated", "episodes": 1,
                    "episode_duration_s": 3.0, "devices": 2, "rounds": 2,
                    "seed": 3,
                },
            )
        )
        clean = cell_hashes(SweepRunner(max_workers=1).run(matrix))
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(site=SITE_TRAIN_DEVICE_ROUND, kind=KIND_TRANSIENT),),
        )
        with injected_faults(plan):
            sweep = SweepRunner(
                max_workers=1, retry_policy=RetryPolicy(max_retries=2)
            ).run(matrix)
            fired = fire_counts()
        assert all(result.ok for result in sweep.results)
        assert cell_hashes(sweep) == clean
        assert any(site == SITE_TRAIN_DEVICE_ROUND for site, _ in fired)
