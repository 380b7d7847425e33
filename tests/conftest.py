"""Fixtures shared across the tier-1 suite."""

from __future__ import annotations

import pytest


@pytest.fixture
def batch_route_from_two_lanes(monkeypatch):
    """Lower the batch-route crossover to two lanes for one test.

    The runner batches a group only from
    :data:`~repro.experiments.federated.BATCH_MIN_LANES` effective lanes,
    wider than the few-cell matrices tests can afford.  Tests whose subject
    is the batch route through the runner (its spans, fault seams and
    retries) use this fixture so their small groups and two-device fleets
    still take that route.
    """
    from repro.experiments import federated

    monkeypatch.setattr(federated, "BATCH_MIN_LANES", 2)
