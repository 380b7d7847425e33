"""Reference outputs for one benchmark matrix, computed on the scalar route.

Usage::

    PYTHONPATH=sweepbench/no_numpy:src python3 sweepbench/reference.py MATRIX.json OUT.json 0,5,10

Re-runs the cells at the given indices (matrix order) one at a time
through :func:`repro.experiments.runner.execute_cell`.  Trained cells get no
artifact, so their agent or fleet is trained inline.  Run with NumPy hidden,
nothing can take the batch kernel, so the hashes written to ``OUT.json``
come from the reference implementation the batch path must match
bit for bit.  ``OUT.json`` also lists every cell fingerprint of the
matrix and the agent and fleet fingerprints the artifact store must end
up holding.
"""

from __future__ import annotations

import json
import sys

from repro.experiments.federated import batch_kernel_available
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import execute_cell


def expected_outputs(matrix: ScenarioMatrix, indices) -> dict:
    cells = matrix.cells()
    hashes = {}
    for index in indices:
        cell = cells[index]
        result = execute_cell(cell)
        if not result.ok:
            raise RuntimeError(f"reference cell {cell.label()} failed:\n{result.error}")
        hashes[cell.fingerprint()] = result.summary["sample_stream_hash"]
    agents = set()
    fleets = set()
    for cell in cells:
        spec = cell.training_spec()
        if spec is not None:
            agents.add(spec.fingerprint())
        fleet = cell.fleet_spec()
        if fleet is not None:
            fleets.add(fleet.fingerprint())
            # Round 0 of a fleet trains one agent per device through the
            # same artifact store.
            agents.update(
                fleet.device_training_spec(device).fingerprint()
                for device in range(fleet.devices)
            )
    return {
        "cells": sorted(cell.fingerprint() for cell in cells),
        "hashes": hashes,
        "artifacts": sorted(agents),
        "fleets": sorted(fleets),
    }


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    if batch_kernel_available():
        print("reference.py must run with NumPy hidden (scalar route)", file=sys.stderr)
        return 2
    spec, out, indices = argv
    matrix = ScenarioMatrix.from_file(spec)
    outputs = expected_outputs(matrix, [int(index) for index in indices.split(",")])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(outputs, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
