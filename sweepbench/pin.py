"""Regenerate ``expected.json``, the default-seed outputs every run is checked against.

Usage (from the root of a checkout)::

    python3 sweepbench/pin.py

For each benchmark matrix, at full and at tiny scale, the sweep runs twice
through the CLI: once as users run it (NumPy present, so cell groups and
federated rounds take the batch kernel) and once with NumPy hidden (every
cell on the scalar route).  The pins are written only if both runs leave
bit-identical ``sample_stream_hash`` values and the same agent and fleet
fingerprints, so they encode the scalar-vs-batch bit-identity contract
rather than whatever one route produced.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import (
    DEFAULT_SEED,
    EXPECTED_PATH,
    MATRICES,
    WORK_ROOT,
    child_env,
    cli_argv,
    launch,
    pin_key,
    stored_outputs,
)


def sweep_outputs(workdir, spec, hide_numpy: bool):
    cache = workdir / ("cache-scalar" if hide_numpy else "cache-batch")
    run = launch(
        cli_argv(spec, cache, 1),
        child_env(workdir, hide_numpy=hide_numpy),
        workdir,
        workdir / "pin.log",
    )
    if run.returncode != 0:
        raise RuntimeError(f"sweep failed (hide_numpy={hide_numpy}):\n{run.output}")
    return stored_outputs(cache)


def main() -> int:
    pins = {}
    workdir = WORK_ROOT / "pin"
    for matrix, build in sorted(MATRICES.items()):
        for tiny in (False, True):
            shutil.rmtree(workdir, ignore_errors=True)
            (workdir / "tmp").mkdir(parents=True)
            spec = workdir / "matrix.json"
            with open(spec, "w", encoding="utf-8") as handle:
                json.dump(build(DEFAULT_SEED, tiny), handle)
            batch = sweep_outputs(workdir, spec, hide_numpy=False)
            scalar = sweep_outputs(workdir, spec, hide_numpy=True)
            if batch != scalar:
                print(f"{pin_key(matrix, tiny)}: batch and scalar routes differ", file=sys.stderr)
                return 1
            hashes, agents, fleets = batch
            pins[pin_key(matrix, tiny)] = {
                "cells": hashes,
                "artifacts": agents,
                "fleets": fleets,
            }
            print(f"{pin_key(matrix, tiny)}: {len(hashes)} cells, routes agree")
    shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
