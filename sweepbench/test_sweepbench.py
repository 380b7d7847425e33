"""Self-test of the benchmark harness at tiny scale.

Run from the root of a checkout::

    python3 -m pytest -q sweepbench/test_sweepbench.py

Each workload runs with ``--tiny`` (sessions of a few seconds) in both
modes; the tests check that the result line parses, that every metric
``BENCHMARK.json`` names appears with its unit, that a tampered pin makes
the run fail, that the traced run's conservation laws can fail, that the
non-default-seed reference agrees with the pins, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
from run import (
    BENCH_DIR,
    DEFAULT_SEED,
    END_TO_END_UNITS,
    EXPECTED_PATH,
    MATRICES,
    PER_LAYER_UNITS,
    REFERENCE_CELLS,
    ROOT,
    WORK_ROOT,
    WORKLOADS,
    load_pins,
    reference,
)
from traced import Layers, conservation_laws

RUN = [sys.executable, str(BENCH_DIR / "run.py")]
SELFTEST_DIR = WORK_ROOT / "selftest"


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_harness(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, declared):
    proc, result = bench(
        "--workload", workload, "--seed", str(DEFAULT_SEED),
        "--seconds", "1", "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_non_default_seed_is_checked_against_the_scalar_reference():
    proc, result = bench(
        "--workload", "train-fleet", "--seed", "7", "--seconds", "1", "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True


def test_tampered_pin_fails_the_run(monkeypatch, capsys):
    SELFTEST_DIR.mkdir(parents=True, exist_ok=True)
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        pins = json.load(handle)
    cells = pins["sweep/tiny"]["cells"]
    victim = sorted(cells)[0]
    cells[victim] = "0" * len(cells[victim])
    tampered = SELFTEST_DIR / "tampered.json"
    with open(tampered, "w", encoding="utf-8") as handle:
        json.dump(pins, handle)
    monkeypatch.setattr(run, "EXPECTED_PATH", tampered)
    code = run.main(
        ["--workload", "sweep-cold", "--seed", str(DEFAULT_SEED), "--seconds", "1", "--tiny"]
    )
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "sample_stream_hash" in err


def test_conservation_laws_catch_a_lost_cache_miss():
    layers = Layers()
    layers.counters.update(
        {"runner.expanded": 48, "delivered.ok": 48, "cache.lookups": 48}
    )
    layers.computed.update(f"cell-{index}" for index in range(47))
    broken = conservation_laws(layers, {"batch": SimpleNamespace(calls={})})
    assert broken == ["hits + misses = 47 != 48 lookups"]


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_reference_route_agrees_with_the_pins(matrix, tiny):
    workdir = SELFTEST_DIR / f"reference-{matrix}-{tiny}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    spec = workdir / "matrix.json"
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(MATRICES[matrix](DEFAULT_SEED, tiny), handle)
    expected, output = reference(spec, matrix, workdir)
    assert expected is not None, output
    pins = load_pins(EXPECTED_PATH, matrix, tiny)
    assert expected.cells == pins.cells
    assert expected.artifacts == pins.artifacts
    assert expected.fleets == pins.fleets
    assert len(expected.hashes) == len(REFERENCE_CELLS[matrix])
    for fingerprint, digest in expected.hashes.items():
        assert pins.hashes[fingerprint] == digest
    shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_to_run_without_the_program_sources():
    bare = SELFTEST_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, bare / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, str(bare / BENCH_DIR.name / "run.py"),
         "--workload", "sweep-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    shutil.rmtree(bare, ignore_errors=True)
