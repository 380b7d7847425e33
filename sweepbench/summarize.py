"""Median and quartiles of each metric across benchmark runs, per host.

Usage (from the root of a checkout, after some runs)::

    python3 sweepbench/summarize.py [RESULTS_DIR]

Reads the run records ``run.py`` keeps under
``.bench_build/sweepbench/results/`` and prints, for each workload, trace
mode and host, every metric's median, first and third quartile, and the
spread (third minus first quartile, as a share of the median).  Runs from
different hosts (CPU model, core count, Python, NumPy, commit) are never
pooled.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import RESULTS_DIR, quartiles


def host_key(host: dict) -> str:
    return (
        f"{host['cpu_model']} x{host['nproc']}, Python {host['python']}, "
        f"NumPy {host['numpy']}, commit {(host['git_commit'] or 'unknown')[:12]}"
    )


def main(argv) -> int:
    directory = Path(argv[0]) if argv else RESULTS_DIR
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("tiny"):
            continue
        key = (record["workload"], record["trace"], host_key(record["host"]))
        groups[key].append(record)
    for (workload, trace, host), records in sorted(groups.items()):
        seeds = sorted({record["seed"] for record in records})
        invalid = sum(1 for record in records if not record["result"]["correct"])
        print(f"{workload} trace={trace} runs={len(records)} invalid={invalid} seeds={seeds}")
        print(f"  host: {host}")
        metrics = records[0]["result"]["metrics"]
        for name, entry in metrics.items():
            values = [record["result"]["metrics"][name]["value"] for record in records]
            stats = quartiles(values)
            median = stats["median"]
            spread = (stats["q3"] - stats["q1"]) / median if median else float("nan")
            print(
                f"  {name:34s} median={median:<12.6g} q1={stats['q1']:<12.6g} "
                f"q3={stats['q3']:<12.6g} "
                f"spread={spread:7.2%} {entry['unit']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
