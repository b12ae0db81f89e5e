#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/stability.py --workloads cold-headline,warm-zipf --seeds 1-10
    python3 perfbench/stability.py --seeds 1-10 --write   # refresh stability.json

Runs ``run.py`` once per (workload, seed), one after the other, and for
every end-to-end metric prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
interquartile distance as a share of the median.  ``--write`` records
the figures in ``perfbench/stability.json`` next to the bounds of
``BENCHMARK.json``, replacing the entries of the workloads just run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    record: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        record[workload] = {}
        for name, series in values.items():
            figures = spread(series)
            figures["bound"] = bounds[name]
            record[workload][name] = figures
            flag = "" if name == "setup_s" or figures["spread"] < bounds[name] / 3 else "  <-- wide"
            print(
                f"{workload:<14} {name:<22} median {figures['median']:>14.4f}  "
                f"q1 {figures['q1']:>14.4f}  q3 {figures['q3']:>14.4f}  "
                f"spread {figures['spread']:.4f}  bound {bounds[name]}{flag}"
            )
    if args.write:
        path = HERE / "stability.json"
        recorded = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
        listed = {w["name"] for w in spec["workloads"]}
        for workload, figures in record.items():
            recorded["workloads"][workload] = {
                "seeds": seeds,
                "run_seconds": args.seconds,
                "in_benchmark_json": workload in listed,
                "metrics": figures,
            }
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
