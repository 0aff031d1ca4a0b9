"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads point serve --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints per metric the median of the runs and the quartile spread —
``(Q3 - Q1) / median`` from ``statistics.quantiles(values, n=4)`` —
next to a third of the metric's bound in ``BENCHMARK.json``.  A spread
below a third of the bound leaves room for two sets of runs to agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: {done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(
                f"  {name:16s} median={statistics.median(values):12.6g} "
                f"spread={spread:7.4f} bound/3={bound / 3:7.4f} "
                f"values={[round(v, 4) for v in values]}"
            )
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
