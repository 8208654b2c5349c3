"""Steadiness: two sets of benchmark runs of one commit, taken apart in time.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 --gap 300 --out steadiness.json

Each of the two sets runs every workload of ``BENCHMARK.json`` ``--runs``
times for its ``run_seconds``, alternating the workloads and giving every
run its own seed (counting up from ``FIRST_SEED``), each run in a fresh
process. Between the two sets the command waits ``--gap`` seconds, so the
sets see different moments of the machine. For every end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median) and how far the second median moved from the first, toward
worse, next to the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
FIRST_SEED = 2001


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in a fresh process; returns its JSON result plus diagnostics."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    result["diagnostics"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(sets: list[dict], config: dict) -> list[str]:
    """Per workload and metric: each set's quartiles, spread and shift."""
    lines = []
    bounds = {metric["name"]: metric for metric in config["end_to_end"]}
    for workload in sets[0]:
        lines.append(f"== {workload}")
        for name in sets[0][workload][0]["metrics"]:
            row = [f"  {name:>16}"]
            medians = []
            for runs in (per_set[workload] for per_set in sets):
                values = [run["metrics"][name]["value"] for run in runs]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                row.append(
                    f"median {median:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                    f"spread {(q3 - q1) / median:.3f}"
                )
            metric = bounds.get(name)
            if metric is not None:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                shift = sign * (medians[1] - medians[0]) / medians[0]
                row.append(f"shift {shift:+.3f} (bound {metric['bound']})")
            lines.append(" | ".join(row))
        for index, runs in enumerate(per_set[workload] for per_set in sets):
            failed = sum(run["failed"] for run in runs)
            attempted = sum(run["attempted"] for run in runs)
            correct = all(run["correct"] for run in runs)
            lines.append(
                f"  set {index + 1}: failed {failed}/{attempted}, all correct: {correct}, "
                f"run wall {statistics.median(run['wall_s'] for run in runs):.1f}s median"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--gap", type=float, default=300.0, help="seconds between sets")
    parser.add_argument("--out", type=Path, default=None, help="write every run as JSON")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in config["workloads"]]

    sets: list[dict] = []
    seed = FIRST_SEED
    for set_index in range(2):
        if set_index:
            print(f"# waiting {args.gap:.0f}s before set 2", flush=True)
            time.sleep(args.gap)
        runs: dict[str, list] = {workload: [] for workload in workloads}
        sets.append(runs)
        for _ in range(args.runs):
            for workload in workloads:
                result = run_once(workload, seed, config["run_seconds"])
                runs[workload].append({"seed": seed, **result})
                speed = next(
                    (line for line in result["diagnostics"] if "machine" in line), ""
                )
                print(
                    f"# set {set_index + 1} {workload} seed {seed}: "
                    f"{result['wall_s']:.1f}s correct={result['correct']} {speed}",
                    flush=True,
                )
                seed += 1
                if args.out is not None:
                    args.out.write_text(json.dumps(sets, indent=1))
    print("\n".join(summarise(sets, config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
