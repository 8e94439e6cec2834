"""Steadiness mode: is the benchmark steady enough to judge a change?

Runs one workload as two sets of runs of the same code, each run with
another ``--seed``, and reports for every end-to-end metric:

* the spread within each set: the distance between the first and third
  quartile (``statistics.quantiles(values, n=4)``) as a share of the
  median, against the metric's bound from ``BENCHMARK.json``;
* the drift between the sets: how much worse the second set's median is
  than the first's, as a share of the first, against the same bound.

    python3 perfbench/steady.py --workload notify-serial

Each set is ten runs; the first set uses seeds 100..109, the second
110..119.  Exits 1 when a spread or a drift exceeds its bound.  Spreads
above a third of their bound, the margin to aim for, are marked too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MARGIN = 3  # aim for spreads below bound / MARGIN
SETS = 2
RUNS = 10
FIRST_SEED = 100


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not last["correct"]:
        raise SystemExit("run failed (seed %d):\n%s" % (seed, done.stdout[-3000:]))
    return {name: metric["value"] for name, metric in last["metrics"].items()}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sets: List[Dict[str, List[float]]] = []
    for index in range(SETS):
        values: Dict[str, List[float]] = {}
        for run in range(RUNS):
            seed = FIRST_SEED + index * RUNS + run
            for name, value in one_run(args.workload, seed, seconds).items():
                values.setdefault(name, []).append(value)
            print("set %d run %d (seed %d) done" % (index + 1, run + 1, seed), file=sys.stderr)
        sets.append(values)

    steady = True
    print("%-14s %-6s %s" % ("metric", "bound", "  ".join(
        ["median%d spread%d" % (i + 1, i + 1) for i in range(len(sets))] + ["drift"])))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells = []
        for values in sets:
            value = spread(values[name])
            steady &= value <= bound
            mark = "" if value <= bound / MARGIN else ("~" if value <= bound else "!")
            cells.append("%10.5g %6.2f%%%s" % (statistics.median(values[name]), 100 * value, mark))
        first, last = statistics.median(sets[0][name]), statistics.median(sets[-1][name])
        worse = (first - last) / first if metric["better"] == "higher" else (last - first) / first
        steady &= worse <= bound
        drift_text = "%+.2f%%%s" % (100 * worse, "" if worse <= bound else "!")
        print("%-14s %-6g %s  %s" % (name, bound, "  ".join(cells), drift_text))
    print("spread/drift marks: ! over bound, ~ over bound/%d" % MARGIN)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
