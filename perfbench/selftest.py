"""Self-test of the benchmark, at a tiny scale (a minute in all).

    python3 perfbench/selftest.py

For each workload, one untraced and one traced run at scale 0.002 must
exit 0, pass every check, and emit exactly the metrics ``BENCHMARK.json``
names, with their units and finite values; end-to-end values must be
positive.  Two negative cases must fail: a run against a reference with
one operation's digest altered, and a run in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

import reference
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.002"
SEED = "0"  # maps to the first seed of each pool, the one with tiny-scale references


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, spec: dict) -> List[str]:
    done = bench(ROOT, workload, trace)
    where = "%s trace=%d" % (workload, trace)
    if done.returncode != 0:
        return ["%s: exit %d\n%s%s" % (where, done.returncode, done.stdout[-2000:], done.stderr[-2000:])]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s: correct=%s failed=%s attempted=%s"
                      % (where, result["correct"], result["failed"], result["attempted"]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {metric["name"] for metric in wanted}:
        errors.append("%s: metric names differ from BENCHMARK.json" % where)
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue
        if got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            errors.append("%s: %s = %r" % (where, metric["name"], got))
        if not trace and not got["value"] > 0:
            errors.append("%s: %s is not positive" % (where, metric["name"]))
    return errors


def copy_checkout(name: str, with_source: bool) -> Path:
    """A scratch checkout: BENCHMARK.json, perfbench/ and maybe src/."""
    dest = ROOT / ".perfbench_work" / name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def check_detects_wrong_output() -> List[str]:
    """A reference with one operation altered must fail the run."""
    copy = copy_checkout("altered", with_source=True)
    try:
        seed = reference.runner_seed("notifyemail", int(SEED))
        path = copy / "perfbench" / "reference" / ("notifyemail-%s-%d.json" % (SCALE, seed))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["ops"][sorted(data["ops"])[0]] = "00000000"
        path.write_text(json.dumps(data), encoding="utf-8")
        done = bench(copy, "notify-serial", 0)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode == 0 or result["correct"] or result["failed"] != 1:
        return ["an altered reference went unnoticed: exit %d, %s" % (done.returncode, result)]
    return []


def check_fails_without_source() -> List[str]:
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse."""
    copy = copy_checkout("bare", with_source=False)
    try:
        done = bench(copy, "probe-sharded", 0)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if done.returncode == 0:
        return ["the benchmark ran without the program's source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: List[str] = []
    for workload in run.WORKLOADS:  # probe-serial too, though BENCHMARK.json omits it
        for trace in (0, 1):
            errors += check_run(workload, trace, spec)
            print("%s trace=%d checked" % (workload, trace), file=sys.stderr)
    errors += check_detects_wrong_output()
    errors += check_fails_without_source()
    for error in errors:
        print("FAIL: %s" % error)
    print("selftest %s" % ("passed" if not errors else "FAILED"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
