"""Campaign benchmark: probe and delivery throughput end to end, with a
per-layer ledger traced from outside the program.

    python3 perfbench/run.py --workload probe-sharded --seed 0 --seconds 60 --trace 0

Each repetition runs ``repro.core.runner.main`` in a fresh interpreter
(:mod:`child`), writing into a fresh directory, and is timed from this
process.  Repetitions repeat until ``--seconds`` is spent; each metric is
the median over them.  Every repetition is checked against the recorded
reference outputs (:mod:`reference`).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (:mod:`layers`) of the traced ones, plus the tracing
overhead: traced ``wall_s`` minus untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; above it are the
metrics by name with units, the checks, and the run's stamp (source
digest, CPU count, Python version, seeds, scale).  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Every run must end within 180 s; no repetition starts that would
# likely end after this.
DEADLINE_S = 150.0

# name -> (runner experiment, worker processes).  BENCHMARK.json lists
# probe-sharded and notify-serial, which between them reach every layer.
# probe-serial stays runnable for serial claims; it is left out because
# steady medians on a shared 2-vCPU host needed 60-s runs, and the
# benchmark's total time budget fits two workloads at that length.
WORKLOADS = {
    layers.PROBE_SERIAL: ("twoweekmx", 1),
    # At least two workers, so the sharded path runs even on one CPU.
    layers.PROBE_SHARDED: ("twoweekmx", max(2, os.cpu_count() or 1)),
    layers.NOTIFY_SERIAL: ("notifyemail", 1),
}


def work_dir() -> Path:
    path = WORK / ("run-%d" % os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def source_digest() -> str:
    """sha256 over the program's source files: identifies the code under
    test whether or not the checkout is a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def repetition(
    work: Path, experiment: str, workers: int, scale: float, seed: int, trace: bool, index: int = 0
) -> dict:
    """Run one repetition in a fresh interpreter; returns its report with
    the end-to-end times derived from this process's clock."""
    rep_dir = work / ("rep-%d" % index)
    remove(rep_dir)
    (rep_dir / "out").mkdir(parents=True)
    (rep_dir / "shards").mkdir()
    config = {
        "experiment": experiment, "workers": workers, "scale": scale,
        "seed": seed, "work": str(rep_dir), "trace": trace,
    }
    command = [sys.executable, str(HERE / "child.py"), json.dumps(config)]
    t0 = time.monotonic()
    # A session of its own, so a timeout also stops the shard workers.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        _, stderr = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"error": "repetition timed out after %.0f s" % DEADLINE_S, "duration": time.monotonic() - t0}
    duration = time.monotonic() - t0
    result_path = rep_dir / "result.json"
    if child.returncode != 0 or not result_path.exists():
        return {"error": "child exited %d:\n%s" % (child.returncode, stderr[-4000:]), "duration": duration}
    rep = json.loads(result_path.read_text(encoding="utf-8"))
    rep["duration"] = duration
    rep["dir"] = str(rep_dir)
    if rep["error"] is None and rep["t_first"] is not None:
        install = rep["install_s"]
        rep["e2e"] = {
            "setup_s": rep["t_first"] - t0 - install,
            "ops_per_s": rep["ops"] / (rep["t_exit"] - rep["t_first"]),
            "postflight_s": rep["t_return"] - rep["t_exit"],
            "wall_s": rep["t_return"] - t0 - install,
            "cpu_s": rep["cpu_s"],
            "peak_rss_mb": rep["rss_kb"] / 1024.0,
        }
    return rep


def _check(rep: dict, ref: Optional[dict], sharded: bool, workload: str) -> dict:
    """Correctness verdict of one repetition against the reference."""
    problems: List[str] = []
    if rep.get("error"):
        return {"problems": [rep["error"]], "attempted": len(ref["ops"]) if ref else 1,
                "failed": len(ref["ops"]) if ref else 1, "extra": []}
    problems += rep["unclean"]
    if rep.get("t_first") is None:
        problems.append("the campaign phase was never entered")
    if ref is None:
        problems.append("no reference outputs for this experiment, scale and seed")
        failed, extra = set(rep.get("flagged", [])), []
        attempted = rep.get("ops", 1)
    else:
        artefact_problems, extra = reference.compare_artefacts(ref, rep.get("artefacts", {}), sharded)
        problems += artefact_problems
        failed = reference.failed_ops(ref, rep.get("op_digests", {})) | set(rep.get("flagged", []))
        if failed:
            problems.append("%d operation(s) differ from the reference, e.g. %s"
                            % (len(failed), ", ".join(sorted(failed)[:3])))
        attempted = max(len(ref["ops"]), rep.get("ops", 0))
    if "layers" in rep:
        silent = layers.silent_layers(rep["layers"], workload)
        if silent:
            problems.append("layers recorded no work: %s" % ", ".join(silent))
    return {"problems": problems, "attempted": max(1, attempted), "failed": len(failed), "extra": extra}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "q1 %.6g q3 %.6g n=%d" % (q1, q3, len(values))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=0.01,
                        help="universe scale (references exist for 0.01 and, for the self-test, 0.002)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "core" / "runner.py").is_file():
        print("perfbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}

    experiment, workers = WORKLOADS[args.workload]
    seed = reference.runner_seed(experiment, args.seed)
    ref = reference.load(experiment, args.scale, seed)
    compileall.compile_dir(str(SRC), quiet=1)  # users run with bytecode cached

    work = work_dir()
    reps: List[dict] = []
    started = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(repetition(work, experiment, workers, args.scale, seed, traced, len(reps)))
            if "layers" in reps[-1]:  # keep the latest traced repetition's spans
                OUT.mkdir(exist_ok=True)
                shutil.move(str(Path(reps[-1]["dir"]) / "spans.jsonl"),
                            str(OUT / ("%s-spans.jsonl" % args.workload)))
            remove(work / ("rep-%d" % (len(reps) - 1)))
            elapsed = time.monotonic() - started
            typical = _median([rep["duration"] for rep in reps])
            enough = len(reps) >= (2 if args.trace else 1)
            if enough and (elapsed + typical > args.seconds or elapsed + typical > DEADLINE_S):
                break
    finally:
        remove(work)

    checks = [_check(rep, ref, workers > 1, args.workload) for rep in reps]
    attempted = sum(check["attempted"] for check in checks)
    failed = sum(check["failed"] for check in checks)
    problems = sorted({problem for check in checks for problem in check["problems"]})
    extra = sorted({name for check in checks for name in check["extra"]})

    untraced = [rep["e2e"] for rep in reps if "e2e" in rep and "layers" not in rep]
    traced = [rep for rep in reps if "layers" in rep]
    values: Dict[str, List[float]] = {}
    if args.trace:
        for rep in traced:
            for name, value in rep["layers"].items():
                values.setdefault(name, []).append(value)
        overhead = _median([rep["e2e"]["wall_s"] for rep in traced]) - _median([e["wall_s"] for e in untraced])
        values["trace.overhead_s"] = [overhead]
    else:
        for e2e in untraced:
            for name, value in e2e.items():
                values.setdefault(name, []).append(value)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = _median(values.get(name, []))
        if not math.isfinite(value):
            problems.append("metric %s was not measured" % name)
            value = 0.0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    unlisted = set(values) - {metric["name"] for metric in wanted}
    if unlisted:
        problems.append("measured but not in BENCHMARK.json: %s" % ", ".join(sorted(unlisted)))
    correct = not problems and failed == 0

    stamp = {
        "workload": args.workload, "seed": args.seed, "runner_seed": seed, "scale": args.scale,
        "trace": args.trace, "workers": workers, "reps": len(reps),
        "git_rev": git_rev(), "source": source_digest(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    print("perfbench %s" % " ".join("%s=%s" % item for item in stamp.items()))
    for metric in wanted:
        name = metric["name"]
        print("  %-34s %14.6g %-6s (median; %s)"
              % (name, metrics[name]["value"], units[name], _spread(values.get(name, []))))
    print("  %-34s %14.6g %-6s (%d failed of %d attempted)"
          % ("error_ratio", failed / attempted if attempted else 1.0, "ratio", failed, attempted))
    if extra:
        print("  artefacts without a reference: %s" % ", ".join(extra))
    for problem in problems:
        print("  CHECK FAILED: %s" % problem.strip().replace("\n", "\n    "))
    print("  checks: %s" % ("all passed" if correct else "FAILED"))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
