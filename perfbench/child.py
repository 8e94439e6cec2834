"""One measured repetition, in a fresh interpreter.

Started by :mod:`run` as ``python3 perfbench/child.py '<json config>'``.
It imports the package, wraps the program's entry points from outside
(:mod:`harness`), calls ``repro.core.runner.main`` in-process with
``--quiet`` and a fresh output directory, and writes what it observed to
``<work>/result.json``.  Every module-level cache in the program starts
cold, as it does for a user.

Times are CLOCK_MONOTONIC readings, which the parent compares with the
instant it started this process.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

import harness
import layers
import reference

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    config = json.loads(sys.argv[1])
    work = Path(config["work"])
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import runner  # the package import is part of set-up

    t_install = time.monotonic()
    ledger = harness.Ledger() if config["trace"] else None
    if ledger is not None:
        harness.install_ledger(ledger)
    observer = harness.Observer(work / "shards", ledger)
    observer.install()
    install_s = time.monotonic() - t_install

    experiment = config["experiment"]
    argv = [
        "--experiment", experiment,
        "--workers", str(config["workers"]),
        "--scale", repr(config["scale"]),
        "--seed", str(config["seed"]),
        "--out", str(work / "out"),
        "--quiet",
    ]
    report: dict = {"error": None, "unclean": [], "install_s": install_s}
    try:
        code = runner.main(argv)
    except Exception:
        report["error"] = traceback.format_exc()
        code = None
    report["t_return"] = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["cpu_s"] = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
    report["rss_kb"] = max(own.ru_maxrss, workers.ru_maxrss)
    report["t_first"], report["t_exit"] = observer.t_first, observer.t_exit
    if report["error"] is None:
        _observe(report, code, experiment, work, observer, ledger)
    (work / "result.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


def _observe(report, code, experiment, work, observer, ledger) -> None:
    """Fill ``report`` with the run's verdicts, output digests and, when
    traced, its per-layer metrics and span dump."""
    unclean = report["unclean"]
    worker_ledgers = observer.collect_workers()
    result = observer.result
    if result is None:
        unclean.append("no campaign entry point was called")
        return
    result = getattr(result, "result", result)  # a sharded run's MergedCampaign
    operations = result.deliveries if experiment == "notifyemail" else result.results
    report["ops"] = len(operations)
    if code != 0:
        unclean.append("runner exited with %r" % (code,))
    flagged = set()
    if not observer.tracecheck:
        unclean.append("tracecheck did not run")
    for clean, subjects in observer.tracecheck:
        if clean:
            continue
        for subject in subjects:
            mtaid, _, testid = subject.partition("/")
            key = reference.op_key(experiment, mtaid, testid) if testid else None
            if key is None:
                unclean.append("tracecheck finding on %r" % subject)
            else:
                flagged.add(key)
    merged_verdict = getattr(observer.result, "reconciled", None)  # sharded runs
    if not observer.reconcile and merged_verdict is None:
        unclean.append("span reconciliation did not run")
    for _, pairs in observer.reconcile:
        for mtaid, testid in pairs:
            key = reference.op_key(experiment, mtaid, testid)
            if key is None:
                unclean.append("reconciliation mismatch on %s/%s" % (mtaid, testid))
            else:
                flagged.add(key)
    if merged_verdict is False and not flagged:
        unclean.append("span reconciliation failed in a shard")
    if flagged:
        unclean.append("%d operation(s) flagged by tracecheck or reconciliation" % len(flagged))
    report["flagged"] = sorted(flagged)
    out = work / "out"
    report["artefacts"] = reference.artefact_digests(out)
    report["op_digests"] = reference.op_digests(experiment, out, result)
    report["busy"] = observer.busy
    if ledger is None:
        return
    ledger.counts["core.parallel.job_bytes"] = sum(
        len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)) for job in observer.jobs
    )
    ledger.counts["core.parallel.result_bytes"] = sum(
        len(pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL)) for shard in observer.shard_results
    )
    merged = harness.merge_ledgers([(os.getpid(), ledger.export())] + worker_ledgers)
    campaign_s = observer.t_exit - observer.t_first
    report["layers"] = layers.layer_metrics(merged, report["ops"], campaign_s, observer.busy)
    with open(work / "spans.jsonl", "w", encoding="utf-8") as handle:
        for label, start, end, parent, op, pid in merged["spans"]:
            handle.write(json.dumps(
                {"name": label, "start": start, "end": end, "parent": parent, "op": op, "pid": pid}
            ) + "\n")


if __name__ == "__main__":
    sys.exit(main())
