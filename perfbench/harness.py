"""Wrappers the benchmark installs around the program's public entry
points, from outside the program.

Two kinds, installed in one repetition's interpreter after the package
import and before ``runner.main``:

* **Phase probes** (always): the first entry and last exit of whichever
  campaign entry point the runner calls, the campaign's return value,
  and the verdicts of tracecheck and span reconciliation (the runner
  only warns about those).  A handful of calls per run, so they cost
  nothing measurable.
* **The ledger** (traced runs only): every function :mod:`layers` names,
  with counts, self times, sampled durations and an in-memory span per
  call (name, start, end, parent, operation id).

A function imported by name into other modules is replaced in every
module that holds it, not only where it is defined; methods are
replaced on their class.  A target that no longer exists raises, so a
renamed entry point fails the run instead of reading zero.

Shard workers are forked from the coordinator and inherit the wrappers.
Each worker starts its ledger empty and writes what it observed to a
file in ``worker_dir`` when its shard returns; the coordinator reads the
files back with :func:`collect_workers`.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Ledger:
    """Counts, self times and spans of one process."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}  # label -> [calls, total_s, self_s]
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[list] = []  # [label, start, end, parent, op]
        self.stack: List[list] = []  # open calls: [child_s, span index]
        self.op: Optional[str] = None
        self.root_parent: Optional[int] = None

    def restart(self) -> None:
        """Empty the ledger in place (wrappers hold references into it).
        In a forked worker, the span the coordinator had open at the fork
        becomes the parent of the worker's root spans."""
        self.root_parent = self.stack[-1][1] if self.stack else None
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for values in self.samples.values():
            values.clear()
        self.counts.clear()
        self.spans.clear()
        self.stack.clear()
        self.op = None

    def export(self) -> dict:
        return {
            "stats": {label: list(stat) for label, stat in self.stats.items()},
            "samples": {label: list(values) for label, values in self.samples.items()},
            "counts": dict(self.counts),
            "spans": self.spans,
            "root_parent": self.root_parent,
        }


def merge_ledgers(parts: List[Tuple[int, dict]]) -> dict:
    """One ledger from several processes' exports: counts and times sum,
    samples concatenate, spans append with their parents re-indexed."""
    merged: dict = {"stats": {}, "samples": {}, "counts": {}, "spans": []}
    for pid, part in parts:
        for label, stat in part["stats"].items():
            total = merged["stats"].setdefault(label, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += stat[i]
        for label, values in part["samples"].items():
            merged["samples"].setdefault(label, []).extend(values)
        for name, value in part["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        offset = len(merged["spans"])
        for label, start, end, parent, op in part["spans"]:
            parent = part["root_parent"] if parent is None else parent + offset
            merged["spans"].append([label, start, end, parent, op, pid])
    return merged


# -- patching -------------------------------------------------------------


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw value) for ``module.path``; raw is taken
    from the owner's ``__dict__`` so classmethods stay recognisable."""
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    if isinstance(owner, type):
        if attribute not in owner.__dict__:
            raise LookupError("%s.%s is not defined on its class" % (module_name, path))
        return owner, attribute, owner.__dict__[attribute]
    return owner, attribute, getattr(owner, attribute)


def patch(module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.path`` with ``make(original)`` at every import site."""
    owner, attribute, raw = _resolve(module_name, path)
    if isinstance(owner, type):
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attribute, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attribute, make(raw))
        return
    wrapper = make(raw)
    sites = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, wrapper)
                sites += 1
    if not sites:
        raise LookupError("%s.%s has no import site" % (module_name, path))


def _span(ledger: Ledger, label: str, record: bool) -> Callable[[Callable], Callable]:
    stat = ledger.stats.setdefault(label, [0, 0.0, 0.0])
    samples = ledger.samples.setdefault(label, []) if label in layers.SAMPLED else None
    operation = layers.OPERATION.get(label)
    on_result = layers.ON_RESULT.get(label)
    on_error = layers.ON_ERROR.get(label)
    spans, stack, counts = ledger.spans, ledger.stack, ledger.counts

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if operation is not None:
                outer_op = ledger.op
                ledger.op = operation(args)
            frame = [0.0, None]
            if record:
                frame[1] = len(spans)
                span = [label, 0.0, 0.0, stack[-1][1] if stack else ledger.root_parent, ledger.op]
                spans.append(span)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if record:
                    span[1], span[2] = start, end
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)
                if operation is not None:
                    ledger.op = outer_op
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return wrapper

    return make


def _count(ledger: Ledger, name: str) -> Callable[[Callable], Callable]:
    counts = ledger.counts

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def install_ledger(ledger: Ledger) -> None:
    for module_name, path, label in layers.SPANS:
        patch(module_name, path, _span(ledger, label, record=True))
    module_name, label = layers.ANALYSIS_MODULE
    module = importlib.import_module(module_name)
    for name, value in sorted(vars(module).items()):
        public_function = not name.startswith("_") and not isinstance(value, type)
        if public_function and callable(value) and getattr(value, "__module__", None) == module_name:
            patch(module_name, name, _span(ledger, label, record=True))
    for module_name, path, label in layers.LEAVES:
        patch(module_name, path, _span(ledger, label, record=False))
    for module_name, path, name in layers.COUNTS:
        patch(module_name, path, _count(ledger, name))


# -- phase probes ------------------------------------------------------------

CAMPAIGNS = [
    ("repro.core.campaign", "ProbeCampaign.run"),
    ("repro.core.campaign", "NotifyEmailCampaign.run"),
    ("repro.core.parallel", "run_probe_sharded"),
    ("repro.core.parallel", "run_notify_sharded"),
]


class Observer:
    """What one repetition saw of the program from outside."""

    def __init__(self, worker_dir: Path, ledger: Optional[Ledger]) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.ledger = ledger
        self.depth = 0
        self.t_first: Optional[float] = None
        self.t_exit: Optional[float] = None
        self.result: Any = None  # the outermost campaign call's return value
        self.tracecheck: List[Tuple[bool, List[str]]] = []  # (clean, finding subjects)
        self.reconcile: List[Tuple[bool, List[Tuple[str, str]]]] = []  # (matched, pairs)
        self.busy: List[float] = []  # shard run times
        self.jobs: List[Any] = []
        self.shard_results: List[Any] = []

    def in_coordinator(self) -> bool:
        return os.getpid() == self.pid

    def _campaign(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.in_coordinator():
                return fn(*args, **kwargs)
            outer = self.depth == 0
            if outer and self.t_first is None:
                self.t_first = clock()
            self.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.depth -= 1
            if outer:
                self.t_exit = clock()
                self.result = result
            return result

        return wrapper

    def _check_index(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            subjects = [d.subject for d in result.report.diagnostics]
            self.tracecheck.append((bool(result.clean), subjects))
            return result

        return wrapper

    def _reconcile(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            pairs = [tuple(pair) for pair, _, _ in result.mismatches]
            self.reconcile.append((bool(result.matched), pairs))
            return result

        return wrapper

    def _run_shard(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(job):
            worker = not self.in_coordinator()
            if worker:
                self.reconcile.clear()
                if self.ledger is not None:
                    self.ledger.restart()
            start = clock()
            result = fn(job)
            busy = clock() - start
            if not worker:
                self.busy.append(busy)
                return result
            record = {
                "pid": os.getpid(),
                "busy": busy,
                "reconcile": self.reconcile,
                "ledger": self.ledger.export() if self.ledger is not None else None,
            }
            path = self.worker_dir / ("shard-%d-%d.pkl" % (job.shard.index, os.getpid()))
            with open(path, "wb") as handle:
                pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
            return result

        return wrapper

    def _shard_job(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(job, *args, **kwargs):
            fn(job, *args, **kwargs)
            if self.in_coordinator():
                self.jobs.append(job)

        return wrapper

    def _merge(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            shard_results = kwargs.get("shard_results", args[2] if len(args) > 2 else ())
            self.shard_results.extend(shard_results)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, path in CAMPAIGNS:
            patch(module_name, path, self._campaign)
        patch("repro.lint.tracecheck", "check_index", self._check_index)
        patch("repro.obs.reconcile", "reconcile_spans", self._reconcile)
        patch("repro.core.parallel", "run_shard", self._run_shard)
        if self.ledger is not None:  # job and result sizes are per-layer metrics
            patch("repro.core.parallel", "ShardJob.__init__", self._shard_job)
            patch("repro.core.parallel", "merge_shard_results", self._merge)

    def collect_workers(self) -> List[Tuple[int, dict]]:
        """Fold the shard workers' files into this observer; returns the
        workers' ledger exports as (pid, ledger) pairs."""
        ledgers = []
        for path in sorted(self.worker_dir.glob("shard-*.pkl")):
            with open(path, "rb") as handle:
                record = pickle.load(handle)  # written by this benchmark's own workers
            self.busy.append(record["busy"])
            self.reconcile.extend(record["reconcile"])
            if record["ledger"] is not None:
                ledgers.append((record["pid"], record["ledger"]))
        return ledgers
