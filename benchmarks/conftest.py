"""Shared campaign fixtures for the benchmark harness.

Each bench regenerates one of the paper's tables or figures from the
runner's own experiments (:func:`repro.core.runner.run_experiments`, the
code ``runner --experiment all`` runs, with the same seeds), run once per
session under ``--no-obs`` and shared by every bench.  Scale and seed are
controlled with ``REPRO_BENCH_SCALE`` (default 0.02 — about 530
NotifyEmail domains and 450 TwoWeekMX domains) and ``REPRO_BENCH_SEED``
(default 2021); the paper's absolute counts scale linearly, the
percentages should not.

Every bench prints its table (run pytest with ``-s`` to see them inline)
and rewrites its own section of ``benchmarks/out/report.txt``, and with it
``benchmarks/out/<bench>.txt``.
Throughput numbers are additionally collected via :func:`record_bench`
and appended once per session, stamped with the git revision and CPU
count, to the history in machine-readable
``benchmarks/out/BENCH_campaign.json`` so CI can archive and trend them.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
from typing import Dict, NamedTuple

import pytest

from repro.core import analysis as A
from repro.core.datasets import Universe
from repro.core.runner import build_parser, run_experiments
from repro.obs import ProgressSink

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2021"))

_OUT_DIR = pathlib.Path(__file__).parent / "out"


class Experiment(NamedTuple):
    """One runner experiment: the universe it ran on and its campaign result."""

    universe: Universe
    result: object  # NotifyEmailResult or ProbeCampaignResult


@pytest.fixture(scope="session")
def experiments() -> Dict[str, Experiment]:
    """``{name: Experiment}`` for NotifyEmail, NotifyMX (cumulative over
    both notify campaigns, as in the runner) and TwoWeekMX.

    NotifyEmail and NotifyMX share one universe object, and the benches
    read it only after the whole run, when ``apply_reputation_effects``
    has soured it for NotifyMX, while the runner writes NotifyEmail before
    that.  Souring sets only the MTAs' ``behavior.blacklist_rejection``,
    which NotifyEmail analyses must not read (NotifyEmail ran with a clean
    reputation); ``tests/test_core_runner.py::TestOneEngine::
    test_notifyemail_outputs_survive_souring`` holds the runner's
    NotifyEmail report and card equal to ones computed after souring."""
    args = build_parser().parse_args(["--scale", str(SCALE), "--seed", str(SEED), "--no-obs"])
    return {
        name: Experiment(universe, merged.result)
        for name, universe, merged in run_experiments(args, ProgressSink(quiet=True))
    }


@pytest.fixture(scope="session")
def notifyemail(experiments) -> Experiment:
    return experiments["notifyemail"]


@pytest.fixture(scope="session")
def notifymx(experiments) -> Experiment:
    return experiments["notifymx"]


@pytest.fixture(scope="session")
def twoweekmx(experiments) -> Experiment:
    return experiments["twoweekmx"]


@pytest.fixture(scope="session")
def notify_analysis(notifyemail) -> A.NotifyAnalysis:
    """The NotifyEmail analysis, as the runner's report computes it."""
    return A.analyze_notify(notifyemail.result)


#: Session-wide collected throughput records (see :func:`record_bench`).
_BENCH_RECORDS: list = []


def record_bench(name: str, ops_per_sec: float, workers: int = 1, **extra) -> None:
    """Collect one machine-readable throughput record.

    Appended at session end to ``benchmarks/out/BENCH_campaign.json``:
    one object per record with the bench name, achieved operations per
    second, the worker count that produced it, and any extra fields the
    bench cares to attach (universe scale, item counts, ...).
    """
    record = {"name": name, "ops_per_sec": ops_per_sec, "workers": workers}
    record.update(extra)
    _BENCH_RECORDS.append(record)


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _load_history(path: pathlib.Path) -> list:
    """The recorded sessions, oldest first.  A file in the older
    single-session layout becomes the first entry, revision unknown."""
    if not path.exists():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "history" in payload:
        return payload["history"]
    return [{
        "rev": "unknown",
        "cpu_count": payload.get("cpu_count"),
        "scale": payload.get("scale"),
        "seed": payload.get("seed"),
        "records": payload.get("benches", []),
    }]


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RECORDS:
        return
    _OUT_DIR.mkdir(exist_ok=True)
    path = _OUT_DIR / "BENCH_campaign.json"
    history = _load_history(path)
    history.append({
        "rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "scale": SCALE,
        "seed": SEED,
        "records": _BENCH_RECORDS,
    })
    payload = {"history": history}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


_BANNER = "#" * 72


def _read_sections(path: pathlib.Path) -> Dict[str, str]:
    """``report.txt`` as {section name: text}, in file order; a repeated
    name keeps its first position and its last text."""
    sections: Dict[str, str] = {}
    if not path.exists():
        return sections
    for chunk in path.read_text(encoding="utf-8").split(_BANNER + "\n")[1:]:
        name, _, text = chunk.partition("\n")
        sections[name] = text.strip("\n")
    return sections


def _write_sections(path: pathlib.Path, sections: Dict[str, str]) -> None:
    path.write_text(
        "\n".join("%s\n%s\n\n%s\n" % (_BANNER, name, text) for name, text in sections.items()),
        encoding="utf-8",
    )


def _bench_file(name: str) -> str:
    """The ``benchmarks/out`` file a report section belongs to: its name up
    to the first colon, e.g. ``fault overhead: faulted`` -> ``fault_overhead.txt``."""
    return "%s.txt" % name.split(":")[0].strip().lower().replace(" ", "_")


def emit(name: str, text: str) -> None:
    """Print a bench artefact and persist it under benchmarks/out/,
    replacing this bench's earlier section of ``report.txt``, then rebuild
    its ``<bench>.txt`` from every ``report.txt`` section that belongs to
    that file, in report order."""
    print("\n%s\n%s\n" % (_BANNER, name))
    print(text)
    _OUT_DIR.mkdir(exist_ok=True)
    path = _OUT_DIR / "report.txt"
    sections = _read_sections(path)
    sections[name] = text.strip("\n")
    _write_sections(path, sections)
    bench_file = _bench_file(name)
    bodies = [body + "\n" for section, body in sections.items() if _bench_file(section) == bench_file]
    (_OUT_DIR / bench_file).write_text("\n".join(bodies), encoding="utf-8")
