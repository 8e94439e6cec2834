"""Shared campaign fixtures for the benchmark harness.

Each bench regenerates one of the paper's tables or figures.  The three
campaigns are expensive, so they run once per session and the benches
share their output.  Scale is controlled with ``REPRO_BENCH_SCALE``
(default 0.02 — about 530 NotifyEmail domains and 450 TwoWeekMX domains);
the paper's absolute counts scale linearly, the percentages should not.

Every bench prints its table (run pytest with ``-s`` to see them inline)
and rewrites its own section of ``benchmarks/out/report.txt``.
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
from typing import Dict

import pytest

from repro.core import analysis as A
from repro.core.campaign import (
    NotifyEmailCampaign,
    ProbeCampaign,
    Testbed,
    apply_reputation_effects,
)
from repro.core.datasets import DatasetSpec, generate_universe

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2021"))

_OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def notify_world():
    """NotifyEmail universe + campaign output."""
    universe = generate_universe(DatasetSpec.notify_email(scale=SCALE), seed=SEED)
    testbed = Testbed(universe, seed=SEED + 1)
    result = NotifyEmailCampaign(testbed).run()
    analysis = A.analyze_notify(result)
    return universe, testbed, result, analysis


@pytest.fixture(scope="session")
def notifymx_world():
    """The NotifyEmail universe re-probed with soured reputation."""
    universe = generate_universe(DatasetSpec.notify_email(scale=SCALE), seed=SEED)
    testbed = Testbed(universe, seed=SEED + 2)
    notify_result = NotifyEmailCampaign(testbed).run()
    notify_analysis = A.analyze_notify(notify_result)
    apply_reputation_effects(universe, seed=SEED + 3)
    probe_result = ProbeCampaign(testbed, "NotifyMX", start_time=1e7).run()
    return universe, testbed, notify_result, notify_analysis, probe_result


@pytest.fixture(scope="session")
def twoweek_world():
    """TwoWeekMX universe + probe campaign output."""
    universe = generate_universe(DatasetSpec.two_week_mx(scale=SCALE), seed=SEED + 4)
    testbed = Testbed(universe, seed=SEED + 5)
    result = ProbeCampaign(testbed, "TwoWeekMX").run()
    return universe, testbed, result


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


def emit(name: str, text: str) -> None:
    """Print a bench artefact and persist it under benchmarks/out/,
    replacing this bench's earlier section of ``report.txt``."""
    print("\n%s\n%s\n" % (_BANNER, name))
    print(text)
    _OUT_DIR.mkdir(exist_ok=True)
    path = _OUT_DIR / "report.txt"
    sections = _read_sections(path)
    sections[name] = text.strip("\n")
    _write_sections(path, sections)
    with open(_OUT_DIR / ("%s.txt" % name.split(":")[0].strip().lower().replace(" ", "_")),
              "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
