"""The fault-matrix campaign: probe outcomes under each fault kind.

The paper's measurements repeatedly hinge on *failure* behaviour — MTAs
that time out, resolvers that cannot fall back to TCP, servers that
never answer — but the ordinary campaigns only meet failures the test
policies script.  :func:`run_fault_matrix` turns the fault-injection
subsystem (:mod:`repro.net.faults`) into an experiment of its own: the
same probe campaign is replayed once per *scenario* (one canonical
:class:`~repro.net.faults.FaultPlan` per fault kind, plus an unfaulted
baseline), each one :func:`~repro.core.parallel.run_probe_sharded` call
(fresh testbeds, so no state leaks between scenarios) over the same
universe, and the per-MTA conversation outcomes are summarised side by
side in one table, the same for every worker count.

Outcome vocabulary (one bucket per probe conversation):

``done``
    the probe walked EHLO → MAIL → RCPT → DATA to completion;
``stalled``
    the conversation opened but died before DATA (a mid-conversation
    reset, a rejected stage, a lost reply);
``noconnect``
    no SMTP conversation ever started (connect refused, banner absent
    or too late).

Every scenario derives its plan seed with
:func:`~repro.net.faults.derive_fault_seed`, so the whole matrix is a
pure function of ``(universe, seed)`` and reruns byte-identically.  A
scenario's injection tally is its merged ``faults_injected_total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.datasets import Universe
from repro.core.parallel import run_probe_sharded
from repro.core.probe import ProbeResult
from repro.core.report import Table
from repro.net.faults import derive_fault_seed, injected_by_kind

#: One canonical scenario per fault kind.  Probabilities are deliberately
#: heavy-handed — the matrix is a behavioural census, not a realism
#: claim — and each ``where`` clause keeps the blast radius on the layer
#: the kind targets (port 53 = DNS transport, port 25 = SMTP transport).
FAULT_SCENARIOS: Tuple[Tuple[str, str], ...] = (
    ("baseline", ""),
    ("udp_loss", "udp_loss:0.25@53"),
    ("udp_delay", "udp_delay:0.5:7.5@53"),
    ("truncate_no_tcp", "truncate:1.0,tcp_refuse:1.0@53"),
    ("servfail", "servfail:0.5"),
    ("refused", "refused:0.5"),
    ("tcp_refuse", "tcp_refuse:0.25@25"),
    ("tcp_reset", "tcp_reset:0.1@25"),
    ("banner_delay", "banner_delay:0.5:45"),
    ("banner_absent", "banner_absent:0.5"),
)

#: The probe policies each scenario replays.  One cheap, representative
#: policy keeps the matrix ``O(scenarios × MTAs)`` instead of
#: ``O(scenarios × MTAs × 39)``.
DEFAULT_TESTIDS: Tuple[str, ...] = ("t01",)


def classify_outcome(result: ProbeResult) -> str:
    """Bucket one probe conversation (see the module docstring)."""
    if result.stage_reached == "done":
        return "done"
    if result.error_stage == "connect":
        return "noconnect"
    return "stalled"


@dataclass
class ScenarioOutcome:
    """One scenario's probe results, injection tally and span
    reconciliation verdict."""

    label: str
    spec: str
    results: List[ProbeResult] = field(default_factory=list)
    injections: Dict[str, int] = field(default_factory=dict)
    reconciled: Optional[bool] = None

    @property
    def buckets(self) -> Dict[str, int]:
        counts = {"done": 0, "stalled": 0, "noconnect": 0}
        for result in self.results:
            counts[classify_outcome(result)] += 1
        return counts


@dataclass
class FaultMatrixResult:
    """The full matrix: one :class:`ScenarioOutcome` per scenario."""

    seed: int
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    @property
    def reconciled(self) -> bool:
        """False if any scenario's span reconciliation failed."""
        return all(outcome.reconciled is not False for outcome in self.outcomes)

    def to_table(self) -> Table:
        table = Table(
            title="Fault matrix: per-MTA probe outcomes by injected fault kind",
            headers=["scenario", "spec", "probes", "done", "stalled", "noconnect", "injected"],
        )
        for outcome in self.outcomes:
            buckets = outcome.buckets
            table.add(
                outcome.label,
                outcome.spec or "(none)",
                len(outcome.results),
                buckets["done"],
                buckets["stalled"],
                buckets["noconnect"],
                sum(outcome.injections.values()),
            )
        table.notes.append(
            "policies %s; plan seeds derived from master seed %d"
            % (",".join(DEFAULT_TESTIDS), self.seed)
        )
        for outcome in self.outcomes:
            if outcome.injections:
                tally = ", ".join("%s=%d" % pair for pair in sorted(outcome.injections.items()))
                table.notes.append("%s injections: %s" % (outcome.label, tally))
        return table


def run_fault_matrix(
    universe: Universe,
    seed: int = 2021,
    scenarios: Sequence[Tuple[str, str]] = FAULT_SCENARIOS,
    workers: Optional[int] = None,
) -> FaultMatrixResult:
    """Replay the probe campaign once per fault scenario, each over
    ``workers`` workers (default: one per usable CPU) of
    :mod:`repro.core.parallel`, with the same testbed seed."""
    matrix = FaultMatrixResult(seed=seed)
    for label, spec in scenarios:
        merged = run_probe_sharded(
            universe, "FaultMatrix:%s" % label, testids=DEFAULT_TESTIDS, workers=workers,
            testbed_seed=seed, campaign_seed=seed,
            faults_spec=spec, faults_seed=derive_fault_seed(spec, seed),
        )
        matrix.outcomes.append(
            ScenarioOutcome(
                label, spec, merged.result.results, injected_by_kind(merged.metrics), merged.reconciled
            )
        )
    return matrix
