"""Paper-vs-measured scorecard.

Encodes the paper's published numbers as data (`PAPER_REFERENCE`), collects
the corresponding measured values from campaign outputs, and renders a
side-by-side scorecard with per-statistic deviation flags.  This is the
machine-checkable version of EXPERIMENTS.md: ``runner --experiment all``
writes it as ``scorecard.txt``, and the bench harness asserts that the
overwhelming majority of statistics land inside their bands.

Tolerances are in absolute percentage points and deliberately generous at
small scale — a 2% universe carries binomial noise the paper's 20-100x
larger samples did not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import analysis as A
from repro.core.campaign import NotifyEmailResult, ProbeCampaignResult
from repro.core.datasets import Universe
from repro.core.report import Table


@dataclass(frozen=True)
class Reference:
    """One published statistic."""

    key: str
    description: str
    paper_value: float  # percent
    tolerance: float  # absolute percentage points
    section: str


PAPER_REFERENCE: List[Reference] = [
    # Section 6.1 (NotifyEmail)
    Reference("notify_spf_domains", "SPF-validating domains (NotifyEmail)", 85.0, 8.0, "6.1"),
    Reference("notify_spf_mtas", "SPF-validating MTAs (NotifyEmail)", 81.0, 10.0, "6.1"),
    Reference("combo_full", "SPF+DKIM+DMARC domains", 53.0, 10.0, "6.1"),
    Reference("combo_trial", "SPF+DKIM (no DMARC) domains", 24.0, 8.0, "6.1"),
    Reference("combo_none", "no-validation domains", 17.0, 9.0, "6.1"),
    Reference("partial_spf", "partial SPF validators (of SPF validators)", 3.0, 3.0, "6.1"),
    Reference("providers_spf", "popular providers validating SPF", 84.2, 0.5, "6.1"),
    Reference("providers_full", "popular providers validating all three", 68.4, 0.5, "6.1"),
    # Section 6.2 (NotifyMX)
    Reference("notifymx_spf_domains", "SPF-validating domains (NotifyMX)", 51.0, 12.0, "6.2"),
    Reference("notifymx_spf_mtas", "SPF-validating MTAs (NotifyMX)", 50.0, 10.0, "6.2"),
    Reference("fig2_negative", "SPF lookup before delivery (domains)", 83.0, 7.0, "6.2"),
    Reference("fig2_within30", "timestamp diffs within +/-30 s", 91.0, 6.0, "6.2"),
    Reference("reject_spam", "MTAs rejecting citing 'spam'", 27.0, 7.0, "6.2"),
    Reference("reject_blacklist", "MTAs rejecting citing 'blacklist'", 3.0, 3.0, "6.2"),
    # Section 6.3 (TwoWeekMX)
    Reference("twoweek_spf_domains", "SPF-validating domains (TwoWeekMX)", 13.0, 7.0, "6.3"),
    Reference("twoweek_spf_mtas", "SPF-validating MTAs (TwoWeekMX)", 14.0, 7.0, "6.3"),
    Reference("invalid_rcpt", "MTAs with invalid-recipient errors", 6.4, 4.0, "6.3"),
    # Section 7
    Reference("serial_lookups", "serial DNS lookups", 97.0, 4.0, "7.1"),
    Reference("limit_within10", "halted within 10 lookups", 61.0, 12.0, "7.2"),
    Reference("limit_all46", "executed all 46 lookups", 28.0, 10.0, "7.2"),
    Reference("helo_checked", "checked HELO policy", 5.0, 4.0, "7.3"),
    Reference("syntax_main", "continued past main-policy syntax error", 5.5, 4.0, "7.3"),
    Reference("syntax_child", "continued past child-policy syntax error", 12.3, 7.0, "7.3"),
    Reference("void_exceeded", "exceeded two void lookups", 97.0, 5.0, "7.3"),
    Reference("void_all_five", "chased all five void names", 64.0, 10.0, "7.3"),
    Reference("mx_fallback", "illegal A/AAAA fallback after MX", 14.0, 7.0, "7.3"),
    Reference("multi_neither", "ignored both duplicate policies", 77.0, 10.0, "7.3"),
    Reference("multi_both", "followed both duplicate policies", 0.0, 1.0, "7.3"),
    Reference("tcp_fallback", "retried truncated response over TCP", 99.9, 3.0, "7.3"),
    Reference("ipv6_retrieval", "retrieved IPv6-only policy", 49.0, 10.0, "7.3"),
    Reference("mx_limit_within", "stopped at <=10 MX address lookups", 7.7, 6.0, "7.3"),
    Reference("mx_limit_all20", "resolved all 20 MX exchanges", 64.0, 12.0, "7.3"),
]


def collect_measurements(experiments: Iterable[Tuple[str, Universe, Any]]) -> Dict[str, float]:
    """Every statistic measured on the runner's experiments, given as the
    ``(name, universe, campaign result)`` of ``notifyemail``, ``notifymx``
    and ``twoweekmx``, folded into ``{key: percent}`` for build_scorecard."""
    measured: Dict[str, float] = {}
    for name, universe, result in experiments:
        if name == "notifyemail":
            measured.update(collect_notify_measurements(universe, result))
        else:
            measured.update(collect_probe_measurements(universe, result, name))
    return measured


def collect_notify_measurements(universe: Universe, result: NotifyEmailResult) -> Dict[str, float]:
    """Measured values for the Section 6.1/6.2-figure statistics."""
    analysis = A.analyze_notify(result)
    measured: Dict[str, float] = {}
    row = A.notify_email_spf_row(universe, result, analysis)
    measured["notify_spf_domains"] = _pct(row.validating_domains, row.total_domains)
    measured["notify_spf_mtas"] = _pct(row.validating_mtas, row.total_mtas)
    counts = analysis.combo_counts()
    total = analysis.total
    measured["combo_full"] = _pct(counts.get((True, True, True), 0), total)
    measured["combo_trial"] = _pct(counts.get((True, True, False), 0), total)
    measured["combo_none"] = _pct(counts.get((False, False, False), 0), total)
    measured["partial_spf"] = _pct(
        len(analysis.partial_spf_validators()), len(analysis.validating("spf"))
    )
    provider_rows = A.provider_table(analysis).rows
    measured["providers_spf"] = _pct(
        sum(1 for cells in provider_rows if cells[1] == "Y"), len(provider_rows)
    )
    measured["providers_full"] = _pct(
        sum(1 for cells in provider_rows if cells[1:] == ["Y", "Y", "Y"]), len(provider_rows)
    )
    timing = A.timing_analysis(result)
    measured["fig2_negative"] = 100.0 * timing.negative_fraction
    measured["fig2_within30"] = 100.0 * timing.within_30s_fraction
    return measured


def collect_probe_measurements(
    universe: Universe, result: ProbeCampaignResult, experiment: str
) -> Dict[str, float]:
    """Measured values for a probe campaign (``notifymx`` or ``twoweekmx``)."""
    measured: Dict[str, float] = {}
    row = A.probe_spf_row(experiment, universe, result)
    prefix = "notifymx" if experiment.lower().startswith("notifymx") else "twoweek"
    measured["%s_spf_domains" % prefix] = _pct(row.validating_domains, row.total_domains)
    measured["%s_spf_mtas" % prefix] = _pct(row.validating_mtas, row.total_mtas)
    rejections = A.rejection_stats(result)
    if prefix == "notifymx":
        measured["reject_spam"] = _pct(rejections.spam, rejections.total_mtas)
        measured["reject_blacklist"] = _pct(rejections.blacklist, rejections.total_mtas)
        measured.update((stat.key, stat.percent) for stat in A.behavior_stats(result) if stat.key)
    else:
        measured["invalid_rcpt"] = _pct(rejections.invalid_recipient, rejections.total_mtas)
    return measured


@dataclass
class ScorecardEntry:
    reference: Reference
    measured: Optional[float]

    @property
    def deviation(self) -> Optional[float]:
        if self.measured is None:
            return None
        return self.measured - self.reference.paper_value

    @property
    def within_band(self) -> Optional[bool]:
        if self.measured is None:
            return None
        return abs(self.deviation) <= self.reference.tolerance


@dataclass
class Scorecard:
    entries: List[ScorecardEntry]

    @property
    def evaluated(self) -> List[ScorecardEntry]:
        return [entry for entry in self.entries if entry.measured is not None]

    @property
    def hits(self) -> int:
        return sum(1 for entry in self.evaluated if entry.within_band)

    @property
    def hit_rate(self) -> float:
        evaluated = self.evaluated
        return self.hits / len(evaluated) if evaluated else 0.0

    def to_table(self) -> Table:
        table = Table(
            "Paper-vs-measured scorecard: %d/%d statistics within band"
            % (self.hits, len(self.evaluated)),
            ["Statistic", "Paper", "Measured", "Delta", "Band", "OK"],
        )
        for entry in self.entries:
            reference = entry.reference
            if entry.measured is None:
                table.add(reference.description, "%.1f%%" % reference.paper_value, "-", "-", "-", "?")
                continue
            table.add(
                "%s (s%s)" % (reference.description, reference.section),
                "%.1f%%" % reference.paper_value,
                "%.1f%%" % entry.measured,
                "%+.1f" % entry.deviation,
                "±%.0f" % reference.tolerance,
                "yes" if entry.within_band else "NO",
            )
        return table


def build_scorecard(measured: Dict[str, float]) -> Scorecard:
    """Combine measured values (merge the collect_* dicts) into a scorecard."""
    entries = [
        ScorecardEntry(reference, measured.get(reference.key)) for reference in PAPER_REFERENCE
    ]
    return Scorecard(entries)


def _pct(numerator: int, denominator: int) -> float:
    return 100.0 * numerator / denominator if denominator else 0.0
