"""Analyses regenerating every table and figure of the paper.

Each function consumes campaign outputs (query index, probe results,
delivery records) plus the universe, and returns both structured data and
a printable :class:`~repro.core.report.Table`.  The experiment → function
mapping is in DESIGN.md's experiment index.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core import classify
from repro.core.campaign import NotifyEmailResult, ProbeCampaignResult
from repro.core.classify import (
    NotifyValidation,
    classify_helo,
    classify_lookup_limit,
    classify_multiple_records,
    classify_notify_domain,
    classify_serial_parallel,
    classify_tcp_fallback,
    count_mx_address_lookups,
    count_void_targets,
    did_mx_fallback,
    first_spf_lookup_time,
    retrieved_over_ipv6,
    spf_validated,
)
from repro.core.datasets import POPULAR_PROVIDERS, Universe
from repro.core.report import Table, pct

# ---------------------------------------------------------------------------
# Table 1: TLD distribution
# ---------------------------------------------------------------------------


def tld_table(universes: Dict[str, Universe], top: int = 10) -> Table:
    table = Table("Table 1: ten most prevalent TLDs per data set", ["TLD", "% Domains", "Data set"])
    for name, universe in universes.items():
        counts = Counter(domain.tld for domain in universe.domains)
        total = len(universe.domains)
        for tld, count in counts.most_common(top):
            table.add(tld, pct(count, total), name)
        table.notes.append("%s: %d distinct TLDs" % (name, len(counts)))
    return table


# ---------------------------------------------------------------------------
# Table 2: data sets
# ---------------------------------------------------------------------------


@dataclass
class DatasetCounts:
    name: str
    domains: int
    ipv4: int
    ipv6: int


def notify_email_counts(result: NotifyEmailResult) -> DatasetCounts:
    """NotifyEmail row: domains mailed; addresses mail was delivered to."""
    v4: Set[str] = set()
    v6: Set[str] = set()
    for delivery in result.deliveries:
        ip = delivery.delivery.mta_ip
        if ip:
            (v6 if ":" in ip else v4).add(ip)
    return DatasetCounts("NotifyEmail", len(result.deliveries), len(v4), len(v6))


def probe_counts(name: str, universe: Universe, result: ProbeCampaignResult) -> DatasetCounts:
    domains = {
        domain.name
        for domain in universe.domains
        if not domain.resolution_failed
        and any(host.mtaid in result.probed for host in domain.mta_hosts)
    }
    v4 = {host.ipv4 for host in result.probed.values() if host.ipv4}
    v6 = {host.ipv6 for host in result.probed.values() if host.ipv6}
    return DatasetCounts(name, len(domains), len(v4), len(v6))


def dataset_table(counts: Sequence[DatasetCounts]) -> Table:
    table = Table("Table 2: data sets used for experimentation", ["Data set", "Domains", "IPv4", "IPv6"])
    for entry in counts:
        table.add(entry.name, entry.domains, entry.ipv4, entry.ipv6)
    return table


# ---------------------------------------------------------------------------
# Table 3: AS distribution
# ---------------------------------------------------------------------------


def as_table(universes: Dict[str, Universe], top: int = 10) -> Table:
    table = Table(
        "Table 3: ten most prevalent ASes by share of domains",
        ["AS", "% Domains", "Data set"],
    )
    for name, universe in universes.items():
        counts: Counter = Counter()
        for domain in universe.domains:
            seen: Set[int] = set()
            for host in domain.mta_hosts:
                info = universe.asmap.lookup(host.ipv4 or host.ipv6)
                if info is not None and info.asn not in seen:
                    seen.add(info.asn)
                    counts["AS%d (%s)" % (info.asn, info.name)] += 1
        total = len(universe.domains)
        for as_label, count in counts.most_common(top):
            table.add(as_label, pct(count, total), name)
        table.notes.append("%s: %d distinct ASes" % (name, len(counts)))
    return table


# ---------------------------------------------------------------------------
# Table 4: SPF x DKIM x DMARC breakdown (NotifyEmail)
# ---------------------------------------------------------------------------


@dataclass
class NotifyAnalysis:
    """Per-domain validation observations for the NotifyEmail experiment."""

    observations: Dict[str, NotifyValidation]
    domainid_to_name: Dict[str, str]

    @property
    def total(self) -> int:
        return len(self.observations)

    def combo_counts(self) -> Counter:
        return Counter(obs.combo for obs in self.observations.values())

    def validating(self, mechanism: str) -> Set[str]:
        attr = {"spf": "spf", "dkim": "dkim", "dmarc": "dmarc"}[mechanism]
        return {
            domainid
            for domainid, obs in self.observations.items()
            if getattr(obs, attr)
        }

    def partial_spf_validators(self) -> Set[str]:
        return {d for d, obs in self.observations.items() if obs.partial_spf}


def analyze_notify(result: NotifyEmailResult) -> NotifyAnalysis:
    observations: Dict[str, NotifyValidation] = {}
    mapping: Dict[str, str] = {}
    for delivery in result.deliveries:
        domainid = delivery.domain.domainid
        mapping[domainid] = delivery.domain.name
        observations[domainid] = classify_notify_domain(
            domainid, result.index.for_mta(domainid)
        )
    return NotifyAnalysis(observations, mapping)


_COMBO_ORDER = [
    (True, True, True),
    (True, True, False),
    (False, False, False),
    (True, False, False),
    (False, True, False),
    (False, False, True),
    (True, False, True),
    (False, True, True),
]


def validation_breakdown_table(analysis: NotifyAnalysis) -> Table:
    table = Table(
        "Table 4: SPF/DKIM/DMARC validation combinations (NotifyEmail domains)",
        ["SPF", "DKIM", "DMARC", "Domains", "%"],
    )
    counts = analysis.combo_counts()
    for combo in _COMBO_ORDER:
        count = counts.get(combo, 0)
        table.add(
            "Y" if combo[0] else "-",
            "Y" if combo[1] else "-",
            "Y" if combo[2] else "-",
            count,
            pct(count, analysis.total),
        )
    partial = len(analysis.partial_spf_validators())
    spf_total = len(analysis.validating("spf"))
    table.notes.append(
        "partial SPF validators (policy fetched, 'a' never resolved): %d of %d SPF validators (%s)"
        % (partial, spf_total, pct(partial, spf_total))
    )
    return table


# ---------------------------------------------------------------------------
# Table 5: SPF-validating domains and MTAs per experiment (+ deciles)
# ---------------------------------------------------------------------------


@dataclass
class SpfSummaryRow:
    label: str
    total_domains: int
    total_mtas: int
    validating_domains: int
    validating_mtas: int


def notify_email_spf_row(
    universe: Universe, result: NotifyEmailResult, analysis: NotifyAnalysis
) -> SpfSummaryRow:
    validating_domains = analysis.validating("spf")
    delivered_ips: Set[str] = set()
    validating_ips: Set[str] = set()
    for delivery in result.deliveries:
        ip = delivery.delivery.mta_ip
        if not ip:
            continue
        delivered_ips.add(ip)
        if delivery.domain.domainid in validating_domains:
            validating_ips.add(ip)
    return SpfSummaryRow(
        "NotifyEmail",
        total_domains=len(result.deliveries),
        total_mtas=len(delivered_ips),
        validating_domains=len(validating_domains),
        validating_mtas=len(validating_ips),
    )


def probe_spf_row(
    label: str, universe: Universe, result: ProbeCampaignResult
) -> SpfSummaryRow:
    observed = result.index.mtas_observed()
    observed &= set(result.probed)
    total_domains = 0
    validating_domains = 0
    for domain in universe.domains:
        hosts = [h for h in domain.mta_hosts if h.mtaid in result.probed]
        if domain.resolution_failed or not hosts:
            continue
        total_domains += 1
        if any(host.mtaid in observed for host in hosts):
            validating_domains += 1
    return SpfSummaryRow(
        label,
        total_domains=total_domains,
        total_mtas=len(result.probed),
        validating_domains=validating_domains,
        validating_mtas=len(observed),
    )


def decile_rows(universe: Universe, result: ProbeCampaignResult) -> List[SpfSummaryRow]:
    """TwoWeekMX deciles by demand, locals excluded (Section 6.3)."""
    observed = result.index.mtas_observed() & set(result.probed)
    domains = [
        domain
        for domain in universe.domains
        if not domain.is_local
        and not domain.resolution_failed
        and any(host.mtaid in result.probed for host in domain.mta_hosts)
    ]
    domains.sort(key=lambda domain: -domain.demand)
    rows: List[SpfSummaryRow] = []
    count = len(domains)
    for decile in range(10):
        start = decile * count // 10
        end = (decile + 1) * count // 10
        chunk = domains[start:end]
        mtas: Set[str] = set()
        validating_domains = 0
        for domain in chunk:
            hosts = {h.mtaid for h in domain.mta_hosts if h.mtaid in result.probed}
            mtas |= hosts
            if hosts & observed:
                validating_domains += 1
        rows.append(
            SpfSummaryRow(
                "Decile %d" % (decile + 1),
                total_domains=len(chunk),
                total_mtas=len(mtas),
                validating_domains=validating_domains,
                validating_mtas=len(mtas & observed),
            )
        )
    return rows


def spf_summary_table(rows: Sequence[SpfSummaryRow]) -> Table:
    table = Table(
        "Table 5: SPF-validating domains and MTAs",
        ["Experiment", "Domains", "MTAs", "Val. domains", "(%)", "Val. MTAs", "(%)"],
    )
    for row in rows:
        table.add(
            row.label,
            row.total_domains,
            row.total_mtas,
            row.validating_domains,
            pct(row.validating_domains, row.total_domains, 0),
            row.validating_mtas,
            pct(row.validating_mtas, row.total_mtas, 0),
        )
    return table


def decile_consistency(rows: Sequence[SpfSummaryRow]) -> Tuple[float, float]:
    """(mean, stdev) of the per-decile domain validation percentage."""
    rates = [100.0 * r.validating_domains / r.total_domains for r in rows if r.total_domains]
    if not rates:
        return 0.0, 0.0
    mean = sum(rates) / len(rates)
    variance = sum((rate - mean) ** 2 for rate in rates) / len(rates)
    return mean, math.sqrt(variance)


# ---------------------------------------------------------------------------
# Table 6: popular providers
# ---------------------------------------------------------------------------


def provider_table(analysis: NotifyAnalysis) -> Table:
    table = Table(
        "Table 6: validation by popular mail providers (NotifyEmail)",
        ["Domain", "SPF", "DKIM", "DMARC"],
    )
    by_name = {name: domainid for domainid, name in analysis.domainid_to_name.items()}
    for provider_name, *_expected in POPULAR_PROVIDERS:
        domainid = by_name.get(provider_name)
        if domainid is None:
            continue
        obs = analysis.observations[domainid]
        table.add(
            provider_name,
            "Y" if obs.spf else "-",
            "Y" if obs.dkim else "-",
            "Y" if obs.dmarc else "-",
        )
    return table


# ---------------------------------------------------------------------------
# Table 7: Alexa tiers
# ---------------------------------------------------------------------------


def alexa_table(universe: Universe, analysis: NotifyAnalysis) -> Table:
    tiers = {
        "All": lambda domain: True,
        "In Alexa Top 1M": lambda domain: domain.alexa_rank is not None,
        "In Alexa Top 1K": lambda domain: domain.alexa_rank is not None and domain.alexa_rank <= 1000,
    }
    name_to_domain = {domain.domainid: domain for domain in universe.domains}
    table = Table(
        "Table 7: validation rates by Alexa membership (NotifyEmail)",
        ["Mechanism", "All", "Top 1M", "Top 1K"],
    )
    membership: Dict[str, List[str]] = {label: [] for label in tiers}
    for domainid in analysis.observations:
        domain = name_to_domain.get(domainid)
        if domain is None:
            continue
        for label, predicate in tiers.items():
            if predicate(domain):
                membership[label].append(domainid)
    table.add("Domains", *[len(membership[label]) for label in tiers])
    for mechanism in ("spf", "dkim", "dmarc"):
        validating = analysis.validating(mechanism)
        cells = []
        for label in tiers:
            ids = membership[label]
            count = sum(1 for domainid in ids if domainid in validating)
            cells.append("%d (%s)" % (count, pct(count, len(ids), 0)))
        table.add("%s-validating" % mechanism.upper(), *cells)
    return table


# ---------------------------------------------------------------------------
# Figure 2: SPF lookup vs delivery timing
# ---------------------------------------------------------------------------

FIGURE2_EDGES = [-30.0, -15.0, 0.0, 15.0, 30.0]
FIGURE2_LABELS = ["<= -30", "-30..-15", "-15..0", "0..15", "15..30", ">= 30"]


@dataclass
class TimingAnalysis:
    buckets: List[Tuple[str, float]]
    negative_fraction: float
    within_30s_fraction: float
    filtered_sub_second: int
    filtered_outliers: int
    domains_used: int


def timing_analysis(result: NotifyEmailResult, outlier_threshold: float = 600.0) -> TimingAnalysis:
    """The Section 6.2 timestamp analysis behind Figure 2.

    Timestamps are quantized to whole seconds (Exim's log granularity) and
    sub-second differences in [0, 1) are excluded, exactly as the paper
    filters them.  Large-magnitude outliers — the paper removed 7 emails
    whose difference spanned days because an earlier (greylisted) delivery
    attempt triggered SPF — are dropped past ``outlier_threshold``.
    """
    per_domain: Dict[str, List[float]] = defaultdict(list)
    filtered = 0
    outliers = 0
    for delivery in result.deliveries:
        if not delivery.delivery.accepted_with_250:
            continue
        t_email = delivery.delivery.t_delivered
        queries = result.index.for_mta(delivery.domain.domainid)
        t_spf = first_spf_lookup_time(queries)
        if t_spf is None or t_email is None:
            continue
        if 0.0 <= t_spf - t_email < 1.0:
            filtered += 1
            continue
        diff = float(int(t_spf) - int(t_email))
        if abs(diff) > outlier_threshold:
            outliers += 1
            continue
        per_domain[delivery.domain.domainid].append(diff)
    averages: List[float] = []
    for domainid, diffs in per_domain.items():
        signs = {diff >= 0 for diff in diffs}
        if len(signs) > 1:
            continue  # inconsistent domains dropped, as in the paper
        averages.append(sum(diffs) / len(diffs))
    counts = [0] * (len(FIGURE2_EDGES) + 1)
    for value in averages:
        index = 0
        while index < len(FIGURE2_EDGES) and value > FIGURE2_EDGES[index]:
            index += 1
        counts[index] += 1
    total = len(averages) or 1
    buckets = [(label, counts[i] / total) for i, label in enumerate(FIGURE2_LABELS)]
    negative = sum(1 for value in averages if value < 0)
    within = sum(1 for value in averages if -30.0 <= value <= 30.0)
    return TimingAnalysis(
        buckets=buckets,
        negative_fraction=negative / total,
        within_30s_fraction=within / total,
        filtered_sub_second=filtered,
        filtered_outliers=outliers,
        domains_used=len(averages),
    )


# ---------------------------------------------------------------------------
# Figure 5: lookup-limit CDF
# ---------------------------------------------------------------------------


@dataclass
class LookupLimitAnalysis:
    observations: List[classify.LookupLimitObservation]
    cdf: List[Tuple[int, float, float]]  # (queries, elapsed_lb, cum_fraction)
    within_limit_fraction: float
    ran_everything_fraction: float

    @property
    def total(self) -> int:
        return len(self.observations)


def lookup_limit_analysis(result: ProbeCampaignResult) -> LookupLimitAnalysis:
    observations = []
    for mtaid in sorted(result.index.mtas_observed("t02")):
        observation = classify_lookup_limit(mtaid, result.index.for_pair(mtaid, "t02"))
        if observation is not None:
            observations.append(observation)
    observations.sort(key=lambda o: o.queries_issued)
    total = len(observations) or 1
    cdf = []
    for index, observation in enumerate(observations):
        cdf.append(
            (observation.queries_issued, observation.elapsed_lower_bound, (index + 1) / total)
        )
    within = sum(1 for o in observations if o.halted_within_limit)
    everything = sum(1 for o in observations if o.ran_everything)
    return LookupLimitAnalysis(
        observations=observations,
        cdf=cdf,
        within_limit_fraction=within / total,
        ran_everything_fraction=everything / total,
    )


# ---------------------------------------------------------------------------
# Section 7 behaviour statistics
# ---------------------------------------------------------------------------


@dataclass
class Stat:
    """One 'X of N (p%)' statistic with its paper reference value."""

    label: str
    numerator: int
    denominator: int
    paper_percent: float
    key: Optional[str] = None  # the compare.PAPER_REFERENCE statistic it measures, if any

    @property
    def percent(self) -> float:
        if not self.denominator:
            return 0.0
        return 100.0 * self.numerator / self.denominator

    def row(self) -> List[str]:
        return [
            self.label,
            "%d/%d" % (self.numerator, self.denominator),
            "%.1f%%" % self.percent,
            "%.1f%%" % self.paper_percent,
        ]


def behavior_stats(result: ProbeCampaignResult) -> List[Stat]:
    """All Section 7 behaviour statistics from one probe campaign."""
    index = result.index
    stats: List[Stat] = []

    # 7.1 serial vs parallel
    serial = parallel = 0
    for mtaid in index.mtas_observed("t01"):
        observation = classify_serial_parallel(mtaid, index.for_pair(mtaid, "t01"))
        if observation.parallel is True:
            parallel += 1
        elif observation.parallel is False:
            serial += 1
    stats.append(Stat("serial DNS lookups (t01)", serial, serial + parallel, 97.0, "serial_lookups"))

    # 7.2 lookup limits
    limits = lookup_limit_analysis(result)
    halted = sum(1 for o in limits.observations if o.halted_within_limit)
    ran_all = sum(1 for o in limits.observations if o.ran_everything)
    stats.append(Stat("halted within 10 lookups (t02)", halted, limits.total, 61.0, "limit_within10"))
    stats.append(Stat("executed all 46 lookups (t02)", ran_all, limits.total, 28.0, "limit_all46"))

    # 7.3 HELO
    checked = proceeded = validators = 0
    for mtaid in index.mtas_observed("t03"):
        observation = classify_helo(mtaid, index.for_pair(mtaid, "t03"))
        validators += 1
        if observation.checked_helo:
            checked += 1
            if observation.proceeded_to_mail_domain:
                proceeded += 1
    stats.append(Stat("checked HELO policy (t03)", checked, validators, 5.0, "helo_checked"))
    stats.append(Stat("ignored HELO verdict (of checkers)", proceeded, checked, 100.0))

    # 7.3 syntax errors
    for testid, label, paper, key in (
        ("t04", "continued past syntax error in main policy", 5.5, "syntax_main"),
        ("t05", "continued past syntax error in child policy", 12.3, "syntax_child"),
    ):
        validators = continued = 0
        for mtaid in index.mtas_observed(testid):
            queries = index.for_pair(mtaid, testid)
            if not spf_validated(queries):
                continue
            validators += 1
            if classify.continued_past_error(queries):
                continued += 1
        stats.append(Stat("%s (%s)" % (label, testid), continued, validators, paper, key))

    # 7.3 void lookups
    exceeded = all_five = validators = 0
    for mtaid in index.mtas_observed("t06"):
        count = count_void_targets(index.for_pair(mtaid, "t06"))
        validators += 1
        if count > 2:
            exceeded += 1
        if count == 5:
            all_five += 1
    stats.append(Stat("exceeded two void lookups (t06)", exceeded, validators, 97.0, "void_exceeded"))
    stats.append(Stat("chased all five void names (t06)", all_five, validators, 64.0, "void_all_five"))

    # 7.3 mx fallback
    fallback = validators = 0
    for mtaid in index.mtas_observed("t07"):
        verdict = did_mx_fallback(index.for_pair(mtaid, "t07"))
        if verdict is None:
            continue
        validators += 1
        if verdict:
            fallback += 1
    stats.append(Stat("illegal A/AAAA fallback after MX (t07)", fallback, validators, 14.0, "mx_fallback"))

    # 7.3 multiple records
    neither = one = both = 0
    for mtaid in index.mtas_observed("t08"):
        observation = classify_multiple_records(mtaid, index.for_pair(mtaid, "t08"))
        category = observation.category
        if category == "neither":
            neither += 1
        elif category == "one":
            one += 1
        else:
            both += 1
    total = neither + one + both
    stats.append(Stat("ignored both duplicate policies (t08)", neither, total, 77.0, "multi_neither"))
    stats.append(Stat("followed exactly one duplicate policy (t08)", one, total, 23.0))
    stats.append(Stat("followed both duplicate policies (t08)", both, total, 0.0, "multi_both"))

    # 7.3 TCP fallback
    tried = fell_back = 0
    for mtaid in index.mtas_observed("t09"):
        observation = classify_tcp_fallback(mtaid, index.for_pair(mtaid, "t09"))
        if observation.tried_udp:
            tried += 1
            if observation.retried_tcp:
                fell_back += 1
    stats.append(Stat("retried truncated response over TCP (t09)", fell_back, tried, 99.9, "tcp_fallback"))

    # 7.3 IPv6
    capable = validators = 0
    for mtaid in index.mtas_observed("t10"):
        queries = index.for_pair(mtaid, "t10")
        verdict = retrieved_over_ipv6(queries)
        if verdict is None:
            continue
        validators += 1
        if verdict:
            capable += 1
    stats.append(Stat("retrieved IPv6-only policy (t10)", capable, validators, 49.0, "ipv6_retrieval"))

    # 7.3 MX address limit
    within = all_twenty = validators = 0
    for mtaid in index.mtas_observed("t11"):
        count = count_mx_address_lookups(index.for_pair(mtaid, "t11"))
        if count is None:
            continue
        validators += 1
        if count <= 10:
            within += 1
        if count >= 20:
            all_twenty += 1
    stats.append(Stat("stopped at <=10 MX address lookups (t11)", within, validators, 7.7, "mx_limit_within"))
    stats.append(Stat("resolved all 20 MX exchanges (t11)", all_twenty, validators, 64.0, "mx_limit_all20"))

    return stats


def behavior_table(stats: Sequence[Stat]) -> Table:
    table = Table(
        "Section 7: SPF validation behaviours (measured vs paper)",
        ["Behaviour", "Observed", "Measured", "Paper"],
    )
    for stat in stats:
        table.rows.append(stat.row())
    return table


# ---------------------------------------------------------------------------
# Section 6.2 extras: rejection analysis and cross-experiment consistency
# ---------------------------------------------------------------------------


@dataclass
class RejectionStats:
    total_mtas: int
    spam: int
    blacklist: int
    invalid_recipient: int


def rejection_stats(result: ProbeCampaignResult) -> RejectionStats:
    spam: Set[str] = set()
    blacklist: Set[str] = set()
    invalid: Set[str] = set()
    for probe in result.results:
        word = probe.rejected_mentioning
        if word == "spam":
            spam.add(probe.mtaid)
        elif word == "blacklist":
            blacklist.add(probe.mtaid)
        if probe.invalid_recipient:
            invalid.add(probe.mtaid)
    return RejectionStats(
        total_mtas=len(result.probed),
        spam=len(spam),
        blacklist=len(blacklist - spam),
        invalid_recipient=len(invalid),
    )


@dataclass
class ConsistencyStats:
    """NotifyEmail vs NotifyMX validation overlap (Section 6.2)."""

    common_domains: int
    both_validating: int
    notify_only: int
    probe_only: int
    neither: int

    @property
    def inconsistent(self) -> int:
        return self.notify_only + self.probe_only


def consistency_stats(
    universe: Universe, analysis: NotifyAnalysis, probe_result: ProbeCampaignResult
) -> ConsistencyStats:
    probe_observed = probe_result.index.mtas_observed() & set(probe_result.probed)
    notify_validating = analysis.validating("spf")
    both = notify_only = probe_only = neither = common = 0
    for domain in universe.domains:
        hosts = [h for h in domain.mta_hosts if h.mtaid in probe_result.probed]
        if not hosts or domain.domainid not in analysis.observations:
            continue
        common += 1
        in_notify = domain.domainid in notify_validating
        in_probe = any(host.mtaid in probe_observed for host in hosts)
        if in_notify and in_probe:
            both += 1
        elif in_notify:
            notify_only += 1
        elif in_probe:
            probe_only += 1
        else:
            neither += 1
    return ConsistencyStats(common, both, notify_only, probe_only, neither)
