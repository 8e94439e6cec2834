"""Query attribution (paper Sections 4.4 and 4.5).

Every query name the synthesizing server sees embeds the identifiers of
the MTA (or domain) and test policy that induced it, so a single flat
query log can be attributed back to ``(mtaid, testid)`` pairs even when
thousands of MTAs validate concurrently.  :func:`attribute_queries` does
the decomposition; :class:`QueryIndex` provides the groupings every
analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclasses_field
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Set, Tuple

from repro.core.synth import SynthConfig
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.server import QueryLogEntry


@dataclass(frozen=True)
class AttributedQuery:
    """One observed query, decomposed."""

    entry: QueryLogEntry
    experiment: str  # "probe" | "v6" | "notify"
    mtaid: str  # domainid for the notify experiment
    testid: str  # "notify" for the notify experiment
    sub: Tuple[str, ...]

    @property
    def timestamp(self) -> float:
        return self.entry.timestamp

    @property
    def qtype(self) -> RdataType:
        return self.entry.qtype

    @property
    def transport(self) -> str:
        return self.entry.transport

    @property
    def over_ipv6(self) -> bool:
        return self.entry.over_ipv6

    @property
    def head(self) -> str:
        """First sublabel ('' for the base/L0 name)."""
        return self.sub[0] if self.sub else ""

    def __reduce__(self):
        # One flat tuple per query (the entry's fields inlined): workers
        # ship thousands of these, and the default per-object state
        # dicts cost the coordinator an allocation each on load.
        entry = self.entry
        return _attributed_query, (
            entry.timestamp, entry.qname, entry.qtype, entry.transport, entry.client_ip,
            self.experiment, self.mtaid, self.testid, self.sub,
        )


def _attributed_query(timestamp, qname, qtype, transport, client_ip, experiment, mtaid, testid, sub):
    entry = QueryLogEntry(timestamp, qname, qtype, transport, client_ip)
    return AttributedQuery(entry, experiment, mtaid, testid, sub)


#: Sort key of attributed queries: virtual time.
_by_time = attrgetter("entry.timestamp")


@dataclass
class AttributionStats:
    """Per-reason accounting of :func:`attribute_queries` drops.

    Operators (and :mod:`repro.lint.tracecheck`) need to distinguish "no
    traffic" from "unattributable traffic": a silent drop of in-suffix
    queries would skew every analysis downstream of the query log.
    """

    total: int = 0
    attributed: int = 0
    #: experiment -> attributed count ("probe" | "v6" | "notify").
    by_experiment: Dict[str, int] = dataclasses_field(default_factory=dict)
    #: Entries whose qname is under none of the measurement suffixes.
    dropped_foreign: int = 0
    #: In-suffix entries with too few labels to carry (mtaid, testid).
    dropped_short: int = 0
    #: The dropped in-suffix entries themselves, for post-mortems.
    short_entries: List[QueryLogEntry] = dataclasses_field(default_factory=list)

    @property
    def dropped(self) -> int:
        return self.dropped_foreign + self.dropped_short

    @classmethod
    def merged(cls, parts: Iterable["AttributionStats"]) -> "AttributionStats":
        """The stats of one attribution over the union of the parts'
        logs: the counts add up, and the short entries come in timestamp
        order (stable across the parts, in the order given), as
        attributing the timestamp-sorted union lists them."""
        merged = cls()
        for part in parts:
            merged.total += part.total
            merged.attributed += part.attributed
            merged.dropped_foreign += part.dropped_foreign
            merged.dropped_short += part.dropped_short
            merged.short_entries.extend(part.short_entries)
            for experiment, count in part.by_experiment.items():
                merged.by_experiment[experiment] = merged.by_experiment.get(experiment, 0) + count
        merged.short_entries.sort(key=attrgetter("timestamp"))
        return merged


def attribute_queries_with_stats(
    entries: Iterable[QueryLogEntry], config: Optional[SynthConfig] = None
) -> Tuple[List[AttributedQuery], AttributionStats]:
    """Attribute raw log entries, accounting for every drop by reason."""
    if config is None:
        config = SynthConfig()
    probe_suffix = Name(config.probe_suffix)
    v6_suffix = Name(config.v6_suffix)
    notify_suffix = Name(config.notify_suffix)
    attributed: List[AttributedQuery] = []
    stats = AttributionStats()
    for entry in entries:
        stats.total += 1
        qname = entry.qname
        if qname.is_subdomain_of(probe_suffix):
            experiment, suffix = "probe", probe_suffix
        elif qname.is_subdomain_of(v6_suffix):
            experiment, suffix = "v6", v6_suffix
        elif qname.is_subdomain_of(notify_suffix):
            experiment, suffix = "notify", notify_suffix
        else:
            stats.dropped_foreign += 1
            continue
        relative = tuple(label.lower() for label in qname.relativize(suffix))
        if experiment == "notify":
            if not relative:
                stats.dropped_short += 1
                stats.short_entries.append(entry)
                continue
            query = AttributedQuery(entry, experiment, relative[-1], "notify", relative[:-1])
        else:
            if len(relative) < 2:
                stats.dropped_short += 1
                stats.short_entries.append(entry)
                continue
            query = AttributedQuery(entry, experiment, relative[-1], relative[-2], relative[:-2])
        attributed.append(query)
        stats.attributed += 1
        stats.by_experiment[experiment] = stats.by_experiment.get(experiment, 0) + 1
    return attributed, stats


def attribute_queries(
    entries: Iterable[QueryLogEntry], config: Optional[SynthConfig] = None
) -> List[AttributedQuery]:
    """Attribute raw log entries; unparseable names are dropped."""
    attributed, _ = attribute_queries_with_stats(entries, config)
    return attributed


class AttributedLog(Protocol):
    """One attribution's output: its queries in timestamp order, and its
    accounting."""

    queries: List[AttributedQuery]
    stats: Optional[AttributionStats]


class QueryIndex:
    """Groupings of attributed queries used by the analyses.

    ``stats`` accounts for the attribution that produced the queries,
    when the index came from one (None for an index loaded from a trace).
    """

    def __init__(
        self, queries: Iterable[AttributedQuery], stats: Optional[AttributionStats] = None
    ) -> None:
        self.queries: List[AttributedQuery] = sorted(queries, key=_by_time)
        self.stats = stats
        self._by_pair: Dict[Tuple[str, str], List[AttributedQuery]] = {}
        self._by_mta: Dict[str, List[AttributedQuery]] = {}
        # Precomputed id cross-maps: mtas_observed/tests_with_activity are
        # called per-MTA and per-testid by the analyses, so O(#pairs) scans
        # there turn the whole classification pass quadratic.
        self._mtas_by_test: Dict[str, Set[str]] = {}
        self._tests_by_mta: Dict[str, Set[str]] = {}
        for query in self.queries:
            self._by_pair.setdefault((query.mtaid, query.testid), []).append(query)
            self._by_mta.setdefault(query.mtaid, []).append(query)
            self._mtas_by_test.setdefault(query.testid, set()).add(query.mtaid)
            self._tests_by_mta.setdefault(query.mtaid, set()).add(query.testid)

    @classmethod
    def merge(cls, indexes: Sequence["AttributedLog"]) -> "QueryIndex":
        """One index over the union of ``indexes``' queries, with their
        stats merged (None unless every input has stats).  An input is
        an index or anything else holding time-sorted ``queries`` and
        their ``stats``, such as a shard worker's result.

        Attribution is pure per entry, so this equals attributing the
        timestamp-sorted union of the inputs' logs once: shard workers
        and the serial path produce identical indexes because attributed
        queries carry absolute virtual timestamps.  Each input is already
        time-sorted (the constructor's invariant), so the stable sort of
        their concatenation is a run merge, and equal timestamps keep
        the inputs' order.
        """
        stats = [index.stats for index in indexes]
        merged_stats = None
        if all(part is not None for part in stats):
            merged_stats = AttributionStats.merged(stats)
        return cls(chain.from_iterable(index.queries for index in indexes), merged_stats)

    def for_pair(self, mtaid: str, testid: str) -> List[AttributedQuery]:
        """Queries induced by one (MTA, test policy) pair, time-ordered."""
        return self._by_pair.get((mtaid, testid), [])

    def for_mta(self, mtaid: str) -> List[AttributedQuery]:
        return self._by_mta.get(mtaid, [])

    def pairs(self) -> List[Tuple[str, str]]:
        """Every ``(mtaid, testid)`` pair with at least one query."""
        return list(self._by_pair)

    def mtas_observed(self, testid: Optional[str] = None) -> Set[str]:
        """MTA ids with at least one attributable query (optionally for a
        single test policy) — the paper's definition of SPF-validating."""
        if testid is None:
            return set(self._by_mta)
        return set(self._mtas_by_test.get(testid, set()))

    def tests_with_activity(self, mtaid: str) -> Set[str]:
        return set(self._tests_by_mta.get(mtaid, set()))

    def __len__(self) -> int:
        return len(self.queries)
