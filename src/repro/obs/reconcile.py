"""Span-vs-querylog reconciliation: two witnesses, one truth.

The harness observes every DNS query twice, from opposite ends:

* **server side** — the synthesizing authority's query log, attributed
  to ``(mtaid, testid)`` pairs by :mod:`repro.core.querylog` (this is
  the paper's measurement instrument);
* **client side** — the ``dns.exchange`` spans every instrumented
  :class:`~repro.dns.resolver.Resolver` emits, one per wire exchange
  actually sent (cache hits emit none; a UDP exchange and its TCP
  truncation retry are two).

:func:`reconcile_spans` rebuilds a query log from the client-side spans,
runs it through the *same* attribution code, and diffs the per-pair
counts against a server-side :class:`~repro.core.querylog.QueryIndex`.
Any disagreement means an instrumentation layer, the network, or the
attribution logic is lying about what happened — exactly the class of
harness bug no analysis downstream could detect on its own.  Exchanges
whose datagram never reached a server (``outcome=neterror``, or the
injected-fault outcomes ``lost`` / ``reset``) are excluded: the server
cannot have logged them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.querylog import QueryIndex, attribute_queries_with_stats
from repro.core.synth import SynthConfig
from repro.dns.name import as_name
from repro.dns.rdata import RdataType
from repro.dns.server import QueryLogEntry
from repro.obs.spans import Span

Pair = Tuple[str, str]


@dataclass
class ReconcileResult:
    """The per-(mtaid, testid) count diff between spans and index."""

    span_counts: Dict[Pair, int] = field(default_factory=dict)
    index_counts: Dict[Pair, int] = field(default_factory=dict)
    #: Exchanges excluded because the wire never reached a server.
    spans_unsent: int = 0
    #: Client-side exchanges outside every measurement suffix (MX/A
    #: lookups against the universe zone, mostly).
    spans_foreign: int = 0

    @property
    def mismatches(self) -> List[Tuple[Pair, int, int]]:
        """``(pair, span_count, index_count)`` wherever the two differ."""
        out = []
        for pair in sorted(set(self.span_counts) | set(self.index_counts)):
            spans = self.span_counts.get(pair, 0)
            index = self.index_counts.get(pair, 0)
            if spans != index:
                out.append((pair, spans, index))
        return out

    @property
    def matched(self) -> bool:
        return not self.mismatches

    def render_text(self) -> str:
        lines = [
            "reconcile: %d attributed exchanges in spans, %d in query log"
            % (sum(self.span_counts.values()), sum(self.index_counts.values())),
            "  pairs: %d span-side, %d log-side; foreign client exchanges: %d; unsent: %d"
            % (len(self.span_counts), len(self.index_counts), self.spans_foreign, self.spans_unsent),
        ]
        if self.matched:
            lines.append("  OK: span-derived counts equal attributed query-log counts for every pair")
        else:
            lines.append("  MISMATCH in %d pair(s):" % len(self.mismatches))
            for (mtaid, testid), spans, index in self.mismatches[:20]:
                lines.append("    (%s, %s): %d exchange span(s) vs %d logged query(ies)"
                             % (mtaid, testid, spans, index))
        return "\n".join(lines)


def entries_from_spans(spans: Iterable[Span]) -> Tuple[List[QueryLogEntry], int]:
    """Rebuild a query log from ``dns.exchange`` spans.

    Returns ``(entries, unsent)`` where ``unsent`` counts exchanges the
    network refused before any server saw them.  A span's ``qname`` is a
    :class:`~repro.dns.name.Name` on live spans and its text on spans
    read back from a dump; both are accepted.
    """
    entries: List[QueryLogEntry] = []
    unsent = 0
    for span in spans:
        if span.name != "dns.exchange":
            continue
        if span.attrs.get("outcome") in ("neterror", "lost", "reset"):
            # The server never saw these: nothing was sent, the datagram
            # was dropped in flight, or the connection died before the
            # query crossed the wire.
            unsent += 1
            continue
        entries.append(
            QueryLogEntry(
                timestamp=span.t_start,
                qname=as_name(span.attrs["qname"]),
                qtype=RdataType[str(span.attrs["qtype"])],
                transport=str(span.attrs["transport"]),
                client_ip=str(span.attrs["client"]),
            )
        )
    return entries, unsent


def reconcile_spans(
    spans: Iterable[Span],
    index: QueryIndex,
    config: Optional[SynthConfig] = None,
) -> ReconcileResult:
    """Diff client-side exchange spans against a server-side index."""
    entries, unsent = entries_from_spans(spans)
    attributed, stats = attribute_queries_with_stats(entries, config)
    result = ReconcileResult(spans_unsent=unsent, spans_foreign=stats.dropped_foreign)
    for query in attributed:
        pair = (query.mtaid, query.testid)
        result.span_counts[pair] = result.span_counts.get(pair, 0) + 1
    for pair in index.pairs():
        result.index_counts[pair] = len(index.for_pair(*pair))
    return result
