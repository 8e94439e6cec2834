"""Per-test-policy behaviour classification (paper Sections 6-7).

Everything here consumes ONLY the attributed DNS query log — the same
evidence the paper had.  Each classifier answers one of the paper's
questions about one MTA, given the queries that MTA's validation of one
test policy induced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.querylog import AttributedQuery
from repro.dns.rdata import RdataType

from repro.core.policies import t02_query_order

#: t02 serial query order: name -> 1-based index (see policies.t02).
T02_ORDER: Dict[str, int] = t02_query_order()

#: Per-query server delay in the t02 policy (seconds).
T02_DELAY = 0.8


def _first_time(
    queries: List[AttributedQuery], head: str, qtype: Optional[RdataType] = None
) -> Optional[float]:
    """Earliest arrival time of a query with the given first sublabel."""
    times = [
        q.timestamp
        for q in queries
        if q.head == head and (qtype is None or q.qtype == qtype)
    ]
    return min(times) if times else None


def spf_validated(queries: List[AttributedQuery]) -> bool:
    """The paper's SPF-validating test: at least one policy-related query."""
    return any(q.qtype == RdataType.TXT and q.head == "" for q in queries)


@dataclass
class SerialParallelObservation:
    """t01: did the A query beat the L3 TXT query?"""

    mtaid: str
    saw_l3: bool
    saw_a: bool
    parallel: Optional[bool]  # None when undecidable


def classify_serial_parallel(mtaid: str, queries: List[AttributedQuery]) -> SerialParallelObservation:
    t_l3 = _first_time(queries, head="l3", qtype=RdataType.TXT)
    t_a = min(
        (q.timestamp for q in queries if q.head == "foo" and q.qtype in (RdataType.A, RdataType.AAAA)),
        default=None,
    )
    parallel: Optional[bool] = None
    if t_l3 is not None and t_a is not None:
        parallel = t_a < t_l3
    elif t_a is not None and t_l3 is None:
        # The A arrived but L3 never did: lookups were clearly not serial
        # (a serial validator reaches 'foo' only after finishing the chain).
        parallel = True
    return SerialParallelObservation(mtaid, t_l3 is not None, t_a is not None, parallel)


@dataclass
class LookupLimitObservation:
    """t02: how far into the 46-lookup tree did the validator go?"""

    mtaid: str
    queries_issued: int  # post-base queries, from the last name observed
    elapsed_lower_bound: float

    @property
    def halted_within_limit(self) -> bool:
        return self.queries_issued <= 10

    @property
    def ran_everything(self) -> bool:
        return self.queries_issued >= 46


def classify_lookup_limit(mtaid: str, queries: List[AttributedQuery]) -> Optional[LookupLimitObservation]:
    indexes = [T02_ORDER[q.head] for q in queries if q.head in T02_ORDER]
    if not indexes and not spf_validated(queries):
        return None
    last = max(indexes) if indexes else 0
    return LookupLimitObservation(
        mtaid=mtaid,
        queries_issued=last,
        elapsed_lower_bound=max(0, last - 1) * T02_DELAY,
    )


@dataclass
class HeloObservation:
    """t03: was the HELO identity's policy consulted?"""

    mtaid: str
    checked_helo: bool
    proceeded_to_mail_domain: bool


def classify_helo(mtaid: str, queries: List[AttributedQuery]) -> HeloObservation:
    checked = any(q.head == "h" and q.qtype == RdataType.TXT for q in queries)
    proceeded = spf_validated(queries)
    return HeloObservation(mtaid, checked, proceeded)


def continued_past_error(queries: List[AttributedQuery], marker: str = "after") -> bool:
    """t04/t05/t30: a lookup for the term right of the error is the tell."""
    return any(q.head == marker for q in queries)


def count_void_targets(queries: List[AttributedQuery], prefix: str = "v", total: int = 5) -> int:
    """t06: how many of the five non-resolving names were queried."""
    names = {"%s%d" % (prefix, index) for index in range(1, total + 1)}
    seen: Set[str] = {q.head for q in queries if q.head in names}
    return len(seen)


def did_mx_fallback(queries: List[AttributedQuery]) -> Optional[bool]:
    """t07: None if the MTA never did the MX lookup; True if it then also
    issued the forbidden A/AAAA query for the same name."""
    did_mx = any(q.head == "nomx" and q.qtype == RdataType.MX for q in queries)
    if not did_mx:
        return None
    return any(q.head == "nomx" and q.qtype in (RdataType.A, RdataType.AAAA) for q in queries)


@dataclass
class MultipleRecordsObservation:
    """t08: neither / one / both of the two policies followed."""

    mtaid: str
    followed: Tuple[bool, bool]

    @property
    def category(self) -> str:
        count = sum(self.followed)
        return {0: "neither", 1: "one", 2: "both"}[count]


def classify_multiple_records(mtaid: str, queries: List[AttributedQuery]) -> MultipleRecordsObservation:
    pol1 = any(q.head == "pol1" for q in queries)
    pol2 = any(q.head == "pol2" for q in queries)
    return MultipleRecordsObservation(mtaid, (pol1, pol2))


@dataclass
class TcpFallbackObservation:
    """t09: UDP attempt seen; was a TCP retry seen too?"""

    mtaid: str
    tried_udp: bool
    retried_tcp: bool


def classify_tcp_fallback(mtaid: str, queries: List[AttributedQuery]) -> TcpFallbackObservation:
    udp = any(q.head == "l1tcp" and q.transport == "udp" for q in queries)
    tcp = any(q.head == "l1tcp" and q.transport == "tcp" for q in queries)
    return TcpFallbackObservation(mtaid, udp, tcp)


def retrieved_over_ipv6(queries: List[AttributedQuery]) -> Optional[bool]:
    """t10: did the validator retrieve the IPv6-only child policy?

    ``None`` when the MTA did not validate this policy at all.
    """
    if not spf_validated([q for q in queries if q.experiment == "probe"]):
        return None
    return any(q.experiment == "v6" for q in queries)


def count_mx_address_lookups(queries: List[AttributedQuery]) -> Optional[int]:
    """t11: how many of the 20 exchange hosts were address-resolved."""
    did_mx = any(q.head == "many" and q.qtype == RdataType.MX for q in queries)
    if not did_mx:
        return None
    hosts = {q.head for q in queries if q.head.startswith("h") and len(q.head) == 3}
    return len(hosts)


def fetched_explanation(queries: List[AttributedQuery]) -> bool:
    """t22: was the exp= TXT fetched?"""
    return any(q.head == "why" and q.qtype == RdataType.TXT for q in queries)


def followed_redirect_after_all(queries: List[AttributedQuery]) -> bool:
    """t32: querying the redirect target despite a terminal 'all'."""
    return any(q.head == "r" for q in queries)


def expanded_ip_macro(queries: List[AttributedQuery]) -> bool:
    """t20: an A query under the 'e' subtree proves macro expansion."""
    return any(len(q.sub) >= 2 and q.sub[-1] == "e" for q in queries)


# -- NotifyEmail-specific classification ------------------------------------


@dataclass
class NotifyValidation:
    """Which mechanisms a NotifyEmail domain exercised (Table 4 basis)."""

    domainid: str
    spf: bool = False
    spf_completed: bool = False  # also resolved the 'a' target (s6.1)
    dkim: bool = False
    dmarc: bool = False

    @property
    def combo(self) -> Tuple[bool, bool, bool]:
        return (self.spf, self.dkim, self.dmarc)

    @property
    def partial_spf(self) -> bool:
        """Fetched the policy but never finished evaluating it."""
        return self.spf and not self.spf_completed


def classify_notify_domain(domainid: str, queries: List[AttributedQuery]) -> NotifyValidation:
    observation = NotifyValidation(domainid)
    for query in queries:
        if query.testid != "notify":
            continue
        if query.sub == () and query.qtype == RdataType.TXT:
            observation.spf = True
        elif query.sub == ("mta",) and query.qtype in (RdataType.A, RdataType.AAAA):
            observation.spf_completed = True
        elif query.sub and query.sub[0].startswith("l") and query.qtype == RdataType.TXT:
            observation.spf = True
        elif query.sub == ("sel", "_domainkey"):
            observation.dkim = True
        elif query.sub == ("_dmarc",):
            observation.dmarc = True
    return observation


def first_spf_lookup_time(queries: List[AttributedQuery]) -> Optional[float]:
    """Earliest base-policy TXT query (for the Figure 2 analysis)."""
    times = [q.timestamp for q in queries if q.sub == () and q.qtype == RdataType.TXT]
    return min(times) if times else None
