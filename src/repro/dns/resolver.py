"""Caching resolver.

Each simulated MTA owns a :class:`Resolver`, which plays the role of the
"recursive resolver" in the paper's Figure 1.  Recursion is abbreviated: a
shared :class:`AuthorityDirectory` maps zone origins to authoritative
server addresses (standing in for the delegation walk from the root), and
the resolver then performs real wire-format exchanges with those servers —
UDP first, retrying over TCP when the TC bit comes back, choosing IPv4 or
IPv6 transport according to its capabilities.

All timing is explicit: :meth:`Resolver.query_at` takes a start timestamp
and returns the completion timestamp alongside the answer, so callers can
model serial chains or parallel fans of lookups.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from repro.dns import wire
from repro.dns.cache import TtlCache
from repro.dns.message import Message
from repro.dns.name import Name, as_name
from repro.dns.rdata import Rcode, RdataType, ResourceRecord
from repro.net.errors import ConnectionResetByPeer, NetError, PacketLost
from repro.net.network import DNS_PORT, Network, is_ipv6
from repro.net.retry import NO_RETRY, RetryPolicy
from repro.obs import Observability, ensure_obs


class AnswerStatus(enum.Enum):
    """Resolver-level interpretation of a lookup outcome."""

    SUCCESS = "success"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    SERVFAIL = "servfail"
    TIMEOUT = "timeout"
    UNREACHABLE = "unreachable"

    @property
    def is_void(self) -> bool:
        """Void lookup in the RFC 7208 sense: name yields no records."""
        return self in (AnswerStatus.NODATA, AnswerStatus.NXDOMAIN)

    @property
    def is_error(self) -> bool:
        return self in (AnswerStatus.SERVFAIL, AnswerStatus.TIMEOUT, AnswerStatus.UNREACHABLE)


# Constant metric-label tuples for the per-query hot path; rdtype/status
# combinations form a small closed set, so they are memoized too.
_CACHE_HIT_LABELS = (("outcome", "hit"),)
_CACHE_MISS_LABELS = (("outcome", "miss"),)
_UDP_LABELS = (("transport", "udp"),)
_TCP_LABELS = (("transport", "tcp"),)


@lru_cache(maxsize=None)
def _query_labels(rdtype_name: str, status_value: str) -> tuple:
    return (("rdtype", rdtype_name), ("status", status_value))


@dataclass
class Answer:
    """The result of one resolution, with timing and transport metadata."""

    qname: Name
    rdtype: RdataType
    status: AnswerStatus
    records: List[ResourceRecord] = field(default_factory=list)
    rcode: Rcode = Rcode.NOERROR
    transport: str = "udp"
    server_ip: Optional[str] = None
    from_cache: bool = False
    negative_ttl: float = 300.0

    @property
    def min_ttl(self) -> float:
        if not self.records:
            return self.negative_ttl
        return min(rr.ttl for rr in self.records)

    def texts(self) -> List[str]:
        """Concatenated TXT strings of each TXT answer record."""
        return [rr.rdata.text for rr in self.records if rr.rdtype == RdataType.TXT]

    def addresses(self) -> List[str]:
        """A/AAAA addresses in the answer."""
        return [
            rr.rdata.address
            for rr in self.records
            if rr.rdtype in (RdataType.A, RdataType.AAAA)
        ]


@dataclass
class ResolverConfig:
    """Behavioural knobs of a resolver.

    ``tcp_fallback`` and ``ipv6_capable`` correspond directly to the
    resolver properties the paper probes in Section 7.3 (2 of 1,336
    resolvers failed TCP fallback; 49% of MTAs retrieved a policy over
    IPv6).
    """

    use_cache: bool = True
    timeout: float = 5.0
    tcp_fallback: bool = True
    ipv4_capable: bool = True
    ipv6_capable: bool = True
    prefer_ipv6: bool = False
    max_cname_chain: int = 8
    #: EDNS0 advertised UDP payload size; ``None`` disables EDNS and
    #: falls back to the classic 512-octet ceiling (RFC 6891).
    edns_payload: Optional[int] = 1232
    #: DNS 0x20 (draft-vixie-dnsext-dns0x20): randomise the query name's
    #: letter case and reject answers that fail to echo it — an
    #: anti-spoofing measure several large resolvers deploy.
    use_0x20: bool = False
    #: Per-server retry policy: how many times the same server is tried
    #: (with exponential virtual-time backoff between attempts) before
    #: the resolver fails over to the next candidate.  The default — one
    #: attempt, no backoff — matches historical behaviour exactly.  A
    #: ``retry.timeout`` overrides :attr:`timeout` per try.
    retry: RetryPolicy = NO_RETRY


class AuthorityDirectory:
    """Maps zone origins to authoritative server addresses.

    Stands in for the delegation hierarchy: the resolver asks for the most
    specific registered origin covering the query name and contacts those
    servers directly.
    """

    def __init__(self) -> None:
        self._origins: Dict[Tuple[str, ...], List[str]] = {}

    def register(self, origin: Union[str, Name], *addresses: str) -> None:
        if not addresses:
            raise ValueError("at least one server address is required")
        self._origins.setdefault(Name(origin).key, []).extend(addresses)

    def servers_for(self, qname: Name) -> List[str]:
        """Addresses for the most specific origin covering ``qname``.

        Walks the name's suffixes longest-first, so the cost is one dict
        probe per label rather than a scan of every registered origin.
        """
        key = qname.key
        for start in range(len(key) + 1):
            addresses = self._origins.get(key[start:])
            if addresses is not None:
                return list(addresses)
        return []


class Resolver:
    """A caching resolver bound to one or two source addresses."""

    def __init__(
        self,
        network: Network,
        directory: AuthorityDirectory,
        address4: Optional[str] = None,
        address6: Optional[str] = None,
        config: Optional[ResolverConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if address4 is None and address6 is None:
            raise ValueError("resolver needs at least one source address")
        self.network = network
        self.directory = directory
        self.address4 = address4
        self.address6 = address6
        self.config = config if config is not None else ResolverConfig()
        self.obs = ensure_obs(obs)
        self.cache: TtlCache[Answer] = TtlCache()
        self._next_id = 1
        for address in (address4, address6):
            if address is not None:
                network.add_address(address)

    # -- public API ------------------------------------------------------

    def query_at(self, qname: Union[str, Name], rdtype: RdataType, t_start: float) -> Tuple[Answer, float]:
        """Resolve ``qname``/``rdtype`` starting at ``t_start``.

        Returns ``(answer, t_done)``.  Never raises for resolution
        failures; inspect :attr:`Answer.status`.
        """
        name = as_name(qname)
        obs = self.obs
        # The qname attribute holds the Name itself; a span dump renders
        # it with str().
        with obs.tracer.span("dns.query", t_start, qname=name, rdtype=rdtype.name) as span:
            answer, t_done = self._query_at(name, rdtype, t_start)
            span.set(status=answer.status.value, transport=answer.transport, cached=answer.from_cache)
            span.end(t_done)
        obs.metrics.counter(
            "dns_client_queries_total", _query_labels(rdtype.name, answer.status.value), t=t_done
        )
        if answer.status.is_void:
            obs.metrics.counter("dns_client_void_lookups_total", t=t_done)
        obs.metrics.observe("dns_client_query_seconds", t_done - t_start, t=t_done)
        return answer, t_done

    def _query_at(self, name: Name, rdtype: RdataType, t_start: float) -> Tuple[Answer, float]:
        answer, t_done = self._resolve(name, rdtype, t_start)
        chain = 0
        # Chase cross-zone CNAMEs the authoritative server did not follow.
        while (
            answer.status is AnswerStatus.SUCCESS
            and rdtype != RdataType.CNAME
            and not any(rr.rdtype == rdtype for rr in answer.records)
            and any(rr.rdtype == RdataType.CNAME for rr in answer.records)
        ):
            chain += 1
            if chain > self.config.max_cname_chain:
                answer.status = AnswerStatus.SERVFAIL
                break
            cname = next(rr for rr in answer.records if rr.rdtype == RdataType.CNAME)
            target = cname.rdata.target
            follow, t_done = self._resolve(target, rdtype, t_done)
            merged = Answer(
                qname=name,
                rdtype=rdtype,
                status=follow.status,
                records=answer.records + follow.records,
                rcode=follow.rcode,
                transport=follow.transport,
                server_ip=follow.server_ip,
            )
            answer = merged
            if follow.status is not AnswerStatus.SUCCESS:
                break
        return answer, t_done

    def resolve_addresses(
        self, qname: Union[str, Name], t_start: float, want_ipv6: bool = True
    ) -> Tuple[List[str], float]:
        """Convenience: serial A then AAAA lookups, returning all addresses."""
        name = Name(qname)
        answer_a, t = self.query_at(name, RdataType.A, t_start)
        addresses = answer_a.addresses()
        if want_ipv6:
            answer_aaaa, t = self.query_at(name, RdataType.AAAA, t)
            addresses += answer_aaaa.addresses()
        return addresses, t

    # -- internals -----------------------------------------------------

    def _resolve(self, name: Name, rdtype: RdataType, t_start: float) -> Tuple[Answer, float]:
        if self.config.use_cache:
            cached = self.cache.get(name, rdtype, t_start)
            self.obs.metrics.counter(
                "dns_client_cache_events_total",
                _CACHE_HIT_LABELS if cached is not None else _CACHE_MISS_LABELS,
                t=t_start,
            )
            if cached is not None:
                hit = Answer(
                    qname=name,
                    rdtype=rdtype,
                    status=cached.status,
                    records=list(cached.records),
                    rcode=cached.rcode,
                    transport=cached.transport,
                    server_ip=cached.server_ip,
                    from_cache=True,
                )
                return hit, t_start

        servers = self.directory.servers_for(name)
        candidates = self._order_candidates(servers)
        if not candidates:
            answer = Answer(name, rdtype, AnswerStatus.UNREACHABLE, rcode=Rcode.SERVFAIL)
            return answer, t_start

        retry = self.config.retry
        t = t_start
        last_status = AnswerStatus.UNREACHABLE
        last_answer: Optional[Answer] = None
        give_up = False
        for src_ip, dst_ip in candidates:
            for attempt in range(1, retry.attempts + 1):
                t += retry.delay_before(attempt)
                answer, t_done, failure_status, retryable = self._exchange(
                    name, rdtype, src_ip, dst_ip, t
                )
                t = t_done
                if answer is not None and not answer.status.is_error:
                    if self.config.use_cache:
                        self.cache.put(name, rdtype, answer, answer.min_ttl, t_done)
                    return answer, t_done
                # Graceful degradation: error rcodes and wire-level
                # failures both feed failover (same server again per the
                # retry policy, then the next candidate) instead of
                # surfacing immediately.
                if answer is not None:
                    last_answer = answer
                    last_status = answer.status
                elif failure_status is not None:
                    last_status = failure_status
                if not retryable:
                    # The retry_next_server contract: a non-retryable
                    # failure (a server that answered, just too late or
                    # unusably) means trying elsewhere cannot help.
                    give_up = True
                    break
            if give_up:
                break
        if last_answer is not None:
            return last_answer, t
        failure = Answer(name, rdtype, last_status, rcode=Rcode.SERVFAIL)
        return failure, t

    def _order_candidates(self, servers: List[str]) -> List[Tuple[str, str]]:
        """(source, destination) pairs in the order they will be tried."""
        v4 = [s for s in servers if not is_ipv6(s)]
        v6 = [s for s in servers if is_ipv6(s)]
        pairs: List[Tuple[str, str]] = []
        families: List[Tuple[Optional[str], List[str]]] = []
        if self.config.prefer_ipv6:
            families = [(self.address6, v6), (self.address4, v4)]
        else:
            families = [(self.address4, v4), (self.address6, v6)]
        for src, dsts in families:
            if src is None:
                continue
            if src == self.address4 and not self.config.ipv4_capable:
                continue
            if src == self.address6 and not self.config.ipv6_capable:
                continue
            pairs.extend((src, dst) for dst in dsts)
        return pairs

    def _timeout(self) -> float:
        retry_timeout = self.config.retry.timeout
        return self.config.timeout if retry_timeout is None else retry_timeout

    def _exchange(
        self, name: Name, rdtype: RdataType, src_ip: str, dst_ip: str, t_send: float
    ) -> Tuple[Optional[Answer], float, Optional[AnswerStatus], bool]:
        """One UDP exchange (plus optional TCP retry) with one server.

        Returns ``(answer_or_None, t_done, failure_status,
        retry_next_server)``.  ``failure_status`` classifies answerless
        failures into the :class:`AnswerStatus` taxonomy (``None`` when
        an answer is present); ``retry_next_server`` is ``False`` when
        trying another server cannot help (the server *answered*, just
        too late or unusably), which per the contract stops the failover
        loop.
        """
        msg_id = self._take_id()
        wire_name = self._randomize_case(name) if self.config.use_0x20 else name
        query = Message.make_query(
            wire_name, rdtype, msg_id=msg_id, recursion_desired=False,
            edns_payload=self.config.edns_payload,
        )
        payload = wire.to_wire(query)
        timeout = self._timeout()
        obs = self.obs
        with obs.tracer.span(
            "dns.exchange", t_send, qname=wire_name, qtype=rdtype.name,
            transport="udp", client=src_ip, server=dst_ip,
        ) as span:
            try:
                reply_bytes, t_reply = self.network.udp_request(src_ip, dst_ip, DNS_PORT, payload, t_send)
            except PacketLost:
                # The datagram vanished; the caller only learns so by
                # waiting out its own timeout, and — unlike a late reply
                # from a live server — retrying is the right move.
                span.set(outcome="lost").end(t_send + timeout)
                return None, t_send + timeout, AnswerStatus.TIMEOUT, True
            except NetError:
                span.set(outcome="neterror").end(t_send)
                return None, t_send, AnswerStatus.UNREACHABLE, True
            obs.metrics.counter("dns_client_exchanges_total", _UDP_LABELS, t=t_reply)
            if t_reply - t_send > timeout:
                # The reply arrived after we gave up listening.
                span.set(outcome="timeout").end(t_send + timeout)
                return None, t_send + timeout, AnswerStatus.TIMEOUT, False
            try:
                reply = wire.from_wire(reply_bytes)
            except wire.WireError:
                span.set(outcome="badreply").end(t_reply)
                return None, t_reply, AnswerStatus.SERVFAIL, True
            if reply.msg_id != msg_id:
                span.set(outcome="mismatch").end(t_reply)
                return None, t_reply, AnswerStatus.SERVFAIL, True
            if self.config.use_0x20 and (
                not reply.question or reply.question[0].name.labels != wire_name.labels
            ):
                # The echoed question's case does not match what we sent —
                # exactly what 0x20 exists to catch.  Treat as a spoof attempt.
                span.set(outcome="0x20").end(t_reply)
                return None, t_reply, AnswerStatus.SERVFAIL, True
            if reply.flags.tc:
                if not self.config.tcp_fallback:
                    span.set(outcome="truncated", fallback=False).end(t_reply)
                    answer = Answer(
                        name, rdtype, AnswerStatus.SERVFAIL, rcode=Rcode.SERVFAIL, transport="udp", server_ip=dst_ip
                    )
                    return answer, t_reply, None, False
                span.set(outcome="truncated", fallback=True).end(t_reply)
                obs.metrics.counter("dns_client_tcp_fallbacks_total", t=t_reply)
                # Called inside the open span so the TCP retry nests as a
                # child of the truncated UDP exchange.
                return self._exchange_tcp(name, rdtype, src_ip, dst_ip, t_reply)
            span.set(outcome="ok").end(t_reply)
            return self._interpret(reply, name, rdtype, "udp", dst_ip), t_reply, None, True

    def _exchange_tcp(
        self, name: Name, rdtype: RdataType, src_ip: str, dst_ip: str, t_start: float
    ) -> Tuple[Optional[Answer], float, Optional[AnswerStatus], bool]:
        msg_id = self._take_id()
        query = Message.make_query(name, rdtype, msg_id=msg_id, recursion_desired=False)
        payload = wire.to_wire(query)
        framed = struct.pack("!H", len(payload)) + payload
        obs = self.obs
        with obs.tracer.span(
            "dns.exchange", t_start, qname=name, qtype=rdtype.name,
            transport="tcp", client=src_ip, server=dst_ip,
        ) as span:
            try:
                channel = self.network.connect_tcp(src_ip, dst_ip, DNS_PORT, t_start)
                reply_framed, t_reply = channel.request(framed, channel.t_established)
                channel.close(t_reply)
            except ConnectionResetByPeer as exc:
                t_reset = exc.t if exc.t is not None else t_start
                span.set(outcome="reset").end(t_reset)
                return None, t_reset, AnswerStatus.SERVFAIL, True
            except NetError:
                span.set(outcome="neterror").end(t_start)
                return None, t_start, AnswerStatus.UNREACHABLE, True
            obs.metrics.counter("dns_client_exchanges_total", _TCP_LABELS, t=t_reply)
            if reply_framed is None or len(reply_framed) < 2:
                span.set(outcome="badreply").end(t_reply)
                return None, t_reply, AnswerStatus.SERVFAIL, True
            (length,) = struct.unpack("!H", reply_framed[:2])
            try:
                reply = wire.from_wire(reply_framed[2 : 2 + length])
            except wire.WireError:
                span.set(outcome="badreply").end(t_reply)
                return None, t_reply, AnswerStatus.SERVFAIL, True
            span.set(outcome="ok").end(t_reply)
            return self._interpret(reply, name, rdtype, "tcp", dst_ip), t_reply, None, True

    def _interpret(self, reply: Message, name: Name, rdtype: RdataType, transport: str, server_ip: str) -> Answer:
        negative_ttl = 300.0
        if reply.authority:
            soa = reply.authority[0]
            if hasattr(soa.rdata, "minimum"):
                negative_ttl = float(min(soa.ttl, soa.rdata.minimum))
        if reply.rcode == Rcode.NXDOMAIN:
            status = AnswerStatus.NXDOMAIN
        elif reply.rcode != Rcode.NOERROR:
            status = AnswerStatus.SERVFAIL
        elif reply.answer:
            status = AnswerStatus.SUCCESS
        else:
            status = AnswerStatus.NODATA
        return Answer(
            qname=name,
            rdtype=rdtype,
            status=status,
            records=list(reply.answer),
            rcode=reply.rcode,
            transport=transport,
            server_ip=server_ip,
            negative_ttl=negative_ttl,
        )

    def _take_id(self) -> int:
        msg_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFF or 1
        return msg_id

    def _randomize_case(self, name: Name) -> Name:
        """DNS 0x20: flip each letter's case pseudo-randomly (but
        deterministically per resolver instance and query ordinal)."""
        import hashlib

        seed_material = "%s|%s|%d" % (self.address4 or "", str(name), self._next_id)
        digest = hashlib.md5(seed_material.encode("utf-8")).digest()
        bits = int.from_bytes(digest, "big")
        randomized = []
        position = 0
        for label in name.labels:
            characters = []
            for char in label:
                if char.isalpha():
                    characters.append(char.upper() if (bits >> position) & 1 else char.lower())
                    position += 1
                else:
                    characters.append(char)
            randomized.append("".join(characters))
        return Name(randomized)
