"""Authoritative DNS server.

Serves one or more zones over the virtual network's UDP and TCP, applying
the classic 512-octet UDP ceiling (and optional forced truncation, used by
the ``tcp_only`` test policy).  Every query is appended to a query log —
this log *is* the paper's measurement instrument (Section 4.5): analyses
attribute entries back to MTAs and test policies via labels embedded in the
query names.

Subclasses may override :meth:`resolve` to synthesize answers instead of
serving stored zones; :class:`repro.core.synth.SynthesizingAuthority` does
exactly that.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.dns import wire
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import Rcode, RdataType
from repro.dns.zone import LookupStatus, Zone
from repro.net.faults import FaultKind, FaultPlan
from repro.net.network import DNS_PORT, Network, is_ipv6
from repro.obs import Observability, ensure_obs

# Constant metric-label tuples for the per-query hot path; rcodes are a
# small closed set, so those label tuples are memoized as they appear.
_UDP_QUERY_LABELS = (("transport", "udp"),)
_TCP_QUERY_LABELS = (("transport", "tcp"),)
_TRUNCATED_FORCED = (("reason", "forced"),)
_TRUNCATED_SIZE = (("reason", "size"),)
_TRUNCATED_INJECTED = (("reason", "injected"),)
_RCODE_LABELS: dict = {}


@dataclass(frozen=True)
class QueryLogEntry:
    """One observed query: the unit of measurement for the whole study."""

    timestamp: float
    qname: Name
    qtype: RdataType
    transport: str  # "udp" or "tcp"
    client_ip: str

    @property
    def over_ipv6(self) -> bool:
        return is_ipv6(self.client_ip)

    def __reduce__(self):
        # One flat tuple instead of a per-entry state dict.
        return QueryLogEntry, (self.timestamp, self.qname, self.qtype, self.transport, self.client_ip)


class AuthoritativeServer:
    """An authoritative-only server for a set of zones.

    Parameters
    ----------
    zones:
        Zones this server is authoritative for.
    response_delay:
        Optional callable ``(qname, qtype) -> seconds`` adding a
        server-side processing delay per query; the paper's test policies
        insert 100 ms / 800 ms delays this way.
    force_tcp_for:
        Optional predicate ``(qname) -> bool``; matching queries get a
        truncated (TC=1, empty) response over UDP regardless of size,
        forcing well-behaved resolvers to retry over TCP.
    faults:
        Optional :class:`~repro.net.faults.FaultPlan` consulted for the
        DNS-answer kinds (``truncate``, ``servfail``, ``refused``).
        Injection happens *after* the query is logged: both witnesses —
        the server's query log and the client's spans — agree the query
        arrived, only its answer was sabotaged.
    """

    def __init__(
        self,
        zones: Optional[List[Zone]] = None,
        response_delay: Optional[Callable[[Name, RdataType], float]] = None,
        force_tcp_for: Optional[Callable[[Name], bool]] = None,
        max_udp_payload: int = 1232,
        obs: Optional[Observability] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.zones: List[Zone] = list(zones) if zones else []
        self.response_delay = response_delay
        self.force_tcp_for = force_tcp_for
        self.faults = faults
        self.obs = ensure_obs(obs)
        #: The largest UDP response this server will emit to an EDNS
        #: client, regardless of what the client advertises (RFC 6891).
        self.max_udp_payload = max_udp_payload
        self.query_log: List[QueryLogEntry] = []

    # -- deployment ------------------------------------------------------

    def add_zone(self, zone: Zone) -> None:
        self.zones.append(zone)

    def attach(self, network: Network, *addresses: str, port: int = DNS_PORT) -> None:
        """Bind UDP and TCP listeners on every given address."""
        for address in addresses:
            network.listen_udp(address, port, self.udp_handler)
            network.listen_tcp(address, port, self._tcp_session_factory)

    # -- zone selection ----------------------------------------------------

    def zone_for(self, qname: Name) -> Optional[Zone]:
        """The most specific zone containing ``qname``, if any."""
        best: Optional[Zone] = None
        for zone in self.zones:
            if qname.is_subdomain_of(zone.origin):
                if best is None or len(zone.origin) > len(best.origin):
                    best = zone
        return best

    # -- query answering ---------------------------------------------------

    def resolve(self, query: Message, transport: str, client_ip: str, t_arrival: float) -> Message:
        """Produce the response message for ``query``.

        The default implementation answers from stored zones, following
        CNAME chains within the same server and attaching the zone SOA to
        the authority section of negative answers (RFC 2308 style).
        """
        response = query.make_response()
        qname, qtype = query.qname, query.qtype
        if qname is None or qtype is None:
            response.flags.rcode = Rcode.FORMERR
            return response
        zone = self.zone_for(qname)
        if zone is None:
            response.flags.rcode = Rcode.REFUSED
            return response
        response.flags.aa = True
        name = qname
        for _ in range(16):  # CNAME chain ceiling
            status, records = zone.lookup(name, qtype)
            if status is LookupStatus.SUCCESS:
                response.answer.extend(records)
                return response
            if status is LookupStatus.CNAME:
                response.answer.extend(records)
                target = records[0].rdata.target
                next_zone = self.zone_for(target)
                if next_zone is None:
                    return response
                zone, name = next_zone, target
                continue
            soa = zone.soa
            if soa is not None:
                response.authority.append(soa)
            if status is LookupStatus.NXDOMAIN:
                response.flags.rcode = Rcode.NXDOMAIN
            return response
        response.flags.rcode = Rcode.SERVFAIL
        return response

    def _handle(self, payload: bytes, client_ip: str, transport: str, t_arrival: float) -> Tuple[bytes, float]:
        try:
            query = wire.from_wire(payload)
        except wire.WireError:
            # Unparseable query: a real server answers FORMERR with id 0.
            error = Message()
            error.flags.qr = True
            error.flags.rcode = Rcode.FORMERR
            return wire.to_wire(error), 0.0
        qname, qtype = query.qname, query.qtype
        delay = 0.0
        metrics = self.obs.metrics
        if qname is not None and qtype is not None:
            self.query_log.append(QueryLogEntry(t_arrival, qname, qtype, transport, client_ip))
            metrics.counter(
                "dns_server_queries_total",
                _UDP_QUERY_LABELS if transport == "udp" else _TCP_QUERY_LABELS,
                t=t_arrival,
            )
            if self.response_delay is not None:
                delay = float(self.response_delay(qname, qtype))
        if (
            transport == "udp"
            and qname is not None
            and self.force_tcp_for is not None
            and self.force_tcp_for(qname)
        ):
            stub = query.make_response()
            stub.flags.tc = True
            metrics.counter("dns_server_truncated_total", _TRUNCATED_FORCED, t=t_arrival)
            return wire.to_wire(stub), delay
        response = None
        if self.faults is not None and qname is not None:
            qname_text = str(qname)
            if transport == "udp" and self.faults.inject(
                FaultKind.TRUNCATE, client_ip, qname_text, t_arrival
            ):
                stub = query.make_response()
                stub.flags.tc = True
                metrics.counter("dns_server_truncated_total", _TRUNCATED_INJECTED, t=t_arrival)
                return wire.to_wire(stub), delay
            if self.faults.inject(FaultKind.SERVFAIL, client_ip, qname_text, t_arrival):
                response = query.make_response()
                response.flags.rcode = Rcode.SERVFAIL
            elif self.faults.inject(FaultKind.REFUSED, client_ip, qname_text, t_arrival):
                response = query.make_response()
                response.flags.rcode = Rcode.REFUSED
        if response is None:
            response = self.resolve(query, transport, client_ip, t_arrival)
        rcode = response.rcode.name
        labels = _RCODE_LABELS.get(rcode)
        if labels is None:
            labels = _RCODE_LABELS[rcode] = (("rcode", rcode),)
        metrics.counter("dns_server_responses_total", labels, t=t_arrival)
        if transport == "udp":
            if query.edns_payload:
                limit = min(query.edns_payload, self.max_udp_payload)
                response.edns_payload = limit
            else:
                limit = wire.UDP_PAYLOAD_LIMIT
                response.edns_payload = None
            payload_out, truncated = wire.truncate_for_udp(response, limit=limit)
            if truncated:
                metrics.counter("dns_server_truncated_total", _TRUNCATED_SIZE, t=t_arrival)
            return payload_out, delay
        return wire.to_wire(response), delay

    # -- transport adapters ---------------------------------------------

    def udp_handler(self, payload: bytes, client_ip: str, transport: str, t_arrival: float) -> Tuple[bytes, float]:
        return self._handle(payload, client_ip, "udp", t_arrival)

    def _tcp_session_factory(self, client_ip: str, t_accept: float) -> "_DnsTcpSession":
        return _DnsTcpSession(self, client_ip)

    # -- log convenience -------------------------------------------------

    def queries_under(self, suffix: Union[str, Name]) -> List[QueryLogEntry]:
        """Query-log entries whose qname sits under ``suffix``."""
        suffix_name = Name(suffix)
        return [entry for entry in self.query_log if entry.qname.is_subdomain_of(suffix_name)]

    def clear_log(self) -> None:
        self.query_log.clear()


class _DnsTcpSession:
    """DNS-over-TCP framing: two-octet length prefix per message."""

    def __init__(self, server: AuthoritativeServer, client_ip: str) -> None:
        self._server = server
        self._client_ip = client_ip
        self._buffer = b""

    def on_connect(self, t: float) -> Optional[bytes]:
        return None

    def on_data(self, data: bytes, t: float) -> Tuple[Optional[bytes], float]:
        self._buffer += data
        replies = bytearray()
        total_delay = 0.0
        while len(self._buffer) >= 2:
            (length,) = struct.unpack("!H", self._buffer[:2])
            if len(self._buffer) < 2 + length:
                break
            frame = self._buffer[2 : 2 + length]
            self._buffer = self._buffer[2 + length :]
            reply, delay = self._server._handle(frame, self._client_ip, "tcp", t)
            total_delay += delay
            replies += struct.pack("!H", len(reply)) + reply
        if not replies:
            return None, 0.0
        return bytes(replies), total_delay

    def on_close(self, t: float) -> None:
        self._buffer = b""
