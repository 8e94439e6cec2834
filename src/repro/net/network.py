"""The virtual network: address registry, UDP exchanges, TCP channels.

The network knows which IP addresses exist, which ``(ip, port, protocol)``
endpoints have listeners, and how long packets take between addresses.  All
exchanges are synchronous function calls that thread virtual timestamps:

* UDP is a single request/response:  ``udp_request(...)``.
* TCP is a :class:`TcpChannel` carrying ordered request/response rounds,
  which is all that SMTP and DNS-over-TCP need.

Server-side listeners are either *handlers* (UDP) or *session factories*
(TCP):

UDP handler
    ``handler(payload, src_ip, transport, t_arrival) -> (reply_payload,
    processing_delay_seconds)``.  ``transport`` is ``"udp"`` or ``"tcp"`` so
    one handler can serve both (the DNS server truncates only over UDP).

TCP session factory
    ``factory(src_ip, t_accept) -> session`` where the session duck-type
    provides ``on_connect(t) -> bytes | None`` (greeting),
    ``on_data(data, t) -> (reply_bytes | None, processing_delay)`` and
    ``on_close(t) -> None``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.net.clock import Clock
from repro.net.errors import (
    ConnectionRefused,
    ConnectionResetByPeer,
    PacketLost,
    PortInUse,
    Unreachable,
)
from repro.net.faults import FaultKind, FaultPlan
from repro.net.latency import LatencyModel

UdpHandler = Callable[[bytes, str, str, float], Tuple[bytes, float]]

#: Well-known ports used throughout the package.
DNS_PORT = 53
SMTP_PORT = 25


def is_ipv6(address: str) -> bool:
    """True if ``address`` is textual IPv6 (contains a colon)."""
    return ":" in address


class Network:
    """A registry of hosts and listeners plus a latency model.

    Parameters
    ----------
    latency:
        The :class:`~repro.net.latency.LatencyModel` used for every path.
    clock:
        A shared :class:`~repro.net.clock.Clock`.  The network never
        advances it; it is held here purely as a convenient rendezvous for
        components that need "now" as a default timestamp.
    faults:
        Optional :class:`~repro.net.faults.FaultPlan` consulted for the
        transport-level kinds (``udp_loss``, ``udp_delay``,
        ``tcp_refuse``, ``tcp_reset``).  ``None`` — the default — is a
        guaranteed no-op.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        clock: Optional[Clock] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.latency = latency if latency is not None else LatencyModel()
        self.clock = clock if clock is not None else Clock()
        self.faults = faults
        self._addresses: Set[str] = set()
        self._udp: Dict[Tuple[str, int], UdpHandler] = {}
        self._tcp: Dict[Tuple[str, int], Callable[[str, float], object]] = {}

    # -- topology -----------------------------------------------------

    def add_address(self, address: str) -> None:
        """Declare that ``address`` exists (a host owns it)."""
        self._addresses.add(address)

    def listen_udp(self, address: str, port: int, handler: UdpHandler) -> None:
        """Bind a UDP request handler to ``(address, port)``."""
        key = (address, port)
        if key in self._udp:
            raise PortInUse("udp %s:%d already bound" % key)
        self.add_address(address)
        self._udp[key] = handler

    def listen_tcp(self, address: str, port: int, factory: Callable[[str, float], object]) -> None:
        """Bind a TCP session factory to ``(address, port)``."""
        key = (address, port)
        if key in self._tcp:
            raise PortInUse("tcp %s:%d already bound" % key)
        self.add_address(address)
        self._tcp[key] = factory

    def unlisten_udp(self, address: str, port: int) -> None:
        self._udp.pop((address, port), None)

    def unlisten_tcp(self, address: str, port: int) -> None:
        self._tcp.pop((address, port), None)

    # -- UDP ------------------------------------------------------------

    def udp_request(
        self,
        src_ip: str,
        dst_ip: str,
        port: int,
        payload: bytes,
        t_send: float,
    ) -> Tuple[bytes, float]:
        """Send one UDP datagram and wait for the single reply datagram.

        Returns ``(reply_payload, t_reply_arrival)``.  Raises
        :class:`Unreachable` if nobody owns ``dst_ip`` and
        :class:`ConnectionRefused` if the host owns it but has no listener
        (the real-world analogue is an ICMP port-unreachable).
        """
        handler = self._udp.get((dst_ip, port))
        rtt = self.latency.rtt(src_ip, dst_ip)
        if handler is None:
            if dst_ip in self._addresses:
                raise ConnectionRefused("udp %s:%d refused" % (dst_ip, port), t=t_send + rtt)
            raise Unreachable("no route to %s" % dst_ip, t=t_send + rtt)
        if self.faults is not None and self.faults.inject(
            FaultKind.UDP_LOSS, src_ip, dst_ip, t_send, port
        ):
            # Dropped before delivery: the listener never sees the
            # datagram, so server-side logs stay silent and the caller
            # hears nothing until its own timeout.
            raise PacketLost("udp %s -> %s:%d lost" % (src_ip, dst_ip, port))
        forward = self.latency.one_way_delay(src_ip, dst_ip)
        t_arrival = t_send + forward
        reply, delay = handler(payload, src_ip, "udp", t_arrival)
        t_reply = t_arrival + delay + self.latency.one_way_delay(dst_ip, src_ip)
        if self.faults is not None:
            rule = self.faults.inject(FaultKind.UDP_DELAY, src_ip, dst_ip, t_send, port)
            if rule is not None:
                t_reply += rule.param
        return reply, t_reply

    # -- TCP ------------------------------------------------------------

    def connect_tcp(self, src_ip: str, dst_ip: str, port: int, t_connect: float) -> "TcpChannel":
        """Open a TCP connection, completing the handshake in one RTT.

        Returns an established :class:`TcpChannel` whose ``t_established``
        reflects the SYN/SYN-ACK round trip plus delivery of any greeting
        the server emits on accept.
        """
        factory = self._tcp.get((dst_ip, port))
        rtt = self.latency.rtt(src_ip, dst_ip)
        if factory is None:
            if dst_ip in self._addresses:
                raise ConnectionRefused("tcp %s:%d refused" % (dst_ip, port), t=t_connect + rtt)
            raise Unreachable("no route to %s" % dst_ip, t=t_connect + rtt)
        if self.faults is not None and self.faults.inject(
            FaultKind.TCP_REFUSE, src_ip, dst_ip, t_connect, port
        ):
            # The SYN is answered with an RST: indistinguishable from an
            # organic refusal to the caller, one RTT later.
            raise ConnectionRefused(
                "tcp %s:%d refused (injected rst)" % (dst_ip, port), t=t_connect + rtt
            )
        t_accept = t_connect + self.latency.one_way_delay(src_ip, dst_ip)
        session = factory(src_ip, t_accept)
        accepted = session.on_connect(t_accept)
        if isinstance(accepted, tuple):
            # Sessions may return ``(greeting, delay)`` to hold the
            # greeting back (e.g. a delayed SMTP banner).
            greeting, greeting_delay = accepted
        else:
            greeting, greeting_delay = accepted, 0.0
        t_established = t_connect + rtt + greeting_delay
        return TcpChannel(self, src_ip, dst_ip, port, session, greeting, t_established)


class TcpChannel:
    """One established TCP connection, used in request/response rounds.

    The channel records the server greeting (bytes emitted at accept time,
    e.g. the SMTP ``220`` banner) and carries subsequent ``request`` rounds.
    """

    def __init__(
        self,
        network: Network,
        src_ip: str,
        dst_ip: str,
        port: int,
        session: object,
        greeting: Optional[bytes],
        t_established: float,
    ) -> None:
        self._network = network
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.port = port
        self._session = session
        self.greeting = greeting
        self.t_established = t_established
        self._open = True
        # Path delays are fixed per (src, dst), so look them up once.
        self._forward = network.latency.one_way_delay(src_ip, dst_ip)
        self._back = network.latency.one_way_delay(dst_ip, src_ip)

    @property
    def is_open(self) -> bool:
        return self._open

    def request(self, data: bytes, t_send: float) -> Tuple[Optional[bytes], float]:
        """Send ``data`` and return ``(reply_bytes, t_reply_arrival)``.

        ``reply_bytes`` is ``None`` when the server stays silent for this
        round (e.g. mid-DATA in SMTP, where lines are consumed without a
        per-line reply).
        """
        if not self._open:
            raise ConnectionRefused("channel is closed")
        forward = self._forward
        faults = self._network.faults
        if faults is not None and faults.inject(
            FaultKind.TCP_RESET, self.src_ip, self.dst_ip, t_send, self.port
        ):
            # Reset mid-conversation, before this round reaches the
            # server: the peer observes an abortive close, the caller an
            # RST one round trip after sending.
            self._open = False
            self._session.on_close(t_send + forward)
            raise ConnectionResetByPeer(
                "tcp %s -> %s:%d reset" % (self.src_ip, self.dst_ip, self.port),
                t=t_send + (forward + self._back),
            )
        t_arrival = t_send + forward
        reply, delay = self._session.on_data(data, t_arrival)
        t_reply = t_arrival + delay + self._back
        if reply is None:
            # The caller still observes time passing for the send itself.
            return None, t_arrival
        return reply, t_reply

    def close(self, t_close: float) -> None:
        """Close the connection (client-side FIN or abortive reset)."""
        if self._open:
            self._open = False
            t_fin = t_close + self._forward
            self._session.on_close(t_fin)
