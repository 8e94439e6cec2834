"""SMTP client.

Used by the sending MTA (full delivery) and by the measurement probe
(which walks the envelope commands with long sleeps and then disconnects
before transmitting a message — the paper's no-delivery guarantee).

Every method takes and returns virtual timestamps, mirroring the rest of
the stack.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.net.errors import NetError
from repro.net.network import Network, SMTP_PORT, TcpChannel
from repro.net.retry import RetryPolicy
from repro.obs import Observability, ensure_obs
from repro.smtp.errors import SmtpClientError
from repro.smtp.message import EmailMessage
from repro.smtp.protocol import CRLF, Reply, dot_stuff


@lru_cache(maxsize=None)
def _command_labels(verb: str, code_class: int) -> tuple:
    # Verbs and reply classes form a tiny closed set; memoizing keeps the
    # per-command hot path from rebuilding the same label tuples.
    return (("command", verb), ("code_class", "%dxx" % code_class))


@lru_cache(maxsize=None)
def _verb_labels(verb: str) -> tuple:
    return (("command", verb),)


class SmtpClient:
    """A client-side SMTP conversation over one TCP connection."""

    def __init__(
        self, channel: TcpChannel, greeting: Reply, obs: Optional[Observability] = None
    ) -> None:
        self.channel = channel
        self.greeting = greeting
        self.obs = ensure_obs(obs)

    # -- connection -------------------------------------------------------

    @classmethod
    def connect(
        cls,
        network: Network,
        src_ip: str,
        dst_ip: str,
        t_connect: float,
        port: int = SMTP_PORT,
        obs: Optional[Observability] = None,
        retry: Optional[RetryPolicy] = None,
        banner_timeout: Optional[float] = None,
    ) -> Tuple["SmtpClient", float]:
        """Open a connection; returns the client and the time the banner
        finished arriving.  Raises :class:`SmtpClientError` when the server
        refuses the connection or greets with a failure code.

        ``retry`` re-dials per its attempts/backoff schedule (in virtual
        time) before giving up; ``banner_timeout`` bounds how long the
        client waits for the 220 banner — a banner that would arrive
        later (or never) is a ``nobanner`` failure at
        ``t_connect + banner_timeout``.  Both default to the historical
        single-attempt, wait-forever behaviour.
        """
        obs = ensure_obs(obs)
        attempts = retry.attempts if retry is not None else 1
        t = t_connect
        for attempt in range(1, attempts + 1):
            if retry is not None:
                t += retry.delay_before(attempt)
            try:
                return cls._connect_once(network, src_ip, dst_ip, t, port, obs, banner_timeout)
            except SmtpClientError as exc:
                if attempt == attempts:
                    raise
                if exc.t is not None:
                    t = exc.t
        raise AssertionError("unreachable")  # pragma: no cover

    @classmethod
    def _connect_once(
        cls,
        network: Network,
        src_ip: str,
        dst_ip: str,
        t_connect: float,
        port: int,
        obs: Observability,
        banner_timeout: Optional[float],
    ) -> Tuple["SmtpClient", float]:
        metrics = obs.metrics
        try:
            channel = network.connect_tcp(src_ip, dst_ip, port, t_connect)
        except NetError as exc:
            # Stamp every outcome with the time it was *known*: for a
            # refusal that is the RST arrival the network reported, not
            # the dial time.
            t_refused = exc.t if exc.t is not None else t_connect
            metrics.counter("smtp_client_connects_total", (("outcome", "refused"),), t=t_refused)
            raise SmtpClientError("connect failed: %s" % exc, t=t_refused) from exc
        banner_deadline = None
        if banner_timeout is not None:
            banner_deadline = t_connect + banner_timeout
        if channel.greeting is None or (
            banner_deadline is not None and channel.t_established > banner_deadline
        ):
            # Either the server never sends a banner or it would arrive
            # after we stopped listening; both are known only once the
            # client has waited out its deadline (with no deadline, once
            # the silent accept completed).
            t_nobanner = banner_deadline if banner_deadline is not None else channel.t_established
            channel.close(t_nobanner)
            metrics.counter("smtp_client_connects_total", (("outcome", "nobanner"),), t=t_nobanner)
            raise SmtpClientError("no SMTP banner", t=t_nobanner)
        greeting = Reply.from_bytes(channel.greeting)
        client = cls(channel, greeting, obs=obs)
        if not greeting.is_success:
            metrics.counter(
                "smtp_client_connects_total", (("outcome", "unfriendly"),), t=channel.t_established
            )
            raise SmtpClientError(
                "unfriendly banner: %s" % greeting.text, greeting, t=channel.t_established
            )
        metrics.counter("smtp_client_connects_total", (("outcome", "ok"),), t=channel.t_established)
        return client, channel.t_established

    # -- command rounds -----------------------------------------------------

    def command(
        self, line: str, t_send: float, verb: Optional[str] = None
    ) -> Tuple[Reply, float]:
        """Send one command line and parse the reply.

        ``verb`` is the line's upper-cased first word, the span and
        metric label; the command helpers pass the one they already
        know, and it is derived from ``line`` when omitted.
        """
        if verb is None:
            verb = line.split(None, 1)[0].upper() if line else ""
        obs = self.obs
        with obs.tracer.span("smtp.command", t_send, command=verb) as span:
            data = (line + CRLF).encode("utf-8")
            try:
                raw, t_reply = self.channel.request(data, t_send)
            except NetError as exc:
                t_lost = exc.t if exc.t is not None else t_send
                span.set(error=str(exc)).end(t_lost)
                raise SmtpClientError(
                    "connection lost after %r: %s" % (line, exc), t=t_lost
                ) from exc
            if raw is None:
                raise SmtpClientError("server closed or stayed silent after %r" % line, t=t_reply)
            reply = Reply.from_bytes(raw)
            span.attrs["code"] = reply.code
            span.end(t_reply)
        obs.metrics.counter(
            "smtp_client_commands_total", _command_labels(verb, reply.code // 100), t=t_reply
        )
        obs.metrics.observe(
            "smtp_client_command_seconds", t_reply - t_send, _verb_labels(verb), t=t_reply
        )
        return reply, t_reply

    def ehlo(self, domain: str, t: float) -> Tuple[Reply, float]:
        return self.command("EHLO %s" % domain, t, "EHLO")

    def helo(self, domain: str, t: float) -> Tuple[Reply, float]:
        return self.command("HELO %s" % domain, t, "HELO")

    def ehlo_or_helo(self, domain: str, t: float) -> Tuple[Reply, float]:
        """EHLO, falling back to HELO on a 5xx, as the paper's probe does."""
        reply, t = self.ehlo(domain, t)
        if reply.is_permanent_failure:
            reply, t = self.helo(domain, t)
        return reply, t

    def mail(self, sender: Optional[str], t: float) -> Tuple[Reply, float]:
        path = "<%s>" % sender if sender else "<>"
        return self.command("MAIL FROM:%s" % path, t, "MAIL")

    def rcpt(self, recipient: str, t: float) -> Tuple[Reply, float]:
        return self.command("RCPT TO:<%s>" % recipient, t, "RCPT")

    def data_command(self, t: float) -> Tuple[Reply, float]:
        return self.command("DATA", t, "DATA")

    def send_message(self, message: EmailMessage, t: float) -> Tuple[Reply, float]:
        """Transmit message content and the terminating dot; expects the
        server's final disposition reply."""
        body = dot_stuff(message.to_text())
        data = (body + CRLF + "." + CRLF).encode("utf-8")
        obs = self.obs
        with obs.tracer.span("smtp.command", t, command="MESSAGE", bytes=len(data)) as span:
            try:
                raw, t_reply = self.channel.request(data, t)
            except NetError as exc:
                t_lost = exc.t if exc.t is not None else t
                span.set(error=str(exc)).end(t_lost)
                raise SmtpClientError("connection lost mid-message: %s" % exc, t=t_lost) from exc
            if raw is None:
                raise SmtpClientError("no reply to message data", t=t_reply)
            reply = Reply.from_bytes(raw)
            span.attrs["code"] = reply.code
            span.end(t_reply)
        obs.metrics.counter(
            "smtp_client_commands_total", _command_labels("MESSAGE", reply.code // 100), t=t_reply
        )
        obs.metrics.observe(
            "smtp_client_command_seconds", t_reply - t, _verb_labels("MESSAGE"), t=t_reply
        )
        return reply, t_reply

    def quit(self, t: float) -> Tuple[Reply, float]:
        reply, t_done = self.command("QUIT", t, "QUIT")
        self.channel.close(t_done)
        return reply, t_done

    def abort(self, t: float) -> None:
        """Disconnect without QUIT — the probe's no-delivery escape hatch."""
        self.channel.close(t)
