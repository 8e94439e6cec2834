"""Server-side SMTP session state machine.

:class:`SmtpSession` implements the virtual network's TCP-session
duck-type and the RFC 5321 command sequence.  Receiving MTAs subclass it
and override the ``on_*`` hooks; each hook returns ``(Reply,
processing_delay_seconds)``, where the delay models server-side work such
as a synchronous SPF validation performed before answering ``MAIL`` (this
is how validation time becomes visible to the measurement harness).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from repro.net.faults import FaultKind
from repro.net.network import Network, SMTP_PORT
from repro.obs import NULL_OBS
from repro.smtp.errors import SmtpProtocolError
from repro.smtp.message import EmailMessage
from repro.smtp.protocol import CRLF, Mailbox, Reply, dot_unstuff, parse_command, parse_path

HookResult = Tuple[Reply, float]

# Replies whose text never varies, built once.
OK = Reply(250, "OK")
START_DATA = Reply(354, "End data with <CRLF>.<CRLF>")
_SYNTAX_ERROR = Reply(500, "Syntax error")
_UNRECOGNIZED = Reply(500, "Command unrecognized")
_NOT_IMPLEMENTED = Reply(502, "Command not implemented")
_NO_HELO = Reply(503, "Send EHLO/HELO first")
_NESTED_MAIL = Reply(503, "Nested MAIL command")
_MAIL_SYNTAX = Reply(501, "Syntax error in MAIL")
_NO_MAIL = Reply(503, "Need MAIL before RCPT")
_RCPT_SYNTAX = Reply(501, "Syntax error in RCPT")
_NULL_RCPT = Reply(501, "Null recipient")
_NO_RCPT = Reply(503, "Need RCPT before DATA")
_QUEUED = Reply(250, "OK: queued")
_BYE = Reply(221, "Bye")


@lru_cache(maxsize=None)
def _verb_labels(verb: str) -> tuple:
    # The command verbs form a tiny closed set; memoizing keeps the
    # per-command hot path from rebuilding the same label tuple.
    return (("command", verb),)


class SmtpSession:
    """One SMTP connection on the server side.

    State progresses ``connected -> greeted -> mail -> rcpt -> data``;
    RSET and a fresh MAIL both reset the envelope.  Hooks subclasses
    typically override:

    ``on_ehlo`` / ``on_helo``
        the peer introduced itself; the name is kept in ``helo_name``.
    ``on_mail`` / ``on_rcpt`` / ``on_data_command``
        envelope handling — this is where SPF-during-SMTP happens.
    ``on_message``
        a complete message arrived (after the ``.`` terminator).
    ``on_disconnect``
        the peer closed or reset the connection.
    """

    banner_host = "mx.invalid"
    #: Observability bundle; subclasses bound to an instrumented MTA
    #: overwrite this per instance with the testbed-wide bundle.
    obs = NULL_OBS
    #: Optional :class:`~repro.net.faults.FaultPlan` for the banner
    #: kinds; receiving MTAs overwrite this per instance from their
    #: network, the same way ``obs`` is threaded.
    faults = None

    def __init__(self, client_ip: str, t_accept: float) -> None:
        self.client_ip = client_ip
        self.t_accept = t_accept
        self.helo_name: Optional[str] = None
        self.used_esmtp = False
        self.mail_from: Optional[Mailbox] = None
        self.rcpt_to: List[Mailbox] = []
        self._buffer = ""
        self._in_data = False
        self._data_lines: List[str] = []
        self._quit = False

    # -- TCP session duck-type ------------------------------------------

    def on_connect(self, t: float):
        self.obs.metrics.counter("smtp_server_sessions_total", t=t)
        if self.faults is not None:
            if self.faults.inject(FaultKind.BANNER_ABSENT, self.client_ip, self.banner_host, t):
                # Accept silently and never greet; the client gives up
                # per its banner timeout.
                return None
            rule = self.faults.inject(
                FaultKind.BANNER_DELAY, self.client_ip, self.banner_host, t
            )
            if rule is not None:
                reply, _ = self.on_banner(t + rule.param)
                return reply.to_bytes(), rule.param
        reply, _ = self.on_banner(t)
        return reply.to_bytes()

    def on_data(self, data: bytes, t: float) -> Tuple[Optional[bytes], float]:
        text = data.decode("utf-8", "replace")
        if not self._buffer and not self._in_data and text.find(CRLF) == len(text) - 2 >= 0:
            # One complete command line, the common round: no buffering.
            result = self._command_line(text[:-2], t)
            return (None, 0.0) if result is None else (result[0].to_bytes(), result[1])
        self._buffer += text
        replies = bytearray()
        total_delay = 0.0
        while CRLF in self._buffer:
            line, self._buffer = self._buffer.split(CRLF, 1)
            if self._in_data:
                result = self._data_line(line, t + total_delay)
            else:
                result = self._command_line(line, t + total_delay)
            if result is not None:
                reply, delay = result
                total_delay += delay
                replies += reply.to_bytes()
        if not replies:
            return None, 0.0
        return bytes(replies), total_delay

    def on_close(self, t: float) -> None:
        self.on_disconnect(t)

    # -- dispatch -----------------------------------------------------

    def _command_line(self, line: str, t: float) -> Optional[HookResult]:
        try:
            command = parse_command(line)
        except SmtpProtocolError:
            return _SYNTAX_ERROR, 0.0
        # The span opens before dispatch so hook-triggered work (an SPF
        # check and its DNS queries, say) nests underneath it.
        obs = self.obs
        with obs.tracer.span("smtp.server.command", t, command=command.verb) as span:
            result = self._dispatch(command, t)
            if result is not None:
                reply, delay = result
                span.attrs["code"] = reply.code
                span.end(t + delay)
                labels = _verb_labels(command.verb)
                obs.metrics.counter("smtp_server_commands_total", labels, t=t + delay)
                obs.metrics.observe("smtp_server_processing_seconds", delay, labels, t=t + delay)
        return result

    def _dispatch(self, command, t: float) -> Optional[HookResult]:
        verb = command.verb
        if verb == "EHLO":
            self.used_esmtp = True
            self.helo_name = command.argument or None
            self._reset_envelope()
            return self.on_ehlo(command.argument, t)
        if verb == "HELO":
            self.used_esmtp = False
            self.helo_name = command.argument or None
            self._reset_envelope()
            return self.on_helo(command.argument, t)
        if verb == "MAIL":
            return self._mail(command.argument, t)
        if verb == "RCPT":
            return self._rcpt(command.argument, t)
        if verb == "DATA":
            return self._data(t)
        if verb == "RSET":
            self._reset_envelope()
            return self.on_rset(t)
        if verb == "NOOP":
            return OK, 0.0
        if verb == "QUIT":
            self._quit = True
            return self.on_quit(t)
        if verb in ("VRFY", "EXPN", "HELP"):
            return _NOT_IMPLEMENTED, 0.0
        return _UNRECOGNIZED, 0.0

    def _mail(self, argument: str, t: float) -> HookResult:
        if self.helo_name is None:
            return _NO_HELO, 0.0
        if self.mail_from is not None:
            return _NESTED_MAIL, 0.0
        try:
            mailbox = parse_path(argument, "FROM")
        except SmtpProtocolError:
            return _MAIL_SYNTAX, 0.0
        reply, delay = self.on_mail(mailbox, t)
        if reply.is_success:
            self.mail_from = mailbox
        return reply, delay

    def _rcpt(self, argument: str, t: float) -> HookResult:
        if self.mail_from is None:
            return _NO_MAIL, 0.0
        try:
            mailbox = parse_path(argument, "TO")
        except SmtpProtocolError:
            return _RCPT_SYNTAX, 0.0
        if mailbox is None:
            return _NULL_RCPT, 0.0
        reply, delay = self.on_rcpt(mailbox, t)
        if reply.is_success:
            self.rcpt_to.append(mailbox)
        return reply, delay

    def _data(self, t: float) -> HookResult:
        if not self.rcpt_to:
            return _NO_RCPT, 0.0
        reply, delay = self.on_data_command(t)
        if reply.is_intermediate:
            self._in_data = True
            self._data_lines = []
        return reply, delay

    def _data_line(self, line: str, t: float) -> Optional[HookResult]:
        if line == ".":
            self._in_data = False
            text = dot_unstuff(CRLF.join(self._data_lines))
            message = EmailMessage.from_text(text)
            self._data_lines = []
            obs = self.obs
            with obs.tracer.span("smtp.server.message", t, bytes=len(text)) as span:
                result = self.on_message(message, t)
                reply, delay = result
                span.set(code=reply.code)
                span.end(t + delay)
            obs.metrics.counter("smtp_server_messages_total", (("code", str(reply.code)),), t=t + delay)
            self._reset_envelope()
            return result
        self._data_lines.append(line)
        return None

    def _reset_envelope(self) -> None:
        self.mail_from = None
        self.rcpt_to = []
        self._in_data = False
        self._data_lines = []

    # -- hooks (defaults accept everything) -------------------------------

    def on_banner(self, t: float) -> HookResult:
        return Reply(220, "%s ESMTP service ready" % self.banner_host), 0.0

    def on_ehlo(self, domain: str, t: float) -> HookResult:
        return Reply(250, [self.banner_host, "8BITMIME", "SIZE 10485760"]), 0.0

    def on_helo(self, domain: str, t: float) -> HookResult:
        return Reply(250, self.banner_host), 0.0

    def on_mail(self, mailbox: Optional[Mailbox], t: float) -> HookResult:
        return OK, 0.0

    def on_rcpt(self, mailbox: Mailbox, t: float) -> HookResult:
        return OK, 0.0

    def on_data_command(self, t: float) -> HookResult:
        return START_DATA, 0.0

    def on_message(self, message: EmailMessage, t: float) -> HookResult:
        return _QUEUED, 0.0

    def on_rset(self, t: float) -> HookResult:
        return OK, 0.0

    def on_quit(self, t: float) -> HookResult:
        return _BYE, 0.0

    def on_disconnect(self, t: float) -> None:
        """The peer went away; subclasses use this for deferred work."""


class SmtpServer:
    """Binds a session factory to one or more listening addresses."""

    def __init__(self, session_factory: Callable[[str, float], SmtpSession]) -> None:
        self.session_factory = session_factory

    def attach(self, network: Network, *addresses: str, port: int = SMTP_PORT) -> None:
        for address in addresses:
            network.listen_tcp(address, port, self.session_factory)
