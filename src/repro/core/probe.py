"""The SMTP probe client (paper Section 4.6).

For each (MTA, test policy) pair the probe opens a TCP connection and
walks ``EHLO → MAIL → RCPT → DATA`` with a 15-second sleep before MAIL,
RCPT and DATA, then disconnects without ever transmitting message data —
so nothing can be delivered, whatever the MTA replies.  The From address
encodes the (testid, mtaid) pair; recipients are guessed usernames tried
in order, postmaster last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.synth import SynthConfig
from repro.net.network import Network, is_ipv6
from repro.obs import Observability, ensure_obs
from repro.smtp.client import SmtpClient
from repro.smtp.errors import SmtpClientError
from repro.smtp.protocol import Reply

#: The paper's recipient guesses, in order; postmaster is the fallback.
DEFAULT_USERNAMES: Tuple[str, ...] = ("michael", "john.smith", "support", "postmaster")

#: The paper's sleep before MAIL, RCPT and DATA, and after each probe.
SLEEP_SECONDS = 15.0


@dataclass
class ProbeResult:
    """One probe conversation, summarised."""

    mtaid: str
    testid: str
    target_ip: str
    stage_reached: str = "connect"  # connect/ehlo/mail/rcpt/data/done
    accepted_username: Optional[str] = None
    error_stage: Optional[str] = None
    error_text: Optional[str] = None
    replies: List[Tuple[str, int, str]] = field(default_factory=list)
    t_started: float = 0.0
    t_finished: float = 0.0

    @property
    def completed_envelope(self) -> bool:
        """The probe got through DATA (and then disconnected)."""
        return self.stage_reached == "done"

    @property
    def rejected_mentioning(self) -> Optional[str]:
        """'spam' / 'blacklist' if an error reply contained the word."""
        for _, code, text in self.replies:
            if code >= 400:
                lowered = text.lower()
                if "blacklist" in lowered:
                    return "blacklist"
                if "spam" in lowered:
                    return "spam"
        return None

    @property
    def invalid_recipient(self) -> bool:
        return self.error_stage == "rcpt"

    def __reduce__(self):
        # One flat tuple of the fields, in constructor order: workers ship
        # every result home, and the default per-object state dict costs
        # the coordinator an allocation each on load.
        return ProbeResult, (
            self.mtaid, self.testid, self.target_ip, self.stage_reached,
            self.accepted_username, self.error_stage, self.error_text,
            self.replies, self.t_started, self.t_finished,
        )


class ProbeClient:
    """Drives probe conversations from the measurement host."""

    def __init__(
        self,
        network: Network,
        config: Optional[SynthConfig] = None,
        sleep_seconds: float = SLEEP_SECONDS,
        usernames: Sequence[str] = DEFAULT_USERNAMES,
        obs: Optional[Observability] = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else SynthConfig()
        self.sleep_seconds = sleep_seconds
        self.usernames = tuple(usernames)
        self.obs = ensure_obs(obs)
        network.add_address(self.config.probe_ipv4)
        if self.config.probe_ipv6:
            network.add_address(self.config.probe_ipv6)

    # -- identities -----------------------------------------------------

    def from_address(self, mtaid: str, testid: str) -> str:
        return "spf-test@%s.%s.%s" % (testid, mtaid, self.config.probe_suffix)

    def helo_name(self, mtaid: str, testid: str) -> str:
        return "h.%s.%s.%s" % (testid, mtaid, self.config.probe_suffix)

    # -- probing -----------------------------------------------------------

    def probe(
        self,
        target_ip: str,
        mtaid: str,
        testid: str,
        rcpt_domain: str,
        t: float,
    ) -> Tuple[ProbeResult, float]:
        """Run one probe conversation; never delivers a message."""
        obs = self.obs
        with obs.tracer.span(
            "probe.conversation", t, mtaid=mtaid, testid=testid, target=target_ip
        ) as span:
            result, t_done = self._probe(target_ip, mtaid, testid, rcpt_domain, t)
            span.set(stage=result.stage_reached)
            span.end(t_done)
        obs.metrics.counter(
            "probe_conversations_total", (("stage", result.stage_reached),), t=t_done
        )
        obs.metrics.observe("probe_conversation_seconds", t_done - t, t=t_done)
        return result, t_done

    def _probe(
        self,
        target_ip: str,
        mtaid: str,
        testid: str,
        rcpt_domain: str,
        t: float,
    ) -> Tuple[ProbeResult, float]:
        result = ProbeResult(mtaid=mtaid, testid=testid, target_ip=target_ip, t_started=t)
        source = self.config.probe_ipv6 if is_ipv6(target_ip) else self.config.probe_ipv4
        try:
            client, t = SmtpClient.connect(self.network, source, target_ip, t, obs=self.obs)
        except SmtpClientError as exc:
            result.error_stage = "connect"
            result.error_text = str(exc)
            if exc.reply is not None:
                result.replies.append(("banner", exc.reply.code, exc.reply.text))
            if exc.t is not None:
                t = exc.t
            result.t_finished = t
            return result, t

        def note(stage: str, reply: Reply) -> None:
            result.replies.append((stage, reply.code, reply.text))

        try:
            reply, t = client.ehlo_or_helo(self.helo_name(mtaid, testid), t)
            note("ehlo", reply)
            if not reply.is_success:
                raise _Stop("ehlo", reply)
            result.stage_reached = "ehlo"

            t += self.sleep_seconds
            reply, t = client.mail(self.from_address(mtaid, testid), t)
            note("mail", reply)
            if not reply.is_success:
                raise _Stop("mail", reply)
            result.stage_reached = "mail"

            t += self.sleep_seconds
            accepted = None
            for username in self.usernames:
                reply, t = client.rcpt("%s@%s" % (username, rcpt_domain), t)
                note("rcpt", reply)
                if reply.is_success:
                    accepted = username
                    break
            if accepted is None:
                raise _Stop("rcpt", reply)
            result.accepted_username = accepted
            result.stage_reached = "rcpt"

            t += self.sleep_seconds
            reply, t = client.data_command(t)
            note("data", reply)
            if not reply.is_intermediate:
                raise _Stop("data", reply)
            result.stage_reached = "done"
        except _Stop as stop:
            result.error_stage = stop.stage
            result.error_text = stop.reply.text
        except SmtpClientError as exc:
            result.error_stage = result.stage_reached
            result.error_text = str(exc)
            if exc.t is not None:
                t = exc.t
        finally:
            # Always disconnect before any message data: the no-delivery
            # guarantee of Section 5.1.
            client.abort(t)
        result.t_finished = t
        return result, t


class _Stop(Exception):
    def __init__(self, stage: str, reply: Reply) -> None:
        super().__init__(stage)
        self.stage = stage
        self.reply = reply
