"""The receiving MTA.

A :class:`ReceivingMta` owns a resolver and the three validation engines,
listens on its addresses over the virtual network, and executes its
:class:`~repro.mta.behavior.MtaBehavior` during SMTP sessions.  Validation
work shows up to the peer as server-side processing delay, and every DNS
query the engines perform lands — properly timestamped — in the query log
of whichever authoritative server owns the sender domain.  That is the
whole trick of the paper: the world under test produces its own evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dkim.verify import DkimResult, DkimVerifier
from repro.dmarc.evaluate import DmarcDisposition, DmarcEvaluator
from repro.dmarc.psl import PublicSuffixList
from repro.dns.resolver import AuthorityDirectory, Resolver
from repro.mta.behavior import MtaBehavior, SpfTrigger
from repro.net.network import Network
from repro.obs import Observability, ensure_obs
from repro.smtp.message import EmailMessage
from repro.smtp.protocol import Mailbox, Reply
from repro.smtp.server import OK, START_DATA, SmtpServer, SmtpSession
from repro.spf.evaluator import SpfEvaluator
from repro.spf.result import SpfResult


# Replies whose text never varies, built once.
_SPAM = Reply(554, "5.7.1 Message rejected as spam by content scanning")
_GREYLISTED = Reply(451, "4.7.1 Greylisted, please retry later")
_GREYLIST_WINDOW = Reply(451, "4.7.1 Greylisted, retry window not yet open")
_DMARC_REJECT = Reply(550, "5.7.1 rejected per DMARC policy")
_ACCEPTED = Reply(250, "OK: message accepted")


@dataclass
class ValidationRecord:
    """One validation action an MTA performed (for white-box assertions;
    the measurement harness itself only sees the DNS side)."""

    kind: str  # "spf" | "helo-spf" | "dkim" | "dmarc"
    domain: str
    result: str
    t_started: float
    t_completed: float
    detail: object = None
    client_ip: Optional[str] = None


@dataclass
class Delivery:
    """A message this MTA accepted."""

    message: EmailMessage
    mail_from: Optional[Mailbox]
    rcpt_to: List[Mailbox]
    client_ip: str
    helo: Optional[str]
    t_accepted: float
    quarantined: bool = False


class ReceivingMta:
    """One receiving mail server (possibly dual-stack)."""

    def __init__(
        self,
        hostname: str,
        network: Network,
        directory: AuthorityDirectory,
        behavior: Optional[MtaBehavior] = None,
        ipv4: Optional[str] = None,
        ipv6: Optional[str] = None,
        psl: Optional[PublicSuffixList] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if ipv4 is None and ipv6 is None:
            raise ValueError("an MTA needs at least one address")
        self.hostname = hostname
        self.network = network
        self.behavior = behavior if behavior is not None else MtaBehavior()
        self.ipv4 = ipv4
        self.ipv6 = ipv6
        self.obs = ensure_obs(obs)
        # The MTA's resolver has its own transport capabilities: plenty of
        # IPv4-only mail servers sit behind dual-stack resolvers (which is
        # how 49% of MTAs could fetch the IPv6-only policy in s7.3).
        resolver_v6: Optional[str] = None
        if self.behavior.resolver_ipv6_capable:
            resolver_v6 = ipv6 if ipv6 is not None else _derived_ipv6(hostname)
        self.resolver = Resolver(
            network,
            directory,
            address4=ipv4,
            address6=resolver_v6,
            config=self.behavior.resolver_config(),
            obs=self.obs,
        )
        self.spf = SpfEvaluator(
            self.resolver, config=self.behavior.spf_config(), receiving_host=hostname, obs=self.obs
        )
        self.dkim = DkimVerifier(self.resolver)
        self.dmarc = DmarcEvaluator(self.resolver, psl=psl)
        self.validations: List[ValidationRecord] = []
        self.deliveries: List[Delivery] = []
        #: Greylist memory: (client_ip, sender, rcpt) -> first-seen time.
        self.greylist: Dict[Tuple[str, str, str], float] = {}
        self.attached = False

    # -- deployment ------------------------------------------------------

    def attach(self) -> None:
        """Start listening on port 25 on every configured address."""
        addresses = [address for address in (self.ipv4, self.ipv6) if address is not None]
        SmtpServer(self._make_session).attach(self.network, *addresses)
        self.attached = True

    def addresses(self) -> List[str]:
        return [address for address in (self.ipv4, self.ipv6) if address is not None]

    def _make_session(self, client_ip: str, t_accept: float) -> "_MtaSession":
        return _MtaSession(self, client_ip, t_accept)

    # -- validation engines (called from sessions) --------------------------

    def _note_validation(self, record: ValidationRecord) -> None:
        self.validations.append(record)
        self.obs.metrics.counter(
            "mta_validations_total",
            (("kind", record.kind), ("result", record.result)),
            t=record.t_completed,
        )

    def run_spf(
        self, client_ip: str, sender: Optional[Mailbox], helo: Optional[str], t: float
    ) -> Tuple[SpfResult, float]:
        """Run configured SPF validation; returns (result, elapsed)."""
        t_begin = t
        helo_name = helo or "unknown.invalid"
        if self.behavior.checks_helo and helo:
            outcome = self.spf.check_host(
                client_ip, helo, "postmaster@%s" % helo, helo=helo, t_start=t
            )
            self._note_validation(
                ValidationRecord(
                    "helo-spf", helo, outcome.result.value, t, outcome.t_completed, outcome, client_ip
                )
            )
            # Every wild MTA that checked HELO ignored its verdict
            # (Section 7.3), so evaluation always proceeds to MAIL FROM.
            t = outcome.t_completed
        if sender is None:
            domain = helo_name
            sender_address = "postmaster@%s" % helo_name
        else:
            domain = sender.domain
            sender_address = sender.address
        outcome = self.spf.check_host(client_ip, domain, sender_address, helo=helo_name, t_start=t)
        self._note_validation(
            ValidationRecord(
                "spf", domain, outcome.result.value, t, outcome.t_completed, outcome, client_ip
            )
        )
        return outcome.result, outcome.t_completed - t_begin

    def run_dkim(self, message: EmailMessage, t: float, client_ip: Optional[str] = None):
        outcome, t_done = self.dkim.verify(message, t)
        self._note_validation(
            ValidationRecord(
                "dkim", outcome.domain or "-", outcome.result.value, t, t_done, outcome, client_ip
            )
        )
        return outcome, t_done

    def run_dmarc(
        self, from_domain, spf_result, spf_domain, dkim_result, dkim_domain, t: float,
        client_ip: Optional[str] = None,
    ):
        outcome, t_done = self.dmarc.evaluate(
            from_domain, spf_result, spf_domain, dkim_result, dkim_domain, t
        )
        self._note_validation(
            ValidationRecord(
                "dmarc", from_domain, outcome.result.value, t, t_done, outcome, client_ip
            )
        )
        return outcome, t_done


class _MtaSession(SmtpSession):
    """One SMTP connection handled according to the MTA's behaviour."""

    def __init__(self, mta: ReceivingMta, client_ip: str, t_accept: float) -> None:
        super().__init__(client_ip, t_accept)
        self.mta = mta
        self.obs = mta.obs
        self.faults = mta.network.faults
        self.banner_host = mta.hostname
        #: Read once: a session runs under the behaviour its MTA had when
        #: the connection was accepted.
        self.behavior: MtaBehavior = mta.behavior
        self._spf_done = False
        self._spf_result: Optional[SpfResult] = None

    # -- helpers -----------------------------------------------------

    def _only_postmaster(self) -> bool:
        return bool(self.rcpt_to) and all(m.local.lower() == "postmaster" for m in self.rcpt_to)

    def _effective_trigger(self) -> SpfTrigger:
        """Postmaster-whitelisting MTAs cannot decide at MAIL time (the
        recipient is not known yet), so their validation point is deferred
        to RCPT at the earliest."""
        trigger = self.behavior.spf_trigger
        if self.behavior.whitelists_postmaster and trigger is SpfTrigger.ON_MAIL:
            return SpfTrigger.ON_RCPT
        return trigger

    def _maybe_run_spf(self, point: SpfTrigger, sender: Optional[Mailbox], t: float) -> float:
        """Run SPF if this behaviour validates at ``point``; returns the
        processing delay the peer will observe."""
        if not self.behavior.validates_spf or self._spf_done:
            return 0.0
        if self._effective_trigger() is not point:
            return 0.0
        if self.behavior.whitelists_postmaster and self._only_postmaster():
            self._spf_done = True  # decision made: sender validation bypassed
            return 0.0
        self._spf_done = True
        result, elapsed = self.mta.run_spf(self.client_ip, sender, self.helo_name, t)
        self._spf_result = result
        return elapsed

    # -- SMTP hooks --------------------------------------------------------

    def on_mail(self, mailbox: Optional[Mailbox], t: float):
        if self.behavior.blacklist_rejection:
            if self.behavior.blacklist_rejection != "blacklist":
                return _SPAM, 0.0
            text = "5.7.1 Service unavailable; client host %s is on our blacklist" % self.client_ip
            return Reply(554, text), 0.0
        delay = self._maybe_run_spf(SpfTrigger.ON_MAIL, mailbox, t)
        return OK, delay

    def on_rcpt(self, mailbox: Mailbox, t: float):
        behavior = self.behavior
        local = mailbox.local.lower()
        known = (
            behavior.accepts_any_recipient
            or local in behavior.valid_users
            or (local == "postmaster" and behavior.accepts_postmaster)
        )
        if not known:
            return Reply(550, "5.1.1 User unknown: %s" % mailbox.address), 0.0
        self.rcpt_to.append(mailbox)  # so the whitelist check sees it
        delay = self._maybe_run_spf(SpfTrigger.ON_RCPT, self.mail_from, t)
        self.rcpt_to.pop()
        if behavior.greylists:
            key = (
                self.client_ip,
                self.mail_from.address if self.mail_from else "<>",
                mailbox.address,
            )
            first_seen = self.mta.greylist.get(key)
            if first_seen is None:
                self.mta.greylist[key] = t
                return _GREYLISTED, delay
            if t - first_seen < behavior.greylist_window:
                return _GREYLIST_WINDOW, delay
        return OK, delay

    def on_data_command(self, t: float):
        delay = self.behavior.data_processing_delay
        delay += self._maybe_run_spf(SpfTrigger.ON_DATA, self.mail_from, t + delay)
        return START_DATA, delay

    def on_message(self, message: EmailMessage, t: float):
        behavior = self.behavior
        t_arrival = t
        t += behavior.acceptance_delay  # queueing / content scanning
        quarantine = False
        spf_result = self._spf_result
        spf_domain = self.mail_from.domain if self.mail_from else None

        dkim_result, dkim_domain = DkimResult.NONE, None
        dmarc_verdict: Optional[Tuple[str, str]] = None  # (result, From domain) once DMARC ran
        if behavior.validates_dkim:
            dkim_outcome, t = self.mta.run_dkim(message, t, client_ip=self.client_ip)
            dkim_result, dkim_domain = dkim_outcome.result, dkim_outcome.domain

        if behavior.validates_dmarc:
            from_domain = _from_domain(message)
            if from_domain:
                dmarc_outcome, t = self.mta.run_dmarc(
                    from_domain,
                    spf_result.value if spf_result else "none",
                    spf_domain,
                    dkim_result.value,
                    dkim_domain,
                    t,
                    client_ip=self.client_ip,
                )
                dmarc_verdict = (dmarc_outcome.result.value, from_domain)
                if behavior.enforces_dmarc:
                    if dmarc_outcome.disposition is DmarcDisposition.REJECT:
                        return _DMARC_REJECT, t - t_arrival
                    quarantine = dmarc_outcome.disposition is DmarcDisposition.QUARANTINE

        self._stamp_authentication_results(
            message, spf_result, dkim_result, dkim_domain, dmarc_verdict
        )
        delivery = Delivery(
            message=message,
            mail_from=self.mail_from,
            rcpt_to=list(self.rcpt_to),
            client_ip=self.client_ip,
            helo=self.helo_name,
            t_accepted=t,
            quarantined=quarantine,
        )
        self.mta.deliveries.append(delivery)

        # Post-delivery SPF validators run after the fact: with virtual
        # time, "scheduling" is simply issuing the check with a future
        # start timestamp.
        if (
            behavior.validates_spf
            and behavior.spf_trigger is SpfTrigger.POST_DELIVERY
            and not self._spf_done
            and not (behavior.whitelists_postmaster and self._only_postmaster())
        ):
            self._spf_done = True
            self.mta.run_spf(
                self.client_ip, self.mail_from, self.helo_name, t + behavior.post_delivery_delay
            )
        return _ACCEPTED, t - t_arrival

    def _stamp_authentication_results(
        self, message, spf_result, dkim_result, dkim_domain, dmarc_verdict
    ) -> None:
        """Prepend the RFC 8601 header recording this session's verdicts;
        the ``dmarc`` entry is left out when DMARC did not run."""
        from repro.mta.authres import HEADER_NAME, AuthenticationResults

        behavior = self.behavior
        if not behavior.validates_anything:
            return
        results = AuthenticationResults(self.mta.hostname)
        if behavior.validates_spf:
            results.add(
                "spf",
                spf_result.value if spf_result else "none",
                mailfrom=self.mail_from.address if self.mail_from else "<>",
            )
        if behavior.validates_dkim:
            entry = results.add("dkim", dkim_result.value)
            if dkim_domain:
                entry.add_property("header", "d", dkim_domain)
        if dmarc_verdict is not None:
            result, from_domain = dmarc_verdict
            results.add("dmarc", result, **{"from": from_domain})
        message.prepend_header(HEADER_NAME, results.to_header_value())


def _derived_ipv6(hostname: str) -> str:
    """A stable, collision-resistant IPv6 source address for a resolver
    co-located with an IPv4-only MTA."""
    import hashlib

    digest = hashlib.md5(hostname.encode("utf-8")).hexdigest()
    return "2001:db8:5e:%s:%s:%s:%s:%s" % (
        digest[0:4], digest[4:8], digest[8:12], digest[12:16], digest[16:20]
    )


def _from_domain(message: EmailMessage) -> Optional[str]:
    """The RFC5322.From domain, extracted leniently."""
    raw = message.get_header("From")
    if raw is None:
        return None
    address = raw
    if "<" in raw and ">" in raw:
        address = raw[raw.index("<") + 1 : raw.index(">")]
    if "@" not in address:
        return None
    return address.rpartition("@")[2].strip().rstrip(".").lower() or None
