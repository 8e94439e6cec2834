"""Campaign runners: the paper's three experiments, end to end.

A :class:`Testbed` stands up the whole world: the virtual network, the
synthesizing authoritative server and its suffix delegations, DNS for the
generated domain universe, and one real :class:`~repro.mta.receiver.
ReceivingMta` per MTA host.  On top of it:

* :class:`NotifyEmailCampaign` sends a legitimate, DKIM-signed
  notification email to every domain (Section 4.3.1 / 6.1);
* :class:`ProbeCampaign` runs the Section 4.6 probe against every MTA for
  every test policy — used for both NotifyMX and TwoWeekMX.

Both campaigns leave their evidence in the synthesizing server's query
log; analyses never look inside the MTAs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.datasets import Domain, MtaHost, Universe, stable_hash64
from repro.core.policies import POLICIES
from repro.core.probe import ProbeClient, ProbeResult
from repro.core.querylog import QueryIndex, attribute_queries_with_stats
from repro.core.synth import SynthConfig, SynthesizingAuthority
from repro.dkim.rsa import RsaKeyPair, generate_keypair
from repro.dkim.sign import DkimSigner
from repro.dns.rdata import AAAARecord, ARecord, MxRecord, PtrRecord, SoaRecord
from repro.dns.resolver import AuthorityDirectory
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.mta.receiver import ReceivingMta
from repro.mta.sender import DeliveryRecord, SendingMta
from repro.net.clock import Clock
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.obs import Observability
from repro.smtp.message import EmailMessage

SENDER_IPV4 = "203.0.113.250"
SENDER_IPV6 = "2001:db8:fe::250"
UNIVERSE_DNS_IP = "198.51.100.99"

#: Seconds between the starts of two consecutive MTAs' probe series (§5.2).
PROBE_STAGGER = 1.0
#: Seconds between two consecutive NotifyEmail deliveries (§6.1).
NOTIFY_SPACING = 2.0


def apply_reputation_effects(
    universe: Universe,
    seed: int = 0,
    p_spam: float = 0.27,
    p_blacklist: float = 0.03,
) -> None:
    """Sour the probe's sender reputation (Section 6.2).

    The NotifyMX experiment ran nine months after NotifyEmail, by which
    time the measurement address had landed on DNSBLs: 27% of MTAs
    rejected citing spam and 3% citing a blacklist.  Apply this to a
    universe *before* building the Testbed for a NotifyMX-style campaign.
    """
    rng = random.Random(seed)
    for host in universe.mtas:
        roll = rng.random()
        if roll < p_spam:
            host.behavior.blacklist_rejection = "spam"
        elif roll < p_spam + p_blacklist:
            host.behavior.blacklist_rejection = "blacklist"


@functools.lru_cache(maxsize=None)
def _seeded_keypair(seed: int) -> RsaKeyPair:
    # Costly, and only NotifyEmail signs with or publishes the key, so it
    # is generated on first use, once per seed per process (it is frozen);
    # run_notify_sharded generates it before forking, so workers inherit it.
    return generate_keypair(1024, seed=seed + 4242)


def _seeded_public_key(seed: int) -> str:
    return _seeded_keypair(seed).public.to_base64()


def make_synth_config(seed: int) -> SynthConfig:
    """The synthesizing-server config a :class:`Testbed` with ``seed``
    would build, fresh per call (it is mutable), with its DKIM key made on
    first use.  Exposed so :mod:`repro.core.parallel` can attribute worker
    query logs without a coordinator-side testbed of its own."""
    return SynthConfig(
        probe_ipv4=SENDER_IPV4,
        probe_ipv6=SENDER_IPV6,
        sender_ips=(SENDER_IPV4, SENDER_IPV6),
        dkim_key_source=functools.partial(_seeded_public_key, seed),
    )


class Testbed:
    """A fully wired simulated Internet for one universe."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        universe: Universe,
        seed: int = 0,
        obs: Optional[Observability] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.universe = universe
        self.seed = seed
        # Observability is on by default: one shared bundle per world so
        # spans nest across layers.  Pass ``repro.obs.NULL_OBS`` to opt out.
        self.obs = obs if obs is not None else Observability()
        # One fault plan per world, threaded everywhere a fault can be
        # injected; ``None`` keeps every layer on its no-op path.
        self.faults = faults
        if faults is not None:
            faults.attach_obs(self.obs)
        self.clock = Clock()
        self.network = Network(UniformLatency(0.004, 0.045, seed=seed), self.clock, faults=faults)
        self.directory = AuthorityDirectory()
        self.synth_config = make_synth_config(seed)
        self.synth = SynthesizingAuthority(self.synth_config, obs=self.obs, faults=faults)
        self.synth.deploy(self.network, self.directory)
        self.receivers: Dict[str, ReceivingMta] = {}
        self._deploy_universe_dns()
        self._deploy_receivers()

    @property
    def keypair(self) -> RsaKeyPair:
        """The DKIM key pair NotifyEmail signs with (generated on first use)."""
        return _seeded_keypair(self.seed)

    # -- world building -------------------------------------------------

    def _deploy_universe_dns(self) -> None:
        """One catch-all zone serving MX/A/AAAA for the whole universe,
        plus the probe host's reverse records (for ptr test policies)."""
        zone = Zone("", soa=SoaRecord("ns1.universe.test", "hostmaster.universe.test"))
        for domain in self.universe.domains:
            for index, host in enumerate(domain.mta_hosts):
                zone.add(domain.name, MxRecord(10 * (index + 1), host.hostname))
        for host in self.universe.mtas:
            if host.ipv4:
                zone.add(host.hostname, ARecord(host.ipv4))
            if host.ipv6:
                zone.add(host.hostname, AAAARecord(host.ipv6))
        # Reverse DNS for the probe/sender host.
        import ipaddress

        for address in (SENDER_IPV4, SENDER_IPV6):
            pointer = ipaddress.ip_address(address).reverse_pointer
            zone.add(pointer, PtrRecord("probe.dns-lab.org"))
        zone.add("probe.dns-lab.org", ARecord(SENDER_IPV4))
        zone.add("probe.dns-lab.org", AAAARecord(SENDER_IPV6))
        self.universe_zone = zone
        server = AuthoritativeServer([zone], obs=self.obs, faults=self.faults)
        server.attach(self.network, UNIVERSE_DNS_IP)
        self.universe_dns = server
        # Root registration: the fallback for everything that is not one
        # of the measurement suffixes.
        self.directory.register("", UNIVERSE_DNS_IP)

    def _deploy_receivers(self) -> None:
        for host in self.universe.mtas:
            receiver = ReceivingMta(
                host.hostname,
                self.network,
                self.directory,
                behavior=host.behavior,
                ipv4=host.ipv4,
                ipv6=host.ipv6,
                obs=self.obs,
            )
            receiver.attach()
            self.receivers[host.mtaid] = receiver

    # -- log access ------------------------------------------------------

    def query_index(self) -> QueryIndex:
        """The synth server's query log, attributed (with its stats)."""
        return QueryIndex(*attribute_queries_with_stats(self.synth.query_log, self.synth_config))


# -- schedules ------------------------------------------------------------
#
# A campaign is two separable things: a deterministic *schedule* (who is
# contacted, when, in what order) and its *execution*.  Schedules are pure
# functions of (universe, campaign parameters) — no testbed, no RNG state
# left behind — so a worker process can execute any subset of the
# coordinator's schedule, in any order (repro.core.parallel), while a
# plain run executes the whole thing.  Per-item start times are
# explicit: item i never inherits timing from item i-1.


@dataclass(frozen=True)
class NotifyTask:
    """One scheduled NotifyEmail delivery."""

    domain: Domain
    start_time: float


@dataclass(frozen=True)
class ProbeTask:
    """One scheduled probe conversation series (one MTA, all testids)."""

    host: MtaHost
    rcpt_domain: str
    start_time: float
    order: Tuple[str, ...]  # testids, in probing order


def notify_schedule(domains: Sequence[Domain]) -> List[NotifyTask]:
    """One delivery per domain, :data:`NOTIFY_SPACING` seconds apart."""
    return [NotifyTask(domain, position * NOTIFY_SPACING) for position, domain in enumerate(domains)]


def eligible_probe_mtas(universe: Universe) -> List[Tuple[MtaHost, str]]:
    """(host, recipient_domain) pairs: every MTA with a usable address,
    paired with one of the domains that designates it (Section 5.2).
    Sorted by mtaid so the schedule's seeded shuffle is reproducible
    whatever the dict/hash order of the universe."""
    recipient: Dict[str, str] = {}
    for domain in universe.domains:
        if domain.resolution_failed:
            continue
        for host in domain.mta_hosts:
            recipient.setdefault(host.mtaid, domain.name)
    pairs = []
    for host in universe.mtas:
        if host.mtaid in recipient and (host.ipv4 or host.ipv6):
            pairs.append((host, recipient[host.mtaid]))
    pairs.sort(key=lambda pair: pair[0].mtaid)
    return pairs


def probe_schedule(
    universe: Universe,
    testids: Sequence[str],
    seed: int = 0,
    start_time: float = 0.0,
) -> List[ProbeTask]:
    """The probe campaign's full schedule, one MTA every
    :data:`PROBE_STAGGER` seconds from ``start_time``.

    The MTA order is one seeded shuffle over the (sorted) eligible pairs
    — Section 5.2's decorrelation of same-domain MTAs.  Each MTA's
    per-policy order comes from its own RNG, derived from ``(seed,
    mtaid)`` via a stable hash: sequential draws from one shared stream
    would make an MTA's order depend on every MTA scheduled before it,
    which is exactly what a sharded run cannot reproduce.
    """
    rng = random.Random(seed)
    pairs = eligible_probe_mtas(universe)
    rng.shuffle(pairs)
    tasks = []
    for position, (host, rcpt_domain) in enumerate(pairs):
        order = list(testids)
        random.Random(stable_hash64("%d|%s" % (seed, host.mtaid))).shuffle(order)
        tasks.append(
            ProbeTask(host, rcpt_domain, start_time + position * PROBE_STAGGER, tuple(order))
        )
    return tasks


@dataclass
class NotifyDelivery:
    """One NotifyEmail delivery and its identifiers."""

    domain: Domain
    from_domain: str
    delivery: DeliveryRecord


@dataclass
class NotifyEmailResult:
    deliveries: List[NotifyDelivery]
    index: QueryIndex

    @property
    def accepted(self) -> List[NotifyDelivery]:
        return [d for d in self.deliveries if d.delivery.accepted_with_250]


class NotifyEmailCampaign:
    """Sends one legitimate signed notification per domain (Section 6.1),
    :data:`NOTIFY_SPACING` seconds apart from virtual time 0."""

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed

    def _message(self, from_address: str, to_address: str, t: float) -> EmailMessage:
        return EmailMessage(
            [
                ("From", from_address),
                ("To", to_address),
                # The Reply-To contact of Section 5.3.
                ("Reply-To", "research@dns-lab.org"),
                ("Subject", "Notification: source address validation issue in your network"),
                ("Date", "Thu, 01 Oct 2020 12:%02d:%02d +0000" % (int(t) // 60 % 60, int(t) % 60)),
                ("Message-ID", "<%d.%s>" % (int(t * 1000), from_address.split("@")[1])),
            ],
            "Dear network operator,\r\n\r\n"
            "During a recent measurement study we observed that your network\r\n"
            "does not enforce destination-side source address validation.\r\n"
            "Details and remediation guidance: https://dns-lab.org/dsav\r\n\r\n"
            "To opt out of future notifications, reply to this message.\r\n",
        )

    def schedule(self, domains: Optional[Sequence[Domain]] = None) -> List[NotifyTask]:
        """The campaign's full schedule: one task per domain."""
        if domains is None:
            domains = self.testbed.universe.domains
        return notify_schedule(domains)

    def run(
        self,
        domains: Optional[Sequence[Domain]] = None,
        schedule: Optional[Iterable[NotifyTask]] = None,
    ) -> NotifyEmailResult:
        """Execute ``schedule`` (default: the full schedule over
        ``domains``).  Workers pass the tasks they pull from the
        coordinator's queue; start times ride along, so a task runs at the
        same virtual instant whichever process executes it."""
        testbed = self.testbed
        tasks = schedule if schedule is not None else self.schedule(domains)
        deliveries: List[NotifyDelivery] = []
        obs = testbed.obs
        t_last = 0.0
        with obs.tracer.span("campaign.run", 0.0, campaign="notifyemail") as span:
            for task in tasks:
                domain, t = task.domain, task.start_time
                from_domain = "%s.%s" % (domain.domainid, testbed.synth_config.notify_suffix)
                sender = SendingMta(
                    "probe.dns-lab.org",
                    testbed.network,
                    testbed.directory,
                    ipv4=SENDER_IPV4,
                    ipv6=SENDER_IPV6,
                    signer=DkimSigner(from_domain, "sel", testbed.keypair.private),
                    obs=obs,
                )
                from_address = "spf-test@%s" % from_domain
                to_address = "operator@%s" % domain.name
                message = self._message(from_address, to_address, t)
                record, t_done = sender.send(message, from_address, to_address, t)
                deliveries.append(NotifyDelivery(domain, from_domain, record))
                obs.metrics.counter(
                    "campaign_deliveries_total",
                    (
                        ("campaign", "notifyemail"),
                        ("outcome", "accepted" if record.accepted_with_250 else "other"),
                    ),
                    t=t_done,
                )
                t_last = max(t_last, t_done)
            span.set(domains=len(deliveries))
            span.end(t_last)
        obs.metrics.gauge("campaign_domains", len(deliveries), (("campaign", "notifyemail"),))
        return NotifyEmailResult(deliveries, testbed.query_index())


@dataclass
class ProbeCampaignResult:
    name: str
    results: List[ProbeResult]
    index: QueryIndex
    #: mtaid -> MtaHost actually probed.
    probed: Dict[str, MtaHost] = field(default_factory=dict)
    #: mtaid -> recipient domain used.
    recipient_domain: Dict[str, str] = field(default_factory=dict)


class ProbeCampaign:
    """Runs the 39-policy probe against every MTA (Sections 6.2, 6.3).

    MTAs start :data:`PROBE_STAGGER` seconds apart from ``start_time``,
    and each probe conversation is followed by the probe client's
    :data:`~repro.core.probe.SLEEP_SECONDS`.  The policies are not
    audited here: :func:`~repro.core.parallel.run_probe_sharded` runs the
    static pre-flight once per campaign.
    """

    def __init__(
        self,
        testbed: Testbed,
        name: str,
        testids: Optional[Sequence[str]] = None,
        start_time: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.testbed = testbed
        self.name = name
        self.testids = list(testids) if testids is not None else [p.testid for p in POLICIES]
        self.start_time = start_time
        self.seed = seed
        self.probe = ProbeClient(testbed.network, testbed.synth_config, obs=testbed.obs)

    def schedule(self) -> List[ProbeTask]:
        """The campaign's full schedule (see :func:`probe_schedule`)."""
        return probe_schedule(
            self.testbed.universe, self.testids, seed=self.seed, start_time=self.start_time
        )

    def run(self, schedule: Optional[Iterable[ProbeTask]] = None) -> ProbeCampaignResult:
        """Execute ``schedule`` (default: the full schedule).  Each task
        carries its own start time and per-policy order, so a worker
        executing any subset reproduces the serial timing exactly."""
        tasks = schedule if schedule is not None else self.schedule()
        results: List[ProbeResult] = []
        probed: Dict[str, MtaHost] = {}
        recipients: Dict[str, str] = {}
        obs = self.testbed.obs
        t_last = self.start_time
        with obs.tracer.span("campaign.run", self.start_time, campaign=self.name) as span:
            for task in tasks:
                host = task.host
                probed[host.mtaid] = host
                recipients[host.mtaid] = task.rcpt_domain
                address = host.ipv4 or host.ipv6
                t = task.start_time
                for testid in task.order:
                    result, t = self.probe.probe(address, host.mtaid, testid, task.rcpt_domain, t)
                    results.append(result)
                    obs.metrics.counter(
                        "campaign_probes_total", (("campaign", self.name),), t=t
                    )
                    t += self.probe.sleep_seconds
                t_last = max(t_last, t)
            span.set(mtas=len(probed), probes=len(results))
            span.end(t_last)
        obs.metrics.gauge("campaign_eligible_mtas", len(probed), (("campaign", self.name),))
        return ProbeCampaignResult(
            name=self.name,
            results=results,
            index=self.testbed.query_index(),
            probed=probed,
            recipient_domain=recipients,
        )
