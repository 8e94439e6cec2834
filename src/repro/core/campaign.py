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
from repro.core.policies import POLICIES, policy_by_id
from repro.core.preflight import preflight_policies
from repro.core.probe import ProbeClient, ProbeResult
from repro.core.querylog import AttributedQuery, QueryIndex, attribute_queries
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
    # Key generation dominates testbed set-up.  The key pair is frozen,
    # so one per seed per process is enough, and forked workers inherit
    # the coordinator's.
    return generate_keypair(1024, seed=seed + 4242)


def make_synth_config(seed: int) -> Tuple[RsaKeyPair, SynthConfig]:
    """The (keypair, synthesizing-server config) a :class:`Testbed` with
    ``seed`` would build.  Exposed so the merge layer
    (:mod:`repro.core.parallel`) can attribute worker query logs without
    standing up a coordinator-side testbed of its own.  The key pair is
    memoised per seed; the config is mutable, so every call builds a
    fresh one."""
    keypair = _seeded_keypair(seed)
    config = SynthConfig(
        probe_ipv4=SENDER_IPV4,
        probe_ipv6=SENDER_IPV6,
        sender_ips=(SENDER_IPV4, SENDER_IPV6),
        dkim_key_b64=keypair.public.to_base64(),
    )
    return keypair, config


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
        self.keypair, self.synth_config = make_synth_config(seed)
        self.synth = SynthesizingAuthority(self.synth_config, obs=self.obs, faults=faults)
        self.synth.deploy(self.network, self.directory)
        self.receivers: Dict[str, ReceivingMta] = {}
        self._deploy_universe_dns()
        self._deploy_receivers()

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

    def attributed_queries(self) -> List[AttributedQuery]:
        return attribute_queries(self.synth.query_log, self.synth_config)

    def query_index(self) -> QueryIndex:
        return QueryIndex(self.attributed_queries())


# -- schedules ------------------------------------------------------------
#
# A campaign is two separable things: a deterministic *schedule* (who is
# contacted, when, in what order) and its *execution*.  Schedules are pure
# functions of (universe, campaign parameters) — no testbed, no RNG state
# left behind — so a worker process can execute any subset of the
# coordinator's schedule, in any order (repro.core.parallel), while the
# serial path executes the whole thing.  Per-item start times are
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


def notify_schedule(
    domains: Sequence[Domain], spacing: float = 2.0, start_time: float = 0.0
) -> List[NotifyTask]:
    """One delivery per domain, ``spacing`` seconds apart."""
    return [
        NotifyTask(domain, start_time + position * spacing)
        for position, domain in enumerate(domains)
    ]


def eligible_probe_mtas(universe: Universe) -> List[Tuple[MtaHost, str]]:
    """(host, recipient_domain) pairs: every MTA with a usable address,
    paired with one of the domains that designates it (Section 5.2).
    Sorted by mtaid so downstream shuffles and ``limit_mtas`` slices are
    reproducible whatever the dict/hash order of the universe."""
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
    stagger: float = 1.0,
    start_time: float = 0.0,
    limit_mtas: Optional[int] = None,
) -> List[ProbeTask]:
    """The probe campaign's full schedule.

    The MTA order is one seeded shuffle over the (sorted) eligible pairs
    — Section 5.2's decorrelation of same-domain MTAs — sliced *after*
    shuffling when ``limit_mtas`` is given.  Each MTA's per-policy order
    comes from its own RNG, derived from ``(seed, mtaid)`` via a stable
    hash: sequential draws from one shared stream would make an MTA's
    order depend on every MTA scheduled before it, which is exactly what
    a sharded run cannot reproduce.
    """
    rng = random.Random(seed)
    pairs = eligible_probe_mtas(universe)
    rng.shuffle(pairs)
    if limit_mtas is not None:
        pairs = pairs[:limit_mtas]
    tasks = []
    for position, (host, rcpt_domain) in enumerate(pairs):
        order = list(testids)
        random.Random(stable_hash64("%d|%s" % (seed, host.mtaid))).shuffle(order)
        tasks.append(
            ProbeTask(host, rcpt_domain, start_time + position * stagger, tuple(order))
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
    """Sends one legitimate signed notification per domain (Section 6.1)."""

    def __init__(self, testbed: Testbed, spacing: float = 2.0, start_time: float = 0.0) -> None:
        self.testbed = testbed
        self.spacing = spacing
        self.start_time = start_time

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
        return notify_schedule(domains, spacing=self.spacing, start_time=self.start_time)

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
        t_last = self.start_time
        with obs.tracer.span("campaign.run", self.start_time, campaign="notifyemail") as span:
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

    def results_for(self, mtaid: str) -> List[ProbeResult]:
        return [r for r in self.results if r.mtaid == mtaid]


class ProbeCampaign:
    """Runs the 39-policy probe against every MTA (Sections 6.2, 6.3)."""

    def __init__(
        self,
        testbed: Testbed,
        name: str,
        testids: Optional[Sequence[str]] = None,
        sleep_seconds: float = 15.0,
        stagger: float = 1.0,
        start_time: float = 0.0,
        seed: int = 0,
        preflight: bool = True,
    ) -> None:
        self.testbed = testbed
        self.name = name
        self.testids = list(testids) if testids is not None else [p.testid for p in POLICIES]
        self.stagger = stagger
        self.start_time = start_time
        self.seed = seed
        # Static pre-flight: audit every selected policy's SPF graph before
        # probing anything.  Purely offline — it reads the policies' record
        # maps through repro.lint, issues zero simulated DNS queries, and
        # therefore cannot perturb the query log the analyses are built on.
        # Pathological findings are the point of the policies; only a policy
        # publishing no SPF record at all aborts (PreflightError).
        self.preflight_audits = (
            preflight_policies(policy_by_id(testid) for testid in self.testids)
            if preflight
            else {}
        )
        self.probe = ProbeClient(
            testbed.network, testbed.synth_config, sleep_seconds=sleep_seconds, obs=testbed.obs
        )

    def eligible_mtas(self) -> List[Tuple[MtaHost, str]]:
        """See :func:`eligible_probe_mtas` (sorted by mtaid)."""
        return eligible_probe_mtas(self.testbed.universe)

    def schedule(self, limit_mtas: Optional[int] = None) -> List[ProbeTask]:
        """The campaign's full schedule (see :func:`probe_schedule`)."""
        return probe_schedule(
            self.testbed.universe,
            self.testids,
            seed=self.seed,
            stagger=self.stagger,
            start_time=self.start_time,
            limit_mtas=limit_mtas,
        )

    def run(
        self,
        limit_mtas: Optional[int] = None,
        schedule: Optional[Iterable[ProbeTask]] = None,
    ) -> ProbeCampaignResult:
        """Execute ``schedule`` (default: the full schedule, optionally
        limited to the first ``limit_mtas`` shuffled MTAs).  Each task
        carries its own start time and per-policy order, so a worker
        executing any subset reproduces the serial timing exactly."""
        tasks = schedule if schedule is not None else self.schedule(limit_mtas)
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
