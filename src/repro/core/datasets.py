"""Synthetic domain universes (paper Sections 4.1 and 4.2).

The paper measures two real populations it cannot share: 26,695 domains
from a vulnerability-notification campaign (NotifyEmail / NotifyMX) and
22,548 domains from BYU's outbound MX lookups (TwoWeekMX).  This module
generates seeded synthetic universes with the published structure:

* TLD mix per Table 1,
* AS / provider concentration per Table 3 (a handful of giant providers
  plus a very long tail),
* MTA sharing (many domains designating the same provider MTAs — why the
  paper's MTA counts are below its domain counts),
* dual-stack fractions per Table 2,
* Alexa Top-1M / Top-1K membership per Table 7, with validation quality
  conditioned on membership via iterative proportional fitting,
* per-domain demand counts (for the TwoWeekMX decile analysis), and
* the 19 popular providers of Table 6 with their exact validation combos.

Everything scales: ``DatasetSpec.notify_email(scale=0.05)`` is a 5%%-size
universe with the same proportions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.asmap import AsMap
from repro.mta.behavior import MtaBehavior
from repro.mta.fleet import (
    BehaviorDistribution,
    NOTIFY_EMAIL_PROFILE,
    TABLE4_COMBO_WEIGHTS,
    TWO_WEEK_MX_PROFILE,
    sample_behavior,
)

# -- published distributions ---------------------------------------------------

#: Table 1 (left): NotifyEmail TLD shares.
NOTIFY_EMAIL_TLDS: List[Tuple[str, float]] = [
    ("com", 0.26), ("net", 0.13), ("ru", 0.083), ("pl", 0.050), ("br", 0.045),
    ("de", 0.040), ("ua", 0.025), ("it", 0.019), ("cz", 0.016), ("ro", 0.016),
]

#: Table 1 (right): TwoWeekMX TLD shares.
TWO_WEEK_MX_TLDS: List[Tuple[str, float]] = [
    ("com", 0.49), ("org", 0.17), ("edu", 0.090), ("net", 0.063), ("us", 0.036),
    ("gov", 0.011), ("uk", 0.011), ("cam", 0.010), ("ca", 0.0076), ("de", 0.0066),
]

_OTHER_TLD_POOL = [
    "fr", "nl", "es", "se", "no", "fi", "dk", "ch", "at", "be", "jp", "kr",
    "cn", "in", "au", "nz", "mx", "ar", "cl", "za", "tr", "gr", "pt", "hu",
    "sk", "si", "hr", "bg", "lt", "lv", "ee", "ie", "il", "sg", "hk", "tw",
    "th", "my", "id", "ph", "vn", "ir", "sa", "ae", "eg", "ng", "ke", "io",
    "co", "me", "tv", "cc", "info", "biz", "org", "edu", "us", "ca", "uk",
]

#: Table 3 (left): NotifyEmail AS shares (fraction of domains).
NOTIFY_EMAIL_ASES: List[Tuple[int, str, float]] = [
    (16509, "Amazon", 0.023), (26211, "Proofpoint", 0.017), (22843, "Proofpoint", 0.016),
    (46606, "Unified Layer", 0.013), (16276, "OVH", 0.0095), (24940, "Hetzner", 0.0092),
    (16417, "IronPort", 0.0091), (14618, "Amazon", 0.0088), (12824, "home.pl", 0.0054),
    (52129, "Proofpoint", 0.0043),
]

#: Table 3 (right): TwoWeekMX AS shares.
TWO_WEEK_MX_ASES: List[Tuple[int, str, float]] = [
    (15169, "Google", 0.32), (8075, "Microsoft", 0.20), (16509, "Amazon", 0.043),
    (22843, "Proofpoint", 0.041), (26211, "Proofpoint", 0.032), (30031, "Mimecast", 0.023),
    (14618, "Amazon", 0.017), (26496, "GoDaddy", 0.016), (46606, "Unified Layer", 0.013),
    (16417, "IronPort", 0.012),
]

#: Table 6: the 19 popular providers and their observed validation combos.
POPULAR_PROVIDERS: List[Tuple[str, bool, bool, bool]] = [
    ("hotmail.com", True, True, True),
    ("gmail.com", True, True, True),
    ("yahoo.com", True, True, True),
    ("aol.com", True, True, True),
    ("gmx.de", True, True, False),
    ("mail.ru", True, True, True),
    ("yahoo.co.in", True, True, True),
    ("comcast.net", True, True, True),
    ("web.de", True, True, False),
    ("qq.com", False, False, False),
    ("yahoo.co.jp", True, True, True),
    ("naver.com", True, True, True),
    ("163.com", False, False, False),
    ("libero.it", True, True, True),
    ("yandex.ru", True, True, True),
    ("daum.net", True, True, False),
    ("cox.net", True, True, True),
    ("att.net", False, False, False),
    ("wp.pl", True, True, True),
]

#: Table 7 marginal validation rates per Alexa tier (SPF, DKIM, DMARC).
TIER_MARGINALS: Dict[str, Tuple[float, float, float]] = {
    "rest": (0.85, 0.815, 0.525),
    "top1m": (0.88, 0.84, 0.67),
    "top1k": (0.93, 0.90, 0.79),
}

#: Hosted email-security gateways: SPF validation is their product, so
#: they validate synchronously and visibly even for postmaster probes.
_GATEWAY_PROVIDERS = frozenset({"Proofpoint", "Mimecast", "IronPort"})

_SYLLABLES = [
    "ba", "be", "bo", "ca", "ce", "co", "da", "de", "do", "fa", "fe", "fo",
    "ga", "ge", "go", "ka", "ke", "ko", "la", "le", "lo", "ma", "me", "mo",
    "na", "ne", "no", "pa", "pe", "po", "ra", "re", "ro", "sa", "se", "so",
    "ta", "te", "to", "va", "ve", "vo", "za", "ze", "zo", "mi", "ni", "ti",
]

_WORD_SUFFIXES = ["", "", "", "mail", "net", "corp", "tech", "soft", "host", "web"]


@dataclass
class MtaHost:
    """One receiving mail server in the universe."""

    mtaid: str
    hostname: str
    provider_key: str
    ipv4: Optional[str] = None
    ipv6: Optional[str] = None
    behavior: MtaBehavior = field(default_factory=MtaBehavior)

    def addresses(self) -> List[str]:
        return [address for address in (self.ipv4, self.ipv6) if address]


@dataclass
class Provider:
    """An email-hosting provider: one AS plus a pool of shared MTAs.

    Site-wide mail policy (recipient handling, postmaster whitelisting) is
    sampled once per provider: an organisation configures its whole MX
    fleet the same way, which is what keeps the paper's domain-level and
    MTA-level validation rates close together (Table 5).
    """

    key: str
    asn: int
    as_name: str
    prefix4: str
    prefix6: str
    mtas: List[MtaHost] = field(default_factory=list)
    domain_count: int = 0
    tier: str = "rest"
    #: Lazily sampled site policy: (recipient_mode, whitelists_postmaster).
    site_policy: Optional[Tuple[str, bool]] = None
    #: Lazily sampled site-wide (SPF, DKIM, DMARC) validation combo.
    combo: Optional[Tuple[bool, bool, bool]] = None


@dataclass
class Domain:
    """One email-recipient domain."""

    name: str
    tld: str
    domainid: str
    provider_key: str
    mta_hosts: List[MtaHost] = field(default_factory=list)
    alexa_rank: Optional[int] = None
    demand: int = 1
    is_local: bool = False
    resolution_failed: bool = False  # NotifyMX: MX yielded no addresses

    @property
    def alexa_tier(self) -> str:
        if self.alexa_rank is None:
            return "rest"
        if self.alexa_rank <= 1000:
            return "top1k"
        return "top1m"


@dataclass
class DatasetSpec:
    """Shape parameters of one universe."""

    name: str
    n_domains: int
    tld_weights: List[Tuple[str, float]]
    as_weights: List[Tuple[int, str, float]]
    n_tail_providers: int
    behavior_profile: BehaviorDistribution
    ipv6_mta_fraction: float = 0.09
    domains_per_tail_provider: float = 1.8
    mtas_per_domain: Tuple[int, int] = (1, 2)
    alexa_top1m: int = 0
    alexa_top1k: int = 0
    include_popular_providers: bool = False
    n_local_domains: int = 0
    local_suffix: str = "byu.edu"
    demand_zipf_exponent: float = 1.1
    p_mx_resolution_failure: float = 0.0
    #: Probability that a big-provider (top-10 AS) MTA whitelists
    #: postmaster regardless of the sampled behaviour.  Large providers
    #: gate sender validation behind reputation systems the probe never
    #: passes, which is what keeps the TwoWeekMX *domain* rate below its
    #: MTA rate (Section 6.3).
    big_provider_whitelist: Optional[float] = None

    @classmethod
    def notify_email(cls, scale: float = 1.0) -> "DatasetSpec":
        """The NotifyEmail/NotifyMX population (Tables 1-3, left columns)."""
        return cls(
            name="NotifyEmail",
            n_domains=max(30, int(26695 * scale)),
            tld_weights=NOTIFY_EMAIL_TLDS,
            as_weights=NOTIFY_EMAIL_ASES,
            n_tail_providers=max(10, int(10927 * scale)),
            behavior_profile=NOTIFY_EMAIL_PROFILE,
            ipv6_mta_fraction=0.09,
            alexa_top1m=max(2, int(2953 * scale)),
            alexa_top1k=max(1, int(87 * scale)),
            include_popular_providers=True,
            p_mx_resolution_failure=0.01,
        )

    @classmethod
    def two_week_mx(cls, scale: float = 1.0) -> "DatasetSpec":
        """The TwoWeekMX population (Tables 1-3, right columns)."""
        return cls(
            name="TwoWeekMX",
            n_domains=max(30, int(22548 * scale)),
            tld_weights=TWO_WEEK_MX_TLDS,
            as_weights=TWO_WEEK_MX_ASES,
            n_tail_providers=max(8, int(1785 * scale)),
            behavior_profile=TWO_WEEK_MX_PROFILE,
            ipv6_mta_fraction=0.042,
            domains_per_tail_provider=4.0,
            n_local_domains=max(1, int(27 * scale)),
            big_provider_whitelist=0.97,
        )


@dataclass
class Universe:
    """A fully generated population."""

    spec: DatasetSpec
    domains: List[Domain]
    providers: Dict[str, Provider]
    mtas: List[MtaHost]
    asmap: AsMap

    def domain_by_name(self, name: str) -> Optional[Domain]:
        for domain in self.domains:
            if domain.name == name:
                return domain
        return None

    def mta_by_id(self, mtaid: str) -> Optional[MtaHost]:
        for mta in self.mtas:
            if mta.mtaid == mtaid:
                return mta
        return None

    @property
    def unique_ipv4(self) -> List[str]:
        return [mta.ipv4 for mta in self.mtas if mta.ipv4]

    @property
    def unique_ipv6(self) -> List[str]:
        return [mta.ipv6 for mta in self.mtas if mta.ipv6]


# -- stable hashing -----------------------------------------------------------


def stable_hash64(text: str) -> int:
    """A 64-bit hash of ``text`` that is stable across processes and runs.

    Python's builtin ``hash()`` is salted per process (PYTHONHASHSEED), so
    anything that must agree between a campaign coordinator and its worker
    processes — such as the per-MTA probe-order seeds — goes through this
    instead.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# -- generation ---------------------------------------------------------------


def generate_universe(spec: DatasetSpec, seed: int = 0) -> Universe:
    """Generate one deterministic universe from ``spec`` and ``seed``."""
    rng = random.Random(seed)
    builder = _Builder(spec, rng)
    return builder.build()


class _Builder:
    def __init__(self, spec: DatasetSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.asmap = AsMap()
        self.providers: Dict[str, Provider] = {}
        self.domains: List[Domain] = []
        self.mtas: List[MtaHost] = []
        self._used_names: set = set()
        self._next_prefix4 = 0
        self._next_prefix6 = 0
        self._next_mta = 1
        self._next_domain = 1
        self._tilted_weights: Dict[str, Dict[Tuple[bool, bool, bool], float]] = {}

    # -- top level ------------------------------------------------------

    def build(self) -> Universe:
        self._make_providers()
        self._make_domains()
        self._assign_tiers()
        self._make_mtas()
        return Universe(
            spec=self.spec,
            domains=self.domains,
            providers=self.providers,
            mtas=self.mtas,
            asmap=self.asmap,
        )

    # -- providers ------------------------------------------------------

    def _make_providers(self) -> None:
        for asn, name, _share in self.spec.as_weights:
            key = "as%d" % asn
            if key not in self.providers:
                self.providers[key] = self._new_provider(key, asn, name)
        for index in range(self.spec.n_tail_providers):
            asn = 64512 + index  # private-use ASN range, then beyond
            key = "tail%d" % index
            self.providers[key] = self._new_provider(key, asn, "Tail-%d" % index)

    def _new_provider(self, key: str, asn: int, name: str) -> Provider:
        prefix4 = "10.%d.%d.0/24" % (self._next_prefix4 // 256, self._next_prefix4 % 256)
        prefix6 = "2001:db8:%x:%x::/64" % (self._next_prefix6 // 65536, self._next_prefix6 % 65536)
        self._next_prefix4 += 1
        self._next_prefix6 += 1
        self.asmap.announce(prefix4, asn, name)
        self.asmap.announce(prefix6, asn, name)
        return Provider(key=key, asn=asn, as_name=name, prefix4=prefix4, prefix6=prefix6)

    def _pick_provider(self) -> Provider:
        roll = self.rng.random()
        accumulated = 0.0
        for asn, _name, share in self.spec.as_weights:
            accumulated += share
            if roll < accumulated:
                return self.providers["as%d" % asn]
        index = self.rng.randrange(self.spec.n_tail_providers)
        return self.providers["tail%d" % index]

    # -- domains -----------------------------------------------------------

    def _make_domains(self) -> None:
        spec = self.spec
        if spec.include_popular_providers:
            for name, *_combo in POPULAR_PROVIDERS:
                self._add_domain(name, name.rsplit(".", 1)[1], self._pick_provider())
        for _ in range(spec.n_local_domains):
            name = "%s.%s" % (self._fresh_word(), spec.local_suffix)
            domain = self._add_domain(name, spec.local_suffix.rsplit(".", 1)[1], self._pick_provider())
            domain.is_local = True
        while len(self.domains) < spec.n_domains:
            tld = self._pick_tld()
            name = "%s.%s" % (self._fresh_word(), tld)
            self._add_domain(name, tld, self._pick_provider())
        # Demand counts follow a Zipf-like law over a shuffled ordering.
        order = list(range(len(self.domains)))
        self.rng.shuffle(order)
        for rank_minus_one, domain_index in enumerate(order):
            domain = self.domains[domain_index]
            base = 20000.0 / ((rank_minus_one + 1) ** spec.demand_zipf_exponent)
            domain.demand = max(1, int(base))
            if domain.is_local:
                domain.demand = 50000 + self.rng.randrange(10000)
        if spec.p_mx_resolution_failure:
            for domain in self.domains:
                if self.rng.random() < spec.p_mx_resolution_failure:
                    domain.resolution_failed = True

    def _add_domain(self, name: str, tld: str, provider: Provider) -> Domain:
        domain = Domain(
            name=name,
            tld=tld,
            domainid="d%05d" % self._next_domain,
            provider_key=provider.key,
        )
        self._next_domain += 1
        provider.domain_count += 1
        self.domains.append(domain)
        self._used_names.add(name)
        return domain

    def _pick_tld(self) -> str:
        roll = self.rng.random()
        accumulated = 0.0
        for tld, share in self.spec.tld_weights:
            accumulated += share
            if roll < accumulated:
                return tld
        return self.rng.choice(_OTHER_TLD_POOL)

    def _fresh_word(self) -> str:
        while True:
            length = self.rng.randint(2, 4)
            word = "".join(self.rng.choice(_SYLLABLES) for _ in range(length))
            word += self.rng.choice(_WORD_SUFFIXES)
            if word not in self._used_names:
                self._used_names.add(word)
                return word

    # -- Alexa tiers ------------------------------------------------------

    def _assign_tiers(self) -> None:
        spec = self.spec
        if not spec.alexa_top1m:
            return
        eligible = [domain for domain in self.domains if not domain.is_local]
        self.rng.shuffle(eligible)
        top1k = eligible[: spec.alexa_top1k]
        top1m = eligible[spec.alexa_top1k : spec.alexa_top1m]
        for domain in top1k:
            domain.alexa_rank = self.rng.randint(1, 1000)
        for domain in top1m:
            domain.alexa_rank = self.rng.randint(1001, 1000000)
        # Popular providers are, of course, highly ranked.
        popular_names = {name for name, *_ in POPULAR_PROVIDERS}
        for domain in self.domains:
            if domain.name in popular_names and domain.alexa_rank is None:
                domain.alexa_rank = self.rng.randint(1, 1000)
        for provider in self.providers.values():
            provider.tier = "rest"
        for domain in self.domains:
            provider = self.providers[domain.provider_key]
            if domain.alexa_tier == "top1k":
                provider.tier = "top1k"
            elif domain.alexa_tier == "top1m" and provider.tier == "rest":
                provider.tier = "top1m"

    # -- MTAs ------------------------------------------------------------

    def _make_mtas(self) -> None:
        spec = self.spec
        popular_combos = {name: combo for name, *combo in POPULAR_PROVIDERS}
        for domain in self.domains:
            provider = self.providers[domain.provider_key]
            pool_cap = self._pool_cap(provider)
            count = self.rng.randint(*spec.mtas_per_domain)
            hosts: List[MtaHost] = []
            for _ in range(count):
                if len(provider.mtas) >= pool_cap:
                    host = self.rng.choice(provider.mtas)
                else:
                    host = self._new_mta(provider, domain.alexa_tier)
                if host not in hosts:
                    hosts.append(host)
            if domain.name in popular_combos:
                spf, dkim, dmarc = popular_combos[domain.name]
                dedicated = self._new_mta(provider, "top1k")
                dedicated.behavior.validates_spf = spf
                dedicated.behavior.validates_dkim = dkim
                dedicated.behavior.validates_dmarc = dmarc
                dedicated.behavior.spf_fetch_only = False
                if spf:
                    from repro.mta.behavior import SpfTrigger

                    dedicated.behavior.spf_trigger = SpfTrigger.ON_MAIL
                hosts = [dedicated]
            domain.mta_hosts = hosts

    def _pool_cap(self, provider: Provider) -> int:
        if provider.key.startswith("tail"):
            return max(1, int(self.spec.domains_per_tail_provider / 1.5) + 1)
        # Big providers share aggressively: pool grows sub-linearly.
        return max(3, int(provider.domain_count ** 0.62))

    def _new_mta(self, provider: Provider, tier: str) -> MtaHost:
        index = len(provider.mtas) + 1
        base4 = provider.prefix4.split("/")[0].rsplit(".", 1)[0]
        ipv4 = "%s.%d" % (base4, (index % 250) + 1) if index <= 250 else None
        ipv6 = None
        if self.rng.random() < self.spec.ipv6_mta_fraction:
            ipv6 = "%s%x" % (provider.prefix6.split("/")[0], index)
        if provider.combo is None:
            # Validation deployment, like recipient policy, is configured
            # fleet-wide by the hosting organisation.  The top-10 providers
            # all run full validation stacks (Gmail, Outlook and the
            # security gateways are the canonical SPF/DKIM/DMARC shops).
            if provider.key.startswith("tail"):
                provider.combo = self._sample_tier_combo(tier)
            else:
                provider.combo = (True, True, True)
        behavior = sample_behavior(self.rng, self.spec.behavior_profile, combo=provider.combo)
        self._apply_site_policy(provider, behavior)
        host = MtaHost(
            mtaid="m%05d" % self._next_mta,
            hostname="mx%d.%s.mail.test" % (index, provider.key),
            provider_key=provider.key,
            ipv4=ipv4,
            ipv6=ipv6,
            behavior=behavior,
        )
        self._next_mta += 1
        provider.mtas.append(host)
        self.mtas.append(host)
        return host

    def _apply_site_policy(self, provider: Provider, behavior: MtaBehavior) -> None:
        """Overwrite per-MTA recipient/whitelist knobs with the provider's
        site-wide policy, sampling it on first use."""
        profile = self.spec.behavior_profile
        if provider.site_policy is None:
            big = (
                self.spec.big_provider_whitelist is not None
                and not provider.key.startswith("tail")
            )
            if big:
                # Top-10 providers host a third to a half of all domains
                # each experiment; their policy is an institutional fact,
                # not a coin flip: unknown recipients are rejected (the
                # probe ends up at postmaster) and sender validation is
                # gated behind reputation systems the probe never passes —
                # except at the security-gateway providers, whose entire
                # product is synchronous sender validation.
                mode = "postmaster-only"
                if provider.as_name in _GATEWAY_PROVIDERS:
                    # Gateways validate synchronously, but roughly half of
                    # the deployments exempt abuse/postmaster addresses.
                    whitelisted = self.rng.random() < 0.45
                else:
                    whitelisted = self.rng.random() < self.spec.big_provider_whitelist
            else:
                roll = self.rng.random()
                if roll < profile.p_rejects_all_recipients:
                    mode = "rejects-all"
                elif roll < profile.p_rejects_all_recipients + profile.p_accepts_any_recipient:
                    mode = "accept-any"
                else:
                    mode = "postmaster-only"
                whitelisted = self.rng.random() < profile.p_whitelists_postmaster
            provider.site_policy = (mode, whitelisted)
        mode, whitelists = provider.site_policy
        behavior.whitelists_postmaster = whitelists
        if mode == "rejects-all":
            behavior.accepts_any_recipient = False
            behavior.accepts_postmaster = False
            behavior.valid_users = frozenset()
        elif mode == "accept-any":
            behavior.accepts_any_recipient = True
            behavior.accepts_postmaster = True
        else:
            behavior.accepts_any_recipient = False
            behavior.accepts_postmaster = True

    def _sample_tier_combo(self, tier: str) -> Tuple[bool, bool, bool]:
        weights = self._tilted_weights.get(tier)
        if weights is None:
            if tier == "rest":
                # The bulk tier reproduces Table 4 directly; the Alexa
                # tiers are IPF-tilted toward Table 7's higher marginals.
                weights = {
                    combo: float(weight) for combo, weight in TABLE4_COMBO_WEIGHTS.items()
                }
            else:
                weights = tilt_combo_weights(TABLE4_COMBO_WEIGHTS, TIER_MARGINALS[tier])
            self._tilted_weights[tier] = weights
        items = list(weights.items())
        total = sum(weight for _, weight in items)
        point = self.rng.random() * total
        accumulated = 0.0
        for combo, weight in items:
            accumulated += weight
            if point < accumulated:
                return combo
        return items[-1][0]


def tilt_combo_weights(
    base: Dict[Tuple[bool, bool, bool], float],
    marginals: Tuple[float, float, float],
    iterations: int = 30,
) -> Dict[Tuple[bool, bool, bool], float]:
    """Iterative proportional fitting: reweight the Table 4 joint so its
    SPF/DKIM/DMARC marginals hit the per-tier targets of Table 7 while
    keeping the association structure of the observed joint."""
    weights = {combo: max(weight, 1e-9) for combo, weight in base.items()}
    total = sum(weights.values())
    weights = {combo: weight / total for combo, weight in weights.items()}
    for _ in range(iterations):
        for axis in range(3):
            target = marginals[axis]
            positive = sum(weight for combo, weight in weights.items() if combo[axis])
            negative = 1.0 - positive
            if positive <= 0 or negative <= 0:
                continue
            for combo in weights:
                if combo[axis]:
                    weights[combo] *= target / positive
                else:
                    weights[combo] *= (1.0 - target) / negative
    return weights
