"""The synthesizing authoritative DNS server (paper Section 4.5).

Hosting the experiments statically would require ~27.8 million records
(704 per MTA × 39,533 MTAs).  The paper's solution — reproduced here — is
an authoritative server that *synthesizes* responses from the query name:
it recognises the ``<sublabels>.<testid>.<mtaid>.<suffix>`` pattern,
routes to the matching test policy, and fabricates the records on the
fly.  Per-query response delays and forced UDP truncation come from the
policy definitions too.

Three suffixes are served:

* the probe suffix (``spf-test.dns-lab.org``) for NotifyMX / TwoWeekMX,
* an IPv6-only suffix (reachable only at the server's IPv6 address) for
  the ``ipv6_only`` test policy, and
* the NotifyEmail suffix (``dsav-mail.dns-lab.org``), keyed by domainid
  instead of (testid, mtaid).

The inherited query log *is* the experiment's measurement output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import (
    NOTIFY_POLICY,
    POLICIES,
    PolicyContext,
    TestPolicy,
)
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import Rcode, RdataType, ResourceRecord, SoaRecord
from repro.dns.resolver import AuthorityDirectory
from repro.dns.server import AuthoritativeServer
from repro.net.network import Network
from repro.obs import Observability


@lru_cache(maxsize=None)
def _synth_labels(experiment: str, outcome: str) -> tuple:
    # Experiments and outcomes form a tiny closed set; memoizing keeps
    # the per-query hot path from rebuilding the same label tuples.
    return (("experiment", experiment), ("outcome", outcome))


#: Sentinel distinguishing "not cached yet" from a cached parse failure.
_UNSET = object()

#: Bound on the per-server response cache.  Synthesis is a pure function
#: of the query, so eviction (we simply clear) can never change an
#: answer — only cost a recomputation.
_CACHE_LIMIT = 65536


@dataclass
class SynthConfig:
    """Deployment parameters of the synthesizing server."""

    probe_suffix: str = "spf-test.dns-lab.org"
    v6_suffix: str = "spf-test-v6.dns-lab.org"
    notify_suffix: str = "dsav-mail.dns-lab.org"
    contact_rname: str = "contact.dns-lab.org"
    server_ipv4: str = "198.51.100.53"
    server_ipv6: str = "2001:db8:53::53"
    probe_ipv4: str = "203.0.113.250"
    probe_ipv6: str = "2001:db8:fe::250"
    #: Real sender addresses (authorized by the NotifyEmail policy).
    sender_ips: Sequence[str] = ()
    dkim_key_b64: str = ""
    #: Fills an empty ``dkim_key_b64`` on first use (only NotifyEmail needs it).
    dkim_key_source: Optional[Callable[[], str]] = field(default=None, repr=False, compare=False)
    ttl: int = 60
    policies: Sequence[TestPolicy] = field(default_factory=lambda: list(POLICIES))

    def dkim_key(self) -> str:
        """The published DKIM public key (base64)."""
        if not self.dkim_key_b64 and self.dkim_key_source is not None:
            self.dkim_key_b64 = self.dkim_key_source()
        return self.dkim_key_b64


class SynthesizingAuthority(AuthoritativeServer):
    """Answers everything under its suffixes by synthesis."""

    def __init__(
        self,
        config: Optional[SynthConfig] = None,
        obs: Optional[Observability] = None,
        faults=None,
    ) -> None:
        super().__init__(zones=[], obs=obs, faults=faults)
        self.config = config if config is not None else SynthConfig()
        self._policies = {policy.testid: policy for policy in self.config.policies}
        config = self.config
        self._probe_suffix = Name(config.probe_suffix)
        self._v6_suffix = Name(config.v6_suffix)
        self._notify_suffix = Name(config.notify_suffix)
        # Per served suffix, in matching order: its name, its experiment
        # label, the SOA it publishes (``ns1.<suffix>`` with the abuse
        # contact of s5.3 as RNAME) and the authority record negative
        # answers carry.  Built once: none of them ever varies.
        self._suffixes: List[Tuple[Name, str, SoaRecord, ResourceRecord]] = []
        for suffix, experiment in (
            (self._probe_suffix, "probe"),
            (self._v6_suffix, "v6"),
            (self._notify_suffix, "notify"),
        ):
            soa = SoaRecord(Name(("ns1",) + suffix.labels), config.contact_rname)
            self._suffixes.append((suffix, experiment, soa, ResourceRecord(suffix, config.ttl, soa)))
        self.response_delay = self._policy_delay
        self.force_tcp_for = self._policy_force_tcp
        # Per-query synthesis is pure (policies are static, the context is
        # a function of the qname), and the server parses each query's
        # name up to three times: the delay hook, the force-TCP hook, and
        # resolve() itself.  Campaign traffic also repeats names heavily
        # (every validating MTA walks the same per-policy record graph),
        # so memoize both the parse and the answer.
        # Name's hash/equality are case-insensitive and _parse lowercases,
        # so DNS 0x20-randomized repeats of one name share an entry.
        self._parse_cache: Dict[Name, object] = {}
        self._answer_cache: Dict[Tuple[Name, RdataType], object] = {}

    # -- deployment ------------------------------------------------------

    def deploy(self, network: Network, directory: AuthorityDirectory) -> None:
        """Attach to the network and register suffix delegations.

        The IPv6-only suffix is registered with *only* the IPv6 server
        address — that asymmetry is the whole point of the ``ipv6_only``
        test policy.
        """
        config = self.config
        self.attach(network, config.server_ipv4, config.server_ipv6)
        directory.register(config.probe_suffix, config.server_ipv4, config.server_ipv6)
        directory.register(config.notify_suffix, config.server_ipv4, config.server_ipv6)
        directory.register(config.v6_suffix, config.server_ipv6)

    # -- name parsing -------------------------------------------------------

    def _parse(self, qname: Name) -> Optional[Tuple[TestPolicy, Tuple[str, ...], PolicyContext]]:
        """Decompose ``qname`` into (policy, sublabels, context)."""
        config = self.config
        for suffix, suffix_text in (
            (self._probe_suffix, config.probe_suffix),
            (self._v6_suffix, config.v6_suffix),
        ):
            if not qname.is_subdomain_of(suffix):
                continue
            relative = tuple(label.lower() for label in qname.relativize(suffix))
            if len(relative) < 2:
                return None
            mtaid = relative[-1]
            testid = relative[-2]
            sub = relative[:-2]
            policy = self._policies.get(testid)
            if policy is None:
                return None
            context = PolicyContext(
                base="%s.%s.%s" % (testid, mtaid, config.probe_suffix),
                mtaid=mtaid,
                testid=testid,
                v6_base="%s.%s.%s" % (testid, mtaid, config.v6_suffix),
                helo_base="h.%s.%s.%s" % (testid, mtaid, config.probe_suffix),
                probe_ipv4=config.probe_ipv4,
                probe_ipv6=config.probe_ipv6,
                valid_sender_ips=config.sender_ips,
            )
            return policy, sub, context
        if qname.is_subdomain_of(self._notify_suffix):
            relative = tuple(label.lower() for label in qname.relativize(self._notify_suffix))
            if not relative:
                return None
            domainid = relative[-1]
            sub = relative[:-1]
            context = PolicyContext(
                base="%s.%s" % (domainid, config.notify_suffix),
                mtaid=domainid,
                testid="notify",
                probe_ipv4=config.probe_ipv4,
                probe_ipv6=config.probe_ipv6,
                valid_sender_ips=config.sender_ips,
                dkim_key_b64=config.dkim_key(),
            )
            return NOTIFY_POLICY, sub, context
        return None

    def _parse_cached(
        self, qname: Name
    ) -> Optional[Tuple[TestPolicy, Tuple[str, ...], PolicyContext]]:
        cached = self._parse_cache.get(qname, _UNSET)
        if cached is _UNSET:
            if len(self._parse_cache) >= _CACHE_LIMIT:
                self._parse_cache.clear()
            cached = self._parse_cache[qname] = self._parse(qname)
        return cached  # type: ignore[return-value]

    def _respond(self, qname: Name, qtype: RdataType):
        """The policy's (memoized) answer for ``(qname, qtype)``.

        Returns ``None`` for names that do not parse.  Cached responses
        are shared between queries — callers must treat the synthesized
        records as immutable (they already do: responses are assembled
        record-by-record and only ever read).
        """
        key = (qname, qtype)
        cached = self._answer_cache.get(key, _UNSET)
        if cached is _UNSET:
            parsed = self._parse_cached(qname)
            if parsed is None:
                cached = None
            else:
                policy, sub, context = parsed
                cached = policy.respond(sub, qtype, context)
            if len(self._answer_cache) >= _CACHE_LIMIT:
                self._answer_cache.clear()
            self._answer_cache[key] = cached
        return cached

    # -- server hooks ------------------------------------------------------

    def resolve(self, query: Message, transport: str, client_ip: str, t_arrival: float) -> Message:
        response = query.make_response()
        qname, qtype = query.qname, query.qtype
        if qname is None or qtype is None:
            response.flags.rcode = Rcode.FORMERR
            return response
        owner = self._owning_suffix(qname)
        if owner is None:
            self._count_synth("foreign", "refused", t_arrival)
            response.flags.rcode = Rcode.REFUSED
            return response
        suffix, experiment, soa, soa_record = owner
        response.flags.aa = True
        ttl = self.config.ttl
        if qname == suffix and qtype == RdataType.SOA:
            response.answer.append(ResourceRecord(qname, ttl, soa))
            self._count_synth(experiment, "soa", t_arrival)
            return response
        synthesized = self._respond(qname, qtype)
        if synthesized is None or synthesized.nxdomain:
            response.authority.append(soa_record)
            response.flags.rcode = Rcode.NXDOMAIN
            self._count_synth(experiment, "nxdomain", t_arrival)
            return response
        if not synthesized.records:
            response.authority.append(soa_record)
            self._count_synth(experiment, "nodata", t_arrival)
            return response
        for rdata in synthesized.records:
            response.answer.append(ResourceRecord(qname, ttl, rdata))
        self._count_synth(experiment, "records", t_arrival)
        return response

    def _count_synth(self, experiment: str, outcome: str, t_arrival: float) -> None:
        self.obs.metrics.counter(
            "synth_responses_total", _synth_labels(experiment, outcome), t=t_arrival
        )

    def _owning_suffix(self, qname: Name) -> Optional[Tuple[Name, str, SoaRecord, ResourceRecord]]:
        """The served suffix ``qname`` falls under, with its experiment
        label, SOA rdata and negative-answer authority record."""
        for owner in self._suffixes:
            if qname.is_subdomain_of(owner[0]):
                return owner
        return None

    # -- per-query options ----------------------------------------------
    #
    # Both depend on the policy and the sublabels alone, never on the
    # query type or the records, so neither synthesizes an answer.

    def _policy_delay(self, qname: Name, qtype: RdataType) -> float:
        parsed = self._parse_cached(qname)
        return parsed[0].delay_for(parsed[1]) if parsed is not None else 0.0

    def _policy_force_tcp(self, qname: Name) -> bool:
        parsed = self._parse_cached(qname)
        return parsed[0].force_tcp_for(parsed[1]) if parsed is not None else False
