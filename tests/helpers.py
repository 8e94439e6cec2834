"""Shared test scaffolding: a miniature Internet in a box.

``World`` wires a virtual network, one authoritative server, an authority
directory and a resolver factory together, so individual tests only add
the records they care about.
"""

from __future__ import annotations

from typing import Optional

from repro.dns.rdata import SoaRecord
from repro.dns.resolver import AuthorityDirectory, Resolver, ResolverConfig
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.net.clock import Clock
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry

AUTH_IP = "198.51.100.53"
AUTH_IP6 = "2001:db8:a::53"
RESOLVER_IP = "203.0.113.11"
RESOLVER_IP6 = "2001:db8:c::11"


class World:
    """A network with one authoritative server and easy zone/record setup."""

    def __init__(self, seed: int = 0, latency_low: float = 0.005, latency_high: float = 0.05) -> None:
        self.clock = Clock()
        self.network = Network(UniformLatency(latency_low, latency_high, seed=seed), self.clock)
        self.server = AuthoritativeServer()
        self.server.attach(self.network, AUTH_IP, AUTH_IP6)
        self.directory = AuthorityDirectory()

    def zone(self, origin: str, register: bool = True) -> Zone:
        zone = Zone(origin, soa=SoaRecord("ns1.%s" % origin, "hostmaster.%s" % origin))
        self.server.add_zone(zone)
        if register:
            self.directory.register(origin, AUTH_IP, AUTH_IP6)
        return zone

    def resolver(
        self,
        config: Optional[ResolverConfig] = None,
        address4: Optional[str] = RESOLVER_IP,
        address6: Optional[str] = None,
    ) -> Resolver:
        return Resolver(self.network, self.directory, address4=address4, address6=address6, config=config)


def count_injections(plan: FaultPlan) -> MetricsRegistry:
    """Route ``plan``'s injections into a fresh registry and return it;
    :func:`repro.net.faults.injected_by_kind` reads the tally."""
    obs = Observability()
    plan.attach_obs(obs)
    return obs.metrics
