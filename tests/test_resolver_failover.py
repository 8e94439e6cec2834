"""Multi-server failover, retry/backoff, and fault-plan determinism.

Regression coverage for the resolver's candidate loop: a timed-out
server must *not* be silently retried against the next candidate (the
``retry_next_server`` contract), while unreachable / refused / SERVFAIL
servers must fail over; and a :class:`~repro.net.retry.RetryPolicy`
must re-try the *same* server on its exponential virtual-time schedule
before moving on.
"""

import pytest

from repro.dns.rdata import RdataType, SoaRecord, TxtRecord
from repro.dns.resolver import (
    AnswerStatus,
    AuthorityDirectory,
    Resolver,
    ResolverConfig,
)
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.net import Clock, Network, UniformLatency
from repro.net.faults import FaultPlan, injected_by_kind
from repro.net.retry import RetryPolicy
from tests.helpers import count_injections

PRIMARY_IP = "198.51.100.1"
SECONDARY_IP = "198.51.100.2"
RESOLVER_IP = "203.0.113.11"
ZONE = "failover.test"


def make_zone():
    zone = Zone(ZONE, soa=SoaRecord("ns1.%s" % ZONE, "hostmaster.%s" % ZONE))
    zone.add(ZONE, TxtRecord("v=spf1 -all"))
    return zone


class TwoServerWorld:
    """A zone served by a primary and a secondary authoritative server."""

    def __init__(self, seed=17, attach_primary=True, primary_faults=None):
        self.network = Network(UniformLatency(0.005, 0.02, seed=seed), Clock())
        self.directory = AuthorityDirectory()
        self.primary = AuthoritativeServer(faults=primary_faults)
        self.secondary = AuthoritativeServer()
        if attach_primary:
            self.primary.attach(self.network, PRIMARY_IP)
        else:
            # Registered in the directory but absent from the network:
            # the delegation points at a host that does not exist.
            pass
        self.secondary.attach(self.network, SECONDARY_IP)
        self.primary.add_zone(make_zone())
        self.secondary.add_zone(make_zone())
        self.directory.register(ZONE, PRIMARY_IP, SECONDARY_IP)

    def resolver(self, config=None):
        return Resolver(
            self.network, self.directory, address4=RESOLVER_IP, config=config
        )


class TestFailover:
    def test_timeout_does_not_try_the_next_server(self):
        # The satellite regression: a server that *answers too late* is a
        # resolver-side timeout, and the candidate loop must stop — not
        # replay the query against the secondary as if nothing happened.
        world = TwoServerWorld()
        world.primary.response_delay = lambda qname, qtype: 60.0
        answer, t = world.resolver().query_at(ZONE, RdataType.TXT, 0.0)
        assert answer.status is AnswerStatus.TIMEOUT
        assert len(world.primary.query_log) == 1
        assert len(world.secondary.query_log) == 0  # never consulted
        assert t == pytest.approx(ResolverConfig().timeout, abs=0.1)

    def test_last_status_reflects_the_actual_failure(self):
        # Even with no failover, the synthesized failure answer must say
        # *timeout*, not the loop-initialisation default (unreachable).
        world = TwoServerWorld()
        world.primary.response_delay = lambda qname, qtype: 60.0
        answer, _ = world.resolver().query_at(ZONE, RdataType.TXT, 0.0)
        assert answer.status is AnswerStatus.TIMEOUT

    def test_unreachable_primary_fails_over(self):
        world = TwoServerWorld(attach_primary=False)
        answer, _ = world.resolver().query_at(ZONE, RdataType.TXT, 0.0)
        assert answer.status is AnswerStatus.SUCCESS
        assert answer.server_ip == SECONDARY_IP
        assert len(world.secondary.query_log) == 1

    def test_servfail_primary_fails_over(self):
        world = TwoServerWorld(
            primary_faults=FaultPlan.parse("servfail:1.0", seed=3)
        )
        answer, _ = world.resolver().query_at(ZONE, RdataType.TXT, 0.0)
        assert answer.status is AnswerStatus.SUCCESS
        assert answer.server_ip == SECONDARY_IP
        # The primary *did* answer (with SERVFAIL) — both servers were
        # consulted, unlike the timeout case.
        assert len(world.primary.query_log) == 1

    def test_all_servers_failing_returns_last_rcode_answer(self):
        world = TwoServerWorld(
            primary_faults=FaultPlan.parse("servfail:1.0", seed=3)
        )
        world.secondary.faults = FaultPlan.parse("refused:1.0", seed=3)
        answer, _ = world.resolver().query_at(ZONE, RdataType.TXT, 0.0)
        assert answer.status.is_error
        assert len(world.primary.query_log) == 1
        assert len(world.secondary.query_log) == 1


class TestRetryPolicyIntegration:
    def test_lost_datagrams_retried_on_backoff_schedule(self):
        plan = FaultPlan.parse("udp_loss:1.0", seed=7)
        injections = count_injections(plan)
        world = TwoServerWorld()
        world.network.faults = plan
        config = ResolverConfig(
            retry=RetryPolicy(attempts=3, backoff=2.0, timeout=1.0)
        )
        answer, t = world.resolver(config).query_at(ZONE, RdataType.TXT, 0.0)
        assert answer.status is AnswerStatus.TIMEOUT
        # Per candidate: try (1s) + backoff 2s + try + backoff 4s + try
        # = 9s; packet loss is retryable, so both candidates are walked.
        assert t == pytest.approx(18.0)
        assert injected_by_kind(injections) == {"udp_loss": 6}

    def test_partial_loss_recovers_within_budget(self):
        # With a 50% loss plan and three attempts per server, most
        # queries should still resolve — graceful degradation, not
        # collapse.
        plan = FaultPlan.parse("udp_loss:0.5", seed=11)
        world = TwoServerWorld()
        world.network.faults = plan
        config = ResolverConfig(
            retry=RetryPolicy(attempts=3, backoff=1.0, timeout=1.0), use_cache=False
        )
        resolver = world.resolver(config)
        statuses = []
        t = 0.0
        for _ in range(20):
            answer, t = resolver.query_at(ZONE, RdataType.TXT, t + 1.0)
            statuses.append(answer.status)
        assert statuses.count(AnswerStatus.SUCCESS) >= 15

    def test_retry_timeout_overrides_config_timeout(self):
        world = TwoServerWorld()
        world.primary.response_delay = lambda qname, qtype: 60.0
        config = ResolverConfig(retry=RetryPolicy(attempts=1, timeout=0.5))
        answer, t = world.resolver(config).query_at(ZONE, RdataType.TXT, 0.0)
        assert answer.status is AnswerStatus.TIMEOUT
        assert t == pytest.approx(0.5, abs=0.01)


class TestDeterminism:
    def _outcomes(self, spec, seed, world_seed=17):
        plan = FaultPlan.parse(spec, seed=seed)
        world = TwoServerWorld(seed=world_seed)
        world.network.faults = plan
        config = ResolverConfig(
            retry=RetryPolicy(attempts=2, backoff=1.0, timeout=1.0), use_cache=False
        )
        resolver = world.resolver(config)
        out = []
        t = 0.0
        for index in range(30):
            answer, t = resolver.query_at(ZONE, RdataType.TXT, t + float(index))
            out.append((answer.status.value, round(t, 6)))
        return out

    def test_identical_across_runs(self):
        spec = "udp_loss:0.4"
        assert self._outcomes(spec, seed=5) == self._outcomes(spec, seed=5)

    def test_seed_changes_the_fault_pattern(self):
        spec = "udp_loss:0.4"
        assert self._outcomes(spec, seed=5) != self._outcomes(spec, seed=6)
