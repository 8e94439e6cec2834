"""Tests for the deterministic fault-injection subsystem."""

import pytest

from repro.dns.rdata import Rcode, RdataType, TxtRecord
from repro.net import Clock, Network, UniformLatency
from repro.net.errors import ConnectionRefused, ConnectionResetByPeer, PacketLost
from repro.net.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    derive_fault_seed,
    injected_by_kind,
)
from repro.net.retry import NO_RETRY, RetryPolicy
from repro.obs import Observability
from repro.obs.export import render_metrics_text
from repro.smtp.client import SmtpClient
from repro.smtp.errors import SmtpClientError
from repro.smtp.server import SmtpServer, SmtpSession
from tests.helpers import World, count_injections


def plan_of(spec, seed=0):
    return FaultPlan.parse(spec, seed=seed)


class TestParsing:
    def test_spec_round_trip(self):
        plan = plan_of("udp_loss:0.2,servfail:0.1@example.com,banner_delay:0.3:45")
        assert [r.kind for r in plan.rules] == [
            FaultKind.UDP_LOSS,
            FaultKind.SERVFAIL,
            FaultKind.BANNER_DELAY,
        ]
        assert plan.rules[0].probability == 0.2
        assert plan.rules[1].where == "example.com"
        assert plan.rules[2].param == 45.0

    def test_delay_defaults(self):
        plan = plan_of("udp_delay:1.0,banner_delay:1.0")
        assert plan.rules[0].param == 7.5
        assert plan.rules[1].param == 30.0

    def test_json_form(self):
        plan = plan_of('[{"kind": "tcp_reset", "probability": 0.5, "where": "25"}]')
        assert plan.rules[0].kind is FaultKind.TCP_RESET
        assert plan.rules[0].where == "25"

    def test_empty_specs_are_empty_plans(self):
        assert plan_of("").empty
        assert plan_of("  ").empty
        assert plan_of(",").empty

    @pytest.mark.parametrize(
        "bad",
        [
            "nosuchkind:0.5",
            "udp_loss",
            "udp_loss:high",
            "udp_loss:1.5",
            "udp_loss:0.5:-1",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            plan_of(bad)

    def test_json_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            plan_of('[{"kind": "udp_loss", "probability": 0.5, "oops": 1}]')


class TestRuleMatching:
    def test_unscoped_matches_everything(self):
        rule = FaultRule(FaultKind.UDP_LOSS, 1.0)
        assert rule.matches("198.51.100.53", 53)

    def test_port_scope(self):
        rule = FaultRule(FaultKind.TCP_REFUSE, 1.0, where="25")
        assert rule.matches("anything", 25)
        assert not rule.matches("anything", 53)

    def test_suffix_scope(self):
        rule = FaultRule(FaultKind.SERVFAIL, 1.0, where="example.com")
        assert rule.matches("mail.example.com", None)
        assert rule.matches("example.com", None)
        assert not rule.matches("example.org", None)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = plan_of("udp_loss:0.5", seed=99)
        b = plan_of("udp_loss:0.5", seed=99)
        events = [("1.2.3.4", "5.6.7.8", float(i)) for i in range(200)]
        draws_a = [a.fires(FaultKind.UDP_LOSS, s, d, t) is not None for s, d, t in events]
        draws_b = [b.fires(FaultKind.UDP_LOSS, s, d, t) is not None for s, d, t in events]
        assert draws_a == draws_b
        # Mid-probability means both outcomes occur over 200 events.
        assert any(draws_a) and not all(draws_a)

    def test_different_seed_different_draws(self):
        a = plan_of("udp_loss:0.5", seed=1)
        b = plan_of("udp_loss:0.5", seed=2)
        events = [("1.2.3.4", "5.6.7.8", float(i)) for i in range(200)]
        assert [a.fires(FaultKind.UDP_LOSS, s, d, t) for s, d, t in events] != [
            b.fires(FaultKind.UDP_LOSS, s, d, t) for s, d, t in events
        ]

    def test_probability_extremes(self):
        always = plan_of("udp_loss:1.0")
        never = plan_of("udp_loss:0.0")
        assert always.fires(FaultKind.UDP_LOSS, "a", "b", 1.0) is not None
        assert never.fires(FaultKind.UDP_LOSS, "a", "b", 1.0) is None

    def test_empty_plan_never_fires(self):
        plan = plan_of("")
        injections = count_injections(plan)
        assert plan.fires(FaultKind.UDP_LOSS, "a", "b", 1.0) is None
        assert injected_by_kind(injections) == {}

    def test_derive_fault_seed_is_stable_and_spec_sensitive(self):
        assert derive_fault_seed("udp_loss:0.5", 2021) == derive_fault_seed(
            "udp_loss:0.5", 2021
        )
        assert derive_fault_seed("udp_loss:0.5", 2021) != derive_fault_seed(
            "udp_loss:0.5", 2022
        )
        assert derive_fault_seed("udp_loss:0.5", 2021) != derive_fault_seed(
            "servfail:0.5", 2021
        )


def make_network(spec, seed=0):
    plan = plan_of(spec, seed=seed)
    network = Network(UniformLatency(0.005, 0.02, seed=3), Clock(), faults=plan)
    return network, count_injections(plan)


class TestNetworkInjection:
    def test_udp_loss_drops_before_the_handler(self):
        network, injections = make_network("udp_loss:1.0")
        seen = []

        def handler(payload, src, transport, t):
            seen.append(payload)
            return b"reply", 0.0

        network.listen_udp("10.0.0.2", 53, handler)
        network.add_address("10.0.0.1")
        with pytest.raises(PacketLost):
            network.udp_request("10.0.0.1", "10.0.0.2", 53, b"hello", 0.0)
        assert seen == []  # the server never saw the datagram
        assert injected_by_kind(injections) == {"udp_loss": 1}

    def test_udp_delay_slows_the_reply(self):
        slow, _ = make_network("udp_delay:1.0:9.0")
        fast, _ = make_network("")

        def handler(payload, src, transport, t):
            return b"reply", 0.0

        for network in (slow, fast):
            network.listen_udp("10.0.0.2", 53, handler)
            network.add_address("10.0.0.1")
        _, t_slow = slow.udp_request("10.0.0.1", "10.0.0.2", 53, b"x", 0.0)
        _, t_fast = fast.udp_request("10.0.0.1", "10.0.0.2", 53, b"x", 0.0)
        assert t_slow == pytest.approx(t_fast + 9.0)

    def test_tcp_refuse_scoped_by_port(self):
        network, injections = make_network("tcp_refuse:1.0@25")
        network.listen_tcp("10.0.0.2", 25, lambda ip, t: _Session())
        network.listen_tcp("10.0.0.2", 53, lambda ip, t: _Session())
        network.add_address("10.0.0.1")
        with pytest.raises(ConnectionRefused) as info:
            network.connect_tcp("10.0.0.1", "10.0.0.2", 25, 5.0)
        assert info.value.t is not None and info.value.t > 5.0
        # The same plan leaves port 53 alone.
        channel = network.connect_tcp("10.0.0.1", "10.0.0.2", 53, 5.0)
        assert channel.greeting == b"hi"
        assert injected_by_kind(injections) == {"tcp_refuse": 1}

    def test_tcp_reset_mid_conversation_closes_the_session(self):
        network, injections = make_network("tcp_reset:1.0")
        session = _Session()
        network.listen_tcp("10.0.0.2", 25, lambda ip, t: session)
        network.add_address("10.0.0.1")
        channel = network.connect_tcp("10.0.0.1", "10.0.0.2", 25, 0.0)
        with pytest.raises(ConnectionResetByPeer) as info:
            channel.request(b"EHLO", channel.t_established)
        assert info.value.t is not None
        assert session.closed_at is not None  # server observed the teardown
        assert session.data == []  # the request never arrived
        assert injected_by_kind(injections) == {"tcp_reset": 1}


class _Session:
    def __init__(self):
        self.data = []
        self.closed_at = None

    def on_connect(self, t):
        return b"hi"

    def on_data(self, data, t):
        self.data.append(data)
        return b"ok", 0.0

    def on_close(self, t):
        self.closed_at = t


class TestDnsServerInjection:
    def _world(self, spec, seed=0):
        world = World(seed=5)
        world.server.faults = plan_of(spec, seed=seed)
        zone = world.zone("faulty.test")
        zone.add("faulty.test", TxtRecord("v=spf1 -all"))
        return world

    def test_servfail_rcode(self):
        world = self._world("servfail:1.0")
        injections = count_injections(world.server.faults)
        answer, _ = world.resolver().query_at("faulty.test", RdataType.TXT, 0.0)
        assert answer.status.is_error
        assert answer.rcode is Rcode.SERVFAIL
        assert injected_by_kind(injections) == {"servfail": 1}

    def test_refused_rcode(self):
        world = self._world("refused:1.0")
        answer, _ = world.resolver().query_at("faulty.test", RdataType.TXT, 0.0)
        assert answer.status.is_error

    def test_faulted_queries_still_logged(self):
        # The rcode kinds inject *after* query logging: both measurement
        # witnesses (server log, client span) must agree the exchange
        # happened.
        world = self._world("servfail:1.0")
        world.resolver().query_at("faulty.test", RdataType.TXT, 0.0)
        assert len(world.server.query_log) == 1

    def test_truncate_with_tcp_fallback_recovers(self):
        world = self._world("truncate:1.0")
        answer, _ = world.resolver().query_at("faulty.test", RdataType.TXT, 0.0)
        assert answer.status.value == "success"
        assert answer.transport == "tcp"

    def test_truncate_without_working_tcp_fails(self):
        # The paper's Section 7.3 failure mode: TC=1 over UDP and a
        # broken TCP path (here: every port-53 connect is refused).
        world = self._world("truncate:1.0,tcp_refuse:1.0@53")
        world.network.faults = world.server.faults
        answer, _ = world.resolver().query_at("faulty.test", RdataType.TXT, 0.0)
        assert answer.status.is_error

    def test_where_scopes_to_qname_suffix(self):
        world = self._world("servfail:1.0@other.test")
        answer, _ = world.resolver().query_at("faulty.test", RdataType.TXT, 0.0)
        assert answer.status.value == "success"


SMTP_SERVER_IP = "198.51.100.25"
SMTP_CLIENT_IP = "203.0.113.25"


class TestSmtpBannerInjection:
    def _network(self, spec, seed=0):
        plan = plan_of(spec, seed=seed)
        network = Network(UniformLatency(0.005, 0.02, seed=9), Clock(), faults=plan)

        class Faulted(SmtpSession):
            banner_host = "mx.faulty.test"
            faults = plan

        SmtpServer(Faulted).attach(network, SMTP_SERVER_IP)
        network.add_address(SMTP_CLIENT_IP)
        return network, count_injections(plan)

    def test_banner_absent_fails_connect(self):
        network, injections = self._network("banner_absent:1.0")
        with pytest.raises(SmtpClientError) as info:
            SmtpClient.connect(network, SMTP_CLIENT_IP, SMTP_SERVER_IP, 0.0)
        assert "banner" in str(info.value)
        assert injected_by_kind(injections) == {"banner_absent": 1}

    def test_banner_delay_beyond_timeout_fails_at_deadline(self):
        network, _ = self._network("banner_delay:1.0:60")
        with pytest.raises(SmtpClientError) as info:
            SmtpClient.connect(
                network, SMTP_CLIENT_IP, SMTP_SERVER_IP, 0.0, banner_timeout=30.0
            )
        assert info.value.t == pytest.approx(30.0)

    def test_banner_delay_within_patience_just_costs_time(self):
        network, _ = self._network("banner_delay:1.0:60")
        client, t = SmtpClient.connect(network, SMTP_CLIENT_IP, SMTP_SERVER_IP, 0.0)
        assert client.greeting.code == 220
        assert t > 60.0

    def test_connect_retry_eventually_gives_up(self):
        network, injections = self._network("banner_absent:1.0")
        retry = RetryPolicy(attempts=3, backoff=4.0)
        with pytest.raises(SmtpClientError):
            SmtpClient.connect(
                network, SMTP_CLIENT_IP, SMTP_SERVER_IP, 0.0, retry=retry
            )
        assert injected_by_kind(injections) == {"banner_absent": 3}


class TestConnectStamps:
    def test_refused_connect_error_carries_rst_arrival_time(self):
        # The satellite fix: every connect outcome is stamped with the
        # virtual time the outcome was *known* — for a refusal that is
        # the RST's arrival, one RTT after the dial, not the dial time.
        network = Network(UniformLatency(0.005, 0.02, seed=4), Clock())
        network.add_address(SMTP_CLIENT_IP)
        network.add_address(SMTP_SERVER_IP)  # host exists, nothing listens
        with pytest.raises(SmtpClientError) as info:
            SmtpClient.connect(network, SMTP_CLIENT_IP, SMTP_SERVER_IP, 10.0)
        assert info.value.t is not None
        assert info.value.t > 10.0

    def test_nobanner_error_stamped_at_deadline(self):
        plan = plan_of("banner_absent:1.0")
        network = Network(UniformLatency(0.005, 0.02, seed=4), Clock(), faults=plan)

        class Faulted(SmtpSession):
            banner_host = "mx.faulty.test"
            faults = plan

        SmtpServer(Faulted).attach(network, SMTP_SERVER_IP)
        network.add_address(SMTP_CLIENT_IP)
        with pytest.raises(SmtpClientError) as info:
            SmtpClient.connect(
                network, SMTP_CLIENT_IP, SMTP_SERVER_IP, 0.0, banner_timeout=12.0
            )
        assert info.value.t == pytest.approx(12.0)


class TestObservability:
    def test_injections_counted_per_kind(self):
        plan = plan_of("udp_loss:1.0")
        obs = Observability()
        plan.attach_obs(obs)
        plan.inject(FaultKind.UDP_LOSS, "a", "b", 1.0)
        plan.inject(FaultKind.UDP_LOSS, "a", "b", 2.0)
        text = render_metrics_text(obs.metrics)
        assert "faults_injected_total{kind=udp_loss}" in text
        assert injected_by_kind(obs.metrics) == {"udp_loss": 2}


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(attempts=4, backoff=1.5, multiplier=2.0)
        assert policy.delay_before(1) == 0.0
        assert policy.delay_before(2) == 1.5
        assert policy.delay_before(3) == 3.0
        assert policy.delay_before(4) == 6.0

    def test_no_retry_defaults(self):
        assert NO_RETRY.attempts == 1
        assert NO_RETRY.delay_before(1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
