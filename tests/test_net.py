"""Tests for the virtual network substrate (clock, latency, transport)."""

import pytest

from repro.net import (
    Clock,
    ConnectionRefused,
    LatencyModel,
    Network,
    PortInUse,
    UniformLatency,
    Unreachable,
)
from repro.net.network import is_ipv6


class TestClock:
    def test_starts_at_given_time(self):
        assert Clock(42.5).now == 42.5

    def test_advance_moves_forward(self):
        clock = Clock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            Clock().advance(-0.1)

    def test_sleep_is_advance(self):
        clock = Clock()
        clock.sleep(15.0)
        assert clock.now == 15.0


class TestLatency:
    def test_constant_model_symmetric(self):
        model = LatencyModel(0.03)
        assert model.one_way_delay("1.2.3.4", "5.6.7.8") == 0.03
        assert model.rtt("1.2.3.4", "5.6.7.8") == pytest.approx(0.06)

    def test_loopback_is_free(self):
        assert LatencyModel(0.03).one_way_delay("1.2.3.4", "1.2.3.4") == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(-1.0)

    def test_uniform_model_is_stable_per_path(self):
        model = UniformLatency(0.01, 0.05, seed=3)
        first = model.one_way_delay("a", "b")
        assert model.one_way_delay("a", "b") == first
        assert 0.01 <= first <= 0.05

    def test_uniform_model_symmetric(self):
        model = UniformLatency(seed=3)
        assert model.one_way_delay("a", "b") == model.one_way_delay("b", "a")

    def test_uniform_model_deterministic_across_instances(self):
        a = UniformLatency(seed=7)
        b = UniformLatency(seed=7)
        assert a.one_way_delay("x", "y") == b.one_way_delay("x", "y")

    def test_uniform_model_validates_range(self):
        with pytest.raises(ValueError):
            UniformLatency(0.05, 0.01)


class TestUdp:
    def _network(self):
        return Network(LatencyModel(0.01))

    def test_request_response_timing(self):
        network = self._network()
        network.listen_udp("9.9.9.9", 53, lambda p, s, tr, t: (b"pong:" + p, 0.5))
        reply, t = network.udp_request("1.1.1.1", "9.9.9.9", 53, b"ping", 0.0)
        assert reply == b"pong:ping"
        assert t == pytest.approx(0.01 + 0.5 + 0.01)

    def test_unknown_host_unreachable(self):
        with pytest.raises(Unreachable):
            self._network().udp_request("1.1.1.1", "8.8.8.8", 53, b"x", 0.0)

    def test_known_host_wrong_port_refused(self):
        network = self._network()
        network.listen_udp("9.9.9.9", 53, lambda p, s, tr, t: (p, 0.0))
        with pytest.raises(ConnectionRefused):
            network.udp_request("1.1.1.1", "9.9.9.9", 54, b"x", 0.0)

    def test_double_bind_rejected(self):
        network = self._network()
        network.listen_udp("9.9.9.9", 53, lambda p, s, tr, t: (p, 0.0))
        with pytest.raises(PortInUse):
            network.listen_udp("9.9.9.9", 53, lambda p, s, tr, t: (p, 0.0))

    def test_handler_sees_arrival_time_and_source(self):
        network = self._network()
        seen = {}

        def handler(payload, src, transport, t):
            seen.update(src=src, transport=transport, t=t)
            return b"", 0.0

        network.listen_udp("9.9.9.9", 53, handler)
        network.udp_request("1.1.1.1", "9.9.9.9", 53, b"x", 5.0)
        assert seen == {"src": "1.1.1.1", "transport": "udp", "t": pytest.approx(5.01)}


class _EchoSession:
    def __init__(self):
        self.closed_at = None

    def on_connect(self, t):
        return b"hello\r\n"

    def on_data(self, data, t):
        if data == b"silent":
            return None, 0.0
        return data.upper(), 0.25

    def on_close(self, t):
        self.closed_at = t


class TestTcp:
    def _network_and_session(self):
        network = Network(LatencyModel(0.01))
        sessions = []

        def factory(src_ip, t):
            session = _EchoSession()
            sessions.append(session)
            return session

        network.listen_tcp("9.9.9.9", 25, factory)
        return network, sessions

    def test_connect_delivers_greeting(self):
        network, _ = self._network_and_session()
        channel = network.connect_tcp("1.1.1.1", "9.9.9.9", 25, 0.0)
        assert channel.greeting == b"hello\r\n"
        assert channel.t_established == pytest.approx(0.02)

    def test_request_roundtrip(self):
        network, _ = self._network_and_session()
        channel = network.connect_tcp("1.1.1.1", "9.9.9.9", 25, 0.0)
        reply, t = channel.request(b"abc", channel.t_established)
        assert reply == b"ABC"
        assert t == pytest.approx(0.02 + 0.01 + 0.25 + 0.01)

    def test_silent_round_returns_none(self):
        network, _ = self._network_and_session()
        channel = network.connect_tcp("1.1.1.1", "9.9.9.9", 25, 0.0)
        reply, _ = channel.request(b"silent", channel.t_established)
        assert reply is None

    def test_close_notifies_session(self):
        network, sessions = self._network_and_session()
        channel = network.connect_tcp("1.1.1.1", "9.9.9.9", 25, 0.0)
        channel.close(1.0)
        assert sessions[0].closed_at == pytest.approx(1.01)
        assert not channel.is_open

    def test_request_after_close_fails(self):
        network, _ = self._network_and_session()
        channel = network.connect_tcp("1.1.1.1", "9.9.9.9", 25, 0.0)
        channel.close(1.0)
        with pytest.raises(ConnectionRefused):
            channel.request(b"x", 2.0)

    def test_connect_to_missing_host(self):
        network, _ = self._network_and_session()
        with pytest.raises(Unreachable):
            network.connect_tcp("1.1.1.1", "7.7.7.7", 25, 0.0)

    def test_connect_refused_on_unbound_port(self):
        network, _ = self._network_and_session()
        with pytest.raises(ConnectionRefused):
            network.connect_tcp("1.1.1.1", "9.9.9.9", 26, 0.0)


def test_is_ipv6():
    assert is_ipv6("2001:db8::1")
    assert not is_ipv6("192.0.2.1")
