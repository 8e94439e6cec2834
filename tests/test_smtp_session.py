"""Tests for the SMTP server session and client over the virtual network."""

import pytest

from repro.net import Clock, Network, UniformLatency
from repro.smtp import (
    EmailMessage,
    Reply,
    SmtpClient,
    SmtpClientError,
    SmtpServer,
    SmtpSession,
)

SERVER_IP = "198.51.100.25"
CLIENT_IP = "203.0.113.25"


class RecordingSession(SmtpSession):
    banner_host = "mx.test.example"
    events = None  # set per-instance in __init__

    def __init__(self, client_ip, t_accept):
        super().__init__(client_ip, t_accept)
        self.events = []

    def on_mail(self, mailbox, t):
        self.events.append(("mail", mailbox, t))
        return super().on_mail(mailbox, t)

    def on_rcpt(self, mailbox, t):
        self.events.append(("rcpt", mailbox, t))
        if mailbox.local == "nobody":
            return Reply(550, "No such user"), 0.0
        return super().on_rcpt(mailbox, t)

    def on_message(self, message, t):
        self.events.append(("message", message, t))
        return Reply(250, "queued"), 0.0

    def on_disconnect(self, t):
        self.events.append(("disconnect", None, t))


@pytest.fixture
def net_and_sessions():
    network = Network(UniformLatency(seed=21), Clock())
    sessions = []

    def factory(client_ip, t_accept):
        session = RecordingSession(client_ip, t_accept)
        sessions.append(session)
        return session

    SmtpServer(factory).attach(network, SERVER_IP)
    return network, sessions


def _connect(network):
    return SmtpClient.connect(network, CLIENT_IP, SERVER_IP, 0.0)


class TestHappyPath:
    def test_full_delivery(self, net_and_sessions):
        network, sessions = net_and_sessions
        client, t = _connect(network)
        reply, t = client.ehlo("client.example", t)
        assert reply.code == 250
        reply, t = client.mail("alice@sender.example", t)
        assert reply.code == 250
        reply, t = client.rcpt("bob@rcpt.example", t)
        assert reply.code == 250
        reply, t = client.data_command(t)
        assert reply.code == 354
        message = EmailMessage([("From", "alice@sender.example")], "hi")
        reply, t = client.send_message(message, t)
        assert reply.code == 250
        kinds = [kind for kind, _, _ in sessions[0].events]
        assert kinds == ["mail", "rcpt", "message"]

    def test_null_sender_accepted(self, net_and_sessions):
        network, sessions = net_and_sessions
        client, t = _connect(network)
        _, t = client.ehlo("c.example", t)
        reply, t = client.mail(None, t)
        assert reply.code == 250
        assert sessions[0].events[0][1] is None

    def test_session_records_identity(self, net_and_sessions):
        network, sessions = net_and_sessions
        client, t = _connect(network)
        client.ehlo("probe.dns-lab.org", t)
        assert sessions[0].helo_name == "probe.dns-lab.org"
        assert sessions[0].used_esmtp
        assert sessions[0].client_ip == CLIENT_IP

    def test_helo_fallback(self, net_and_sessions):
        network, sessions = net_and_sessions
        client, t = _connect(network)
        reply, t = client.ehlo_or_helo("c.example", t)
        assert reply.code == 250  # EHLO worked, no fallback needed

    def test_timestamps_monotone(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t0 = _connect(network)
        _, t1 = client.ehlo("c.example", t0)
        _, t2 = client.mail("a@b.example", t1 + 15.0)
        assert t0 < t1 < t1 + 15.0 < t2


class TestSequencing:
    def test_mail_before_helo_rejected(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        reply, _ = client.mail("a@b.example", t)
        assert reply.code == 503

    def test_rcpt_before_mail_rejected(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        _, t = client.ehlo("c.example", t)
        reply, _ = client.rcpt("x@y.example", t)
        assert reply.code == 503

    def test_data_without_rcpt_rejected(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        _, t = client.ehlo("c.example", t)
        _, t = client.mail("a@b.example", t)
        reply, _ = client.data_command(t)
        assert reply.code == 503

    def test_nested_mail_rejected(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        _, t = client.ehlo("c.example", t)
        _, t = client.mail("a@b.example", t)
        reply, _ = client.mail("other@b.example", t)
        assert reply.code == 503

    def test_rset_clears_envelope(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        _, t = client.ehlo("c.example", t)
        _, t = client.mail("a@b.example", t)
        reply, t = client.command("RSET", t)
        assert reply.code == 250
        reply, t = client.mail("again@b.example", t)
        assert reply.code == 250

    def test_failed_rcpt_not_recorded(self, net_and_sessions):
        network, sessions = net_and_sessions
        client, t = _connect(network)
        _, t = client.ehlo("c.example", t)
        _, t = client.mail("a@b.example", t)
        reply, t = client.rcpt("nobody@b.example", t)
        assert reply.code == 550
        assert sessions[0].rcpt_to == []

    def test_unknown_command(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        reply, _ = client.command("BOGUS arg", t)
        assert reply.code == 500

    def test_vrfy_not_implemented(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        reply, _ = client.command("VRFY user", t)
        assert reply.code == 502


class TestDisconnect:
    def test_abort_triggers_disconnect_hook(self, net_and_sessions):
        network, sessions = net_and_sessions
        client, t = _connect(network)
        _, t = client.ehlo("c.example", t)
        client.abort(t)
        assert sessions[0].events[-1][0] == "disconnect"

    def test_quit_closes_channel(self, net_and_sessions):
        network, _ = net_and_sessions
        client, t = _connect(network)
        reply, _ = client.quit(t)
        assert reply.code == 221
        assert not client.channel.is_open


class RejectingBannerSession(SmtpSession):
    def on_banner(self, t):
        return Reply(554, "No service"), 0.0


def test_unfriendly_banner_raises():
    network = Network(UniformLatency(seed=5), Clock())
    SmtpServer(lambda ip, t: RejectingBannerSession(ip, t)).attach(network, SERVER_IP)
    with pytest.raises(SmtpClientError) as info:
        SmtpClient.connect(network, CLIENT_IP, SERVER_IP, 0.0)
    assert info.value.reply.code == 554


class TestPipelining:
    def test_two_lines_in_one_request_match_two_requests(self, net_and_sessions):
        network, _ = net_and_sessions
        lines = ["EHLO x\r\n", "MAIL FROM:<a@b>\r\n"]
        client, t = _connect(network)
        separate = [client.channel.request(line.encode(), t)[0] for line in lines]
        client, t = _connect(network)
        together, _ = client.channel.request("".join(lines).encode(), t)
        assert together == b"".join(separate)
        assert [Reply.from_bytes(r).code for r in separate] == [250, 250]
