"""Tests for the receiving MTA: triggers, whitelisting, rejection, and the
full SPF/DKIM/DMARC pipeline."""

import pytest

from repro.dkim import DkimSigner, KeyRecord, generate_keypair
from repro.dmarc import DmarcDisposition
from repro.dns.rdata import TxtRecord
from repro.mta.behavior import MtaBehavior, SpfTrigger
from repro.mta.receiver import ReceivingMta
from repro.smtp.client import SmtpClient
from repro.smtp.message import EmailMessage
from tests.helpers import World

KEYPAIR = generate_keypair(1024, seed=55)

MTA_IP = "198.51.100.30"
CLIENT_IP = "203.0.113.10"
CLIENT_IP6 = "2001:db8:5::10"


@pytest.fixture
def world():
    world = World(seed=61)
    zone = world.zone("sender.example")
    zone.add("sender.example", TxtRecord("v=spf1 ip4:%s ip6:%s -all" % (CLIENT_IP, CLIENT_IP6)))
    zone.add(
        "sel._domainkey.sender.example",
        TxtRecord(KeyRecord(public_key_b64=KEYPAIR.public.to_base64()).to_text()),
    )
    zone.add("_dmarc.sender.example", TxtRecord("v=DMARC1; p=reject"))
    world.network.add_address(CLIENT_IP)
    return world


def _mta(world, behavior=None, ipv6=None):
    mta = ReceivingMta(
        "mx.rcpt.example",
        world.network,
        world.directory,
        behavior=behavior or MtaBehavior(accepts_any_recipient=True),
        ipv4=MTA_IP,
        ipv6=ipv6,
    )
    mta.attach()
    return mta


def _converse(world, t=0.0, sender="user@sender.example", rcpt="bob@rcpt.example", message=True):
    client, t = SmtpClient.connect(world.network, CLIENT_IP, MTA_IP, t)
    reply, t = client.ehlo("client.sender.example", t)
    replies = {"ehlo": reply}
    reply, t = client.mail(sender, t)
    replies["mail"] = reply
    if reply.is_success:
        reply, t = client.rcpt(rcpt, t)
        replies["rcpt"] = reply
        if reply.is_success and message:
            reply, t = client.data_command(t)
            replies["data"] = reply
            msg = EmailMessage(
                [("From", sender), ("To", rcpt), ("Subject", "s"), ("Date", "d"), ("Message-ID", "<x@y>")],
                "body\r\n",
            )
            reply, t = client.send_message(msg, t)
            replies["message"] = reply
    client.abort(t)
    return replies, t


def _validation_kinds(mta):
    return [record.kind for record in mta.validations]


class TestSpfTriggers:
    @pytest.mark.parametrize(
        "trigger", [SpfTrigger.ON_MAIL, SpfTrigger.ON_RCPT, SpfTrigger.ON_DATA]
    )
    def test_spf_runs_once_per_envelope(self, world, trigger):
        mta = _mta(
            world,
            MtaBehavior(
                accepts_any_recipient=True,
                validates_dkim=False,
                validates_dmarc=False,
                spf_trigger=trigger,
            ),
        )
        _converse(world)
        spf_records = [r for r in mta.validations if r.kind == "spf"]
        assert len(spf_records) == 1
        assert spf_records[0].result == "pass"

    def test_trigger_timing_is_observable(self, world):
        """A later trigger point means a later policy-query arrival at the
        authoritative server — the signal the paper's timing analysis uses."""
        arrival_times = {}
        for trigger in (SpfTrigger.ON_MAIL, SpfTrigger.ON_DATA):
            world.server.clear_log()
            _mta(
                world,
                MtaBehavior(accepts_any_recipient=True, spf_trigger=trigger,
                            validates_dkim=False, validates_dmarc=False),
            )
            _converse(world)
            world.network.unlisten_tcp(MTA_IP, 25)
            entries = [e for e in world.server.query_log if str(e.qname) == "sender.example."]
            assert len(entries) == 1
            arrival_times[trigger] = entries[0].timestamp
        assert arrival_times[SpfTrigger.ON_DATA] > arrival_times[SpfTrigger.ON_MAIL]

    def test_post_delivery_validation_happens_after_acceptance(self, world):
        behavior = MtaBehavior(
            accepts_any_recipient=True,
            spf_trigger=SpfTrigger.POST_DELIVERY,
            post_delivery_delay=42.0,
            validates_dkim=False,
            validates_dmarc=False,
        )
        mta = _mta(world, behavior)
        replies, t_done = _converse(world)
        assert replies["message"].code == 250
        spf_records = [r for r in mta.validations if r.kind == "spf"]
        assert len(spf_records) == 1
        assert spf_records[0].t_started >= mta.deliveries[0].t_accepted + 42.0

    def test_post_delivery_validator_never_fires_without_message(self, world):
        behavior = MtaBehavior(
            accepts_any_recipient=True,
            spf_trigger=SpfTrigger.POST_DELIVERY,
            validates_dkim=False,
            validates_dmarc=False,
        )
        mta = _mta(world, behavior)
        _converse(world, message=False)  # probe-style: disconnect pre-DATA
        assert not [r for r in mta.validations if r.kind == "spf"]
        assert not world.server.queries_under("sender.example")


class TestPostmasterWhitelist:
    def _behavior(self, **kwargs):
        return MtaBehavior(
            accepts_any_recipient=False,
            accepts_postmaster=True,
            whitelists_postmaster=True,
            validates_dkim=False,
            validates_dmarc=False,
            **kwargs,
        )

    def test_postmaster_only_envelope_skips_validation(self, world):
        mta = _mta(world, self._behavior())
        replies, _ = _converse(world, rcpt="postmaster@rcpt.example", message=False)
        assert replies["rcpt"].code == 250
        assert not [r for r in mta.validations if r.kind == "spf"]

    def test_real_user_still_validated(self, world):
        behavior = self._behavior()
        behavior.valid_users = frozenset({"alice"})
        mta = _mta(world, behavior)
        replies, _ = _converse(world, rcpt="alice@rcpt.example", message=False)
        assert replies["rcpt"].code == 250
        assert [r for r in mta.validations if r.kind == "spf"]


class TestRecipientPolicy:
    def test_unknown_user_rejected(self, world):
        mta = _mta(world, MtaBehavior(validates_dkim=False, validates_dmarc=False))
        replies, _ = _converse(world, rcpt="nobody@rcpt.example", message=False)
        assert replies["rcpt"].code == 550
        assert "unknown" in replies["rcpt"].text.lower()

    def test_postmaster_accepted_by_default(self, world):
        _mta(world, MtaBehavior(validates_dkim=False, validates_dmarc=False))
        replies, _ = _converse(world, rcpt="PostMaster@rcpt.example", message=False)
        assert replies["rcpt"].code == 250

    def test_rejects_everything(self, world):
        behavior = MtaBehavior(
            accepts_any_recipient=False,
            accepts_postmaster=False,
            validates_dkim=False,
            validates_dmarc=False,
        )
        _mta(world, behavior)
        replies, _ = _converse(world, rcpt="postmaster@rcpt.example", message=False)
        assert replies["rcpt"].code == 550


class TestBlacklistRejection:
    @pytest.mark.parametrize("word", ["spam", "blacklist"])
    def test_rejection_text_carries_the_keyword(self, world, word):
        mta = _mta(
            world,
            MtaBehavior(accepts_any_recipient=True, blacklist_rejection=word),
        )
        replies, _ = _converse(world, message=False)
        assert replies["mail"].code == 554
        assert word in replies["mail"].text.lower()
        # Rejection precedes validation: no DNS queries at all.
        assert not world.server.queries_under("sender.example")


class TestHeloChecking:
    def test_helo_policy_checked_then_ignored(self, world):
        zone = world.server.zones[0]
        zone.add("client.sender.example", TxtRecord("v=spf1 -all"))
        behavior = MtaBehavior(
            accepts_any_recipient=True,
            checks_helo=True,
            validates_dkim=False,
            validates_dmarc=False,
        )
        mta = _mta(world, behavior)
        replies, _ = _converse(world, message=False)
        kinds = _validation_kinds(mta)
        assert kinds == ["helo-spf", "spf"]
        helo_record = mta.validations[0]
        assert helo_record.result == "fail"  # -all for the HELO identity
        assert replies["mail"].code == 250  # ...and it proceeded anyway


class TestMessagePipeline:
    def _signed_message(self, sender, rcpt):
        message = EmailMessage(
            [("From", sender), ("To", rcpt), ("Subject", "hi"), ("Date", "d"), ("Message-ID", "<1@s>")],
            "content\r\n",
        )
        DkimSigner("sender.example", "sel", KEYPAIR.private).sign(message)
        return message

    def _deliver(self, world, message, sender="user@sender.example"):
        client, t = SmtpClient.connect(world.network, CLIENT_IP, MTA_IP, 0.0)
        _, t = client.ehlo("client.sender.example", t)
        _, t = client.mail(sender, t)
        _, t = client.rcpt("bob@rcpt.example", t)
        _, t = client.data_command(t)
        reply, t = client.send_message(message, t)
        client.abort(t)
        return reply

    def test_full_pass_pipeline(self, world):
        mta = _mta(world)
        reply = self._deliver(world, self._signed_message("user@sender.example", "bob@rcpt.example"))
        assert reply.code == 250
        kinds = _validation_kinds(mta)
        assert kinds == ["spf", "dkim", "dmarc"]
        assert [r.result for r in mta.validations] == ["pass", "pass", "pass"]
        assert len(mta.deliveries) == 1

    def test_spoof_rejected_by_dmarc(self, world):
        spoofer_ip = "203.0.113.66"
        world.network.add_address(spoofer_ip)
        mta = _mta(world)
        message = EmailMessage(
            [("From", "user@sender.example"), ("To", "bob@rcpt.example")], "click me\r\n"
        )
        client, t = SmtpClient.connect(world.network, spoofer_ip, MTA_IP, 0.0)
        _, t = client.ehlo("evil.example", t)
        _, t = client.mail("user@sender.example", t)
        _, t = client.rcpt("bob@rcpt.example", t)
        _, t = client.data_command(t)
        reply, t = client.send_message(message, t)
        assert reply.code == 550
        assert "dmarc" in reply.text.lower()
        assert not mta.deliveries

    def test_non_enforcing_mta_delivers_spoof(self, world):
        spoofer_ip = "203.0.113.66"
        world.network.add_address(spoofer_ip)
        behavior = MtaBehavior(accepts_any_recipient=True, enforces_dmarc=False)
        mta = _mta(world, behavior)
        message = EmailMessage(
            [("From", "user@sender.example"), ("To", "bob@rcpt.example")], "click me\r\n"
        )
        client, t = SmtpClient.connect(world.network, spoofer_ip, MTA_IP, 0.0)
        _, t = client.ehlo("evil.example", t)
        _, t = client.mail("user@sender.example", t)
        _, t = client.rcpt("bob@rcpt.example", t)
        _, t = client.data_command(t)
        reply, t = client.send_message(message, t)
        assert reply.code == 250
        assert len(mta.deliveries) == 1

    def test_non_enforcing_mta_still_records_the_disposition(self, world):
        """Unaligned, unsigned mail under ``p=quarantine`` gets 250 from a
        receiver that does not enforce DMARC, but the receiver still
        evaluated it: the dmarc record carries the quarantine verdict."""
        zone = world.zone("lenient.example")
        zone.add("lenient.example", TxtRecord("v=spf1 ip4:%s -all" % CLIENT_IP))
        zone.add("_dmarc.lenient.example", TxtRecord("v=DMARC1; p=quarantine"))
        spoofer_ip = "203.0.113.66"
        world.network.add_address(spoofer_ip)
        mta = _mta(world, MtaBehavior(accepts_any_recipient=True, enforces_dmarc=False))
        message = EmailMessage(
            [("From", "user@lenient.example"), ("To", "bob@rcpt.example")], "click me\r\n"
        )
        client, t = SmtpClient.connect(world.network, spoofer_ip, MTA_IP, 0.0)
        _, t = client.ehlo("evil.example", t)
        _, t = client.mail("user@lenient.example", t)
        _, t = client.rcpt("bob@rcpt.example", t)
        _, t = client.data_command(t)
        reply, t = client.send_message(message, t)
        assert reply.code == 250
        (dmarc,) = [v for v in mta.validations if v.kind == "dmarc"]
        assert dmarc.domain == "lenient.example"
        assert dmarc.client_ip == spoofer_ip
        assert dmarc.detail.disposition is DmarcDisposition.QUARANTINE
        assert dmarc.detail.spf_aligned is False

    def test_authentication_results_carry_this_sessions_dmarc_verdict(self, world):
        """A message whose From has no domain never runs DMARC, so its
        Authentication-Results has no dmarc entry, not the verdict of the
        message before it."""
        mta = _mta(world)
        first = self._signed_message("user@sender.example", "bob@rcpt.example")
        assert self._deliver(world, first).code == 250
        second = EmailMessage(
            [("From", "undisclosed-sender"), ("To", "bob@rcpt.example")], "no domain\r\n"
        )
        assert self._deliver(world, second).code == 250
        assert [v.kind for v in mta.validations].count("dmarc") == 1
        headers = [d.message.get_header("Authentication-Results") for d in mta.deliveries]
        assert "dmarc=pass header.from=sender.example" in headers[0]
        assert "dmarc=" not in headers[1]
        assert "spf=pass" in headers[1]

    def test_acceptance_delay_visible_to_sender(self, world):
        behavior = MtaBehavior(accepts_any_recipient=True, acceptance_delay=30.0)
        _mta(world, behavior)
        message = self._signed_message("user@sender.example", "bob@rcpt.example")
        client, t = SmtpClient.connect(world.network, CLIENT_IP, MTA_IP, 0.0)
        _, t = client.ehlo("c.sender.example", t)
        _, t = client.mail("user@sender.example", t)
        _, t = client.rcpt("bob@rcpt.example", t)
        _, t = client.data_command(t)
        t_before = t
        reply, t_after = client.send_message(message, t)
        assert reply.code == 250
        assert t_after - t_before >= 30.0


class TestResolverIpv6Derivation:
    def test_v4_only_mta_gets_derived_v6_resolver_address(self, world):
        mta = _mta(world, MtaBehavior(accepts_any_recipient=True, resolver_ipv6_capable=True))
        assert mta.resolver.address6 is not None
        assert mta.resolver.address6.startswith("2001:db8:5e:")

    def test_incapable_resolver_has_no_v6(self, world):
        world.network.unlisten_tcp(MTA_IP, 25)  # rebind below
        mta = ReceivingMta(
            "mx2.rcpt.example",
            world.network,
            world.directory,
            behavior=MtaBehavior(resolver_ipv6_capable=False),
            ipv4="198.51.100.31",
        )
        assert mta.resolver.address6 is None
