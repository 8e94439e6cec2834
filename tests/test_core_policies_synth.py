"""Tests for the test-policy catalogue and the synthesizing DNS server."""

from collections import Counter

import pytest

from repro.core.policies import (
    NOTIFY_POLICY,
    POLICIES,
    PolicyContext,
    policy_by_id,
    t02_query_order,
)
from repro.core.campaign import NotifyEmailCampaign, ProbeCampaign, Testbed
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.synth import SynthConfig, SynthesizingAuthority
from repro.dns import wire
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import Rcode, RdataType
from repro.dns.resolver import AuthorityDirectory, Resolver
from repro.net.clock import Clock
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.spf.parser import parse_record
from repro.spf.terms import looks_like_spf


def _context(testid="t12", mtaid="m00001"):
    config = SynthConfig()
    return PolicyContext(
        base="%s.%s.%s" % (testid, mtaid, config.probe_suffix),
        mtaid=mtaid,
        testid=testid,
        v6_base="%s.%s.%s" % (testid, mtaid, config.v6_suffix),
        helo_base="h.%s.%s.%s" % (testid, mtaid, config.probe_suffix),
        valid_sender_ips=("203.0.113.9",),
        dkim_key_b64="QUJD",
    )


class TestCatalogue:
    def test_exactly_39_policies(self):
        assert len(POLICIES) == 39
        assert len({policy.testid for policy in POLICIES}) == 39

    def test_documented_policies_cite_sections(self):
        documented = [policy for policy in POLICIES if policy.documented]
        assert len(documented) == 11
        assert all(policy.section for policy in documented)

    def test_policy_by_id(self):
        assert policy_by_id("t01").name == "serial_parallel"
        with pytest.raises(KeyError):
            policy_by_id("t99")

    def test_every_l0_policy_is_parseable_spf(self):
        for policy in POLICIES:
            context = _context(policy.testid)
            sub = ("real",) if policy.testid == "t23" else ()  # t23: L0 is a CNAME
            response = policy.respond(sub, RdataType.TXT, context)
            texts = [r.text for r in response.records if r.rdtype == RdataType.TXT]
            spf_texts = [text for text in texts if looks_like_spf(text)]
            assert spf_texts, "policy %s has no L0 SPF record" % policy.testid
            if policy.testid not in ("t04",):  # t04 is deliberately broken
                for text in spf_texts:
                    parse_record(text, tolerant=True)

    def test_unique_descriptions(self):
        descriptions = [policy.description for policy in POLICIES]
        assert len(set(descriptions)) == len(descriptions)


class TestT02Structure:
    def test_order_covers_46_queries(self):
        order = t02_query_order()
        assert sorted(order.values()) == list(range(1, 47))

    def test_30_includes_16_addresses(self):
        order = t02_query_order()
        includes = [name for name in order if "l" in name]
        addresses = [name for name in order if "a" in name]
        assert len(includes) == 30
        assert len(addresses) == 16

    def test_every_name_resolvable(self):
        policy = policy_by_id("t02")
        context = _context("t02")
        for name in t02_query_order():
            qtype = RdataType.A if "a" in name else RdataType.TXT
            response = policy.respond((name,), qtype, context)
            assert response.records, "t02 name %s unresolvable" % name

    def test_all_responses_delayed(self):
        policy = policy_by_id("t02")
        context = _context("t02")
        for name in t02_query_order():
            response = policy.respond((name,), RdataType.TXT, context)
            assert response.delay == pytest.approx(0.8)
        base = policy.respond((), RdataType.TXT, context)
        assert base.delay == 0.0


class TestPolicyResponses:
    def test_t01_delays_only_l1_l2(self):
        policy = policy_by_id("t01")
        context = _context("t01")
        assert policy.respond(("l1",), RdataType.TXT, context).delay == pytest.approx(0.1)
        assert policy.respond(("l2",), RdataType.TXT, context).delay == pytest.approx(0.1)
        assert policy.respond(("l3",), RdataType.TXT, context).delay == 0.0
        assert policy.respond(("foo",), RdataType.A, context).records

    def test_t06_void_names_nxdomain(self):
        policy = policy_by_id("t06")
        context = _context("t06")
        for index in range(1, 6):
            response = policy.respond(("v%d" % index,), RdataType.A, context)
            assert response.nxdomain

    def test_t07_nomx_is_nodata_not_nxdomain(self):
        policy = policy_by_id("t07")
        context = _context("t07")
        response = policy.respond(("nomx",), RdataType.MX, context)
        assert not response.nxdomain
        assert not any(r.rdtype == RdataType.MX for r in response.records)

    def test_t08_two_spf_records(self):
        policy = policy_by_id("t08")
        context = _context("t08")
        response = policy.respond((), RdataType.TXT, context)
        assert len(response.records) == 2

    def test_t09_forces_tcp_on_child_only(self):
        policy = policy_by_id("t09")
        context = _context("t09")
        assert policy.respond(("l1tcp",), RdataType.TXT, context).force_tcp
        assert not policy.respond((), RdataType.TXT, context).force_tcp

    def test_t10_includes_v6_suffix(self):
        policy = policy_by_id("t10")
        context = _context("t10")
        response = policy.respond((), RdataType.TXT, context)
        assert context.v6_base in response.records[0].text

    def test_t11_twenty_exchanges(self):
        policy = policy_by_id("t11")
        context = _context("t11")
        response = policy.respond(("many",), RdataType.MX, context)
        assert len(response.records) == 20

    def test_t20_wildcard_matches_macro_expansion(self):
        policy = policy_by_id("t20")
        context = _context("t20")
        response = policy.respond(("1", "2", "0", "192", "in-addr", "e"), RdataType.A, context)
        assert response.records

    def test_t34_multi_string_reassembles(self):
        policy = policy_by_id("t34")
        context = _context("t34")
        response = policy.respond((), RdataType.TXT, context)
        record = response.records[0]
        assert len(record.strings) == 2
        assert looks_like_spf(record.text)
        parse_record(record.text)

    def test_unknown_sublabel_is_nxdomain(self):
        policy = policy_by_id("t12")
        response = policy.respond(("nonexistent",), RdataType.A, _context())
        assert response.nxdomain

    def test_notify_policy_full_record_set(self):
        context = _context("notify", "d00042")
        base = NOTIFY_POLICY.respond((), RdataType.TXT, context)
        assert "include:l1." in base.records[0].text
        key = NOTIFY_POLICY.respond(("sel", "_domainkey"), RdataType.TXT, context)
        assert "p=QUJD" in key.records[0].text
        dmarc = NOTIFY_POLICY.respond(("_dmarc",), RdataType.TXT, context)
        assert "p=reject" in dmarc.records[0].text
        mta_a = NOTIFY_POLICY.respond(("mta",), RdataType.A, context)
        assert [r.address for r in mta_a.records] == ["203.0.113.9"]


class TestSynthServer:
    @pytest.fixture
    def deployed(self):
        network = Network(LatencyModel(0.005), Clock())
        directory = AuthorityDirectory()
        config = SynthConfig(sender_ips=("203.0.113.9",), dkim_key_b64="QUJD")
        server = SynthesizingAuthority(config)
        server.deploy(network, directory)
        resolver = Resolver(network, directory, address4="203.0.113.77", address6="2001:db8:77::1")
        return network, server, resolver, config

    def test_l0_policy_synthesized(self, deployed):
        _, server, resolver, config = deployed
        answer, _ = resolver.query_at("t12.m00009.%s" % config.probe_suffix, RdataType.TXT, 0.0)
        assert answer.texts() == ["v=spf1 -all"]

    def test_distinct_mtas_get_distinct_bases(self, deployed):
        _, server, resolver, config = deployed
        a, _ = resolver.query_at("t16.ma.%s" % config.probe_suffix, RdataType.TXT, 0.0)
        b, _ = resolver.query_at("t16.mb.%s" % config.probe_suffix, RdataType.TXT, 0.0)
        assert "ma" in a.texts()[0] and "mb" in b.texts()[0]

    def test_unknown_testid_nxdomain(self, deployed):
        _, _, resolver, config = deployed
        answer, _ = resolver.query_at("t99.m00009.%s" % config.probe_suffix, RdataType.TXT, 0.0)
        assert answer.status.name == "NXDOMAIN"

    def test_out_of_suffix_refused(self, deployed):
        network, server, _, _ = deployed
        query = Message.make_query("example.org", RdataType.TXT, msg_id=9)
        payload, _ = server._handle(wire.to_wire(query), "1.2.3.4", "udp", 0.0)
        assert wire.from_wire(payload).rcode is Rcode.REFUSED

    def test_soa_carries_contact(self, deployed):
        _, server, resolver, config = deployed
        # Negative answers carry the SOA with the published contact RNAME.
        answer, _ = resolver.query_at("nothing.t12.mX.%s" % config.probe_suffix, RdataType.A, 0.0)
        assert answer.status.name == "NXDOMAIN"

    def test_v6_suffix_only_reachable_over_ipv6(self, deployed):
        network, server, dual, config = deployed
        qname = "l1.t10.m1.%s" % config.v6_suffix
        answer, _ = dual.query_at(qname, RdataType.TXT, 0.0)
        assert answer.status.name == "SUCCESS"
        assert ":" in answer.server_ip
        v4only = Resolver(network, AuthorityDirectoryFrom(dual), address4="203.0.113.78")
        answer, _ = v4only.query_at(qname, RdataType.TXT, 0.0)
        assert answer.status.name == "UNREACHABLE"

    def test_delay_applied_through_network(self, deployed):
        _, _, resolver, config = deployed
        _, t_plain = resolver.query_at("t01.mZ.%s" % config.probe_suffix, RdataType.TXT, 0.0)
        _, t_l1 = resolver.query_at("l1.t01.mZ.%s" % config.probe_suffix, RdataType.TXT, 0.0)
        assert t_l1 >= t_plain + 0.1 - 0.02

    def test_forced_truncation_elicits_tcp(self, deployed):
        _, server, resolver, config = deployed
        qname = "l1tcp.t09.mQ.%s" % config.probe_suffix
        answer, _ = resolver.query_at(qname, RdataType.TXT, 0.0)
        assert answer.status.name == "SUCCESS"
        assert answer.transport == "tcp"
        transports = [e.transport for e in server.queries_under(qname)]
        assert transports == ["udp", "tcp"]

    def test_query_log_captures_everything(self, deployed):
        _, server, resolver, config = deployed
        resolver.query_at("t12.mLOG.%s" % config.probe_suffix, RdataType.TXT, 0.0)
        assert any("mlog" in str(e.qname).lower() for e in server.query_log)


def _probe_subs(policy):
    """Sublabel tuples that reach ``policy``'s delays, TC labels, record
    patterns and misses."""
    subs = {(), ("zz",), ("l1",), ("l2",), ("l3",), ("mta",), ("sel", "_domainkey")}
    subs |= {(label,) for label in policy.delays if label}
    subs |= {(label,) for label in policy.force_tcp_labels}
    for pattern in policy.records:
        subs.add(tuple("x" if label == "*" else label for label in pattern if label != "**"))
    return sorted(subs)


class TestSynthOptionHooks:
    """The server's delay and force-TCP hooks read the policy without
    synthesizing an answer, and agree with every answer it synthesizes."""

    QTYPES = (RdataType.TXT, RdataType.A, RdataType.AAAA, RdataType.MX)

    def test_hooks_agree_with_the_answers(self):
        config = SynthConfig(sender_ips=("203.0.113.9",), dkim_key_b64="QUJD")
        server = SynthesizingAuthority(config)
        names = []
        for policy in POLICIES:
            for sub in _probe_subs(policy):
                names.append(".".join(sub + (policy.testid, "m00001", config.probe_suffix)))
                names.append(".".join(sub + (policy.testid, "m00001", config.v6_suffix)))
        for sub in _probe_subs(NOTIFY_POLICY):
            names.append(".".join(sub + ("d00001", config.notify_suffix)))
        names += ["example.org", "m00001.%s" % config.probe_suffix, config.notify_suffix]
        for text in names:
            qname = Name(text)
            for qtype in self.QTYPES:
                answer = server._respond(qname, qtype)
                delay = answer.delay if answer is not None else 0.0
                assert server._policy_delay(qname, qtype) == delay, (text, qtype)
            answer = server._respond(qname, RdataType.TXT)
            force_tcp = answer.force_tcp if answer is not None else False
            assert server._policy_force_tcp(qname) == force_tcp, text
        assert server._policy_delay(Name("l1.d00001.%s" % config.notify_suffix), RdataType.A) == 0.1
        assert server._policy_force_tcp(Name("l1tcp.t09.m1.%s" % config.probe_suffix))

    def test_respond_runs_once_per_answered_query(self, monkeypatch):
        """Each distinct (name, type) the server answers is synthesized
        once, and nothing is synthesized for a query that never came."""
        calls = []
        for policy in list(POLICIES) + [NOTIFY_POLICY]:
            real = policy.respond

            def respond(sub, qtype, ctx, real=real):
                calls.append((sub, ctx.mtaid, ctx.testid, qtype))
                return real(sub, qtype, ctx)

            monkeypatch.setattr(policy, "respond", respond)
        universe = generate_universe(DatasetSpec.notify_email(scale=0.002), seed=7)
        testbed = Testbed(universe, seed=3)
        NotifyEmailCampaign(testbed).run()
        ProbeCampaign(testbed, "NotifyMX", testids=("t01", "t02", "t09", "t34"), start_time=1e7).run()
        queried = {
            (query.sub, query.mtaid, query.testid, query.qtype)
            for query in testbed.query_index().queries
        }
        assert calls and max(Counter(calls).values()) == 1
        assert set(calls) <= queried
        assert len(calls) < len(testbed.synth.query_log)


def AuthorityDirectoryFrom(resolver):
    """The directory a resolver is using (test helper)."""
    return resolver.directory
