"""Tests for the SPF check_host evaluator: RFC behaviour and wild deviations."""

import pytest

from repro.dns.rdata import AAAARecord, ARecord, MxRecord, PtrRecord, TxtRecord
from repro.spf import SpfConfig, SpfEvaluator, SpfResult
from repro.spf import evaluator as evaluator_module
from tests.helpers import World

IP = "192.0.2.1"
OTHER_IP = "203.0.113.77"


@pytest.fixture
def world():
    world = World(seed=31)
    zone = world.zone("spf.test")
    zone.add("basic.spf.test", TxtRecord("v=spf1 ip4:192.0.2.1 -all"))
    zone.add("amech.spf.test", TxtRecord("v=spf1 a:mail.spf.test -all"))
    zone.add("mail.spf.test", ARecord(IP))
    zone.add("mail.spf.test", AAAARecord("2001:db8::1"))
    zone.add("mxmech.spf.test", TxtRecord("v=spf1 mx -all"))
    zone.add("mxmech.spf.test", MxRecord(10, "mx1.mxmech.spf.test"))
    zone.add("mxmech.spf.test", MxRecord(20, "mx2.mxmech.spf.test"))
    zone.add("mx1.mxmech.spf.test", ARecord("198.51.100.5"))
    zone.add("mx2.mxmech.spf.test", ARecord(IP))
    zone.add("parent.spf.test", TxtRecord("v=spf1 include:child.spf.test -all"))
    zone.add("child.spf.test", TxtRecord("v=spf1 ip4:192.0.2.1 ~all"))
    zone.add("redir.spf.test", TxtRecord("v=spf1 redirect=basic.spf.test"))
    zone.add("neutral.spf.test", TxtRecord("v=spf1 ?all"))
    zone.add("exists.spf.test", TxtRecord("v=spf1 exists:%{ir}.ex.spf.test -all"))
    zone.add("1.2.0.192.ex.spf.test", ARecord("127.0.0.2"))
    return world


def _check(world, domain, ip=IP, config=None, sender=None, helo="client.example", t=0.0):
    evaluator = SpfEvaluator(world.resolver(), config=config)
    return evaluator.check_host(ip, domain, sender or "user@%s" % domain, helo=helo, t_start=t)


class TestMechanisms:
    def test_ip4_pass(self, world):
        assert _check(world, "basic.spf.test").result is SpfResult.PASS

    def test_all_fail(self, world):
        assert _check(world, "basic.spf.test", ip=OTHER_IP).result is SpfResult.FAIL

    def test_a_mechanism_v4(self, world):
        outcome = _check(world, "amech.spf.test")
        assert outcome.result is SpfResult.PASS
        assert outcome.matched_term == "a:mail.spf.test"

    def test_a_mechanism_v6(self, world):
        outcome = _check(world, "amech.spf.test", ip="2001:db8::1")
        assert outcome.result is SpfResult.PASS
        # The IPv6 client must have triggered an AAAA, not an A, lookup.
        assert any(r.qtype == "AAAA" for r in outcome.lookups)

    def test_mx_mechanism_walks_exchanges(self, world):
        outcome = _check(world, "mxmech.spf.test")
        assert outcome.result is SpfResult.PASS
        qnames = [r.qname for r in outcome.lookups]
        assert "mx1.mxmech.spf.test" in qnames  # lower preference first
        assert "mx2.mxmech.spf.test" in qnames

    def test_include_pass(self, world):
        outcome = _check(world, "parent.spf.test")
        assert outcome.result is SpfResult.PASS
        assert outcome.matched_term == "include:child.spf.test"

    def test_include_softfail_is_no_match(self, world):
        outcome = _check(world, "parent.spf.test", ip=OTHER_IP)
        assert outcome.result is SpfResult.FAIL  # falls through to -all

    def test_include_missing_policy_is_permerror(self, world):
        world.server.zones[0].add("badinc.spf.test", TxtRecord("v=spf1 include:void.spf.test -all"))
        outcome = _check(world, "badinc.spf.test")
        assert outcome.result is SpfResult.PERMERROR

    def test_redirect_followed(self, world):
        assert _check(world, "redir.spf.test").result is SpfResult.PASS
        assert _check(world, "redir.spf.test", ip=OTHER_IP).result is SpfResult.FAIL

    def test_redirect_to_nothing_is_permerror(self, world):
        world.server.zones[0].add("redirbad.spf.test", TxtRecord("v=spf1 redirect=void.spf.test"))
        assert _check(world, "redirbad.spf.test").result is SpfResult.PERMERROR

    def test_neutral_default(self, world):
        assert _check(world, "neutral.spf.test", ip=OTHER_IP).result is SpfResult.NEUTRAL

    def test_no_record_is_none(self, world):
        world.server.zones[0].add("norecord.spf.test", ARecord("1.2.3.4"))
        assert _check(world, "norecord.spf.test").result is SpfResult.NONE

    def test_no_directive_match_no_redirect_is_neutral(self, world):
        world.server.zones[0].add("open.spf.test", TxtRecord("v=spf1 ip4:10.0.0.1"))
        assert _check(world, "open.spf.test").result is SpfResult.NEUTRAL

    def test_exists_macro(self, world):
        assert _check(world, "exists.spf.test", ip="192.0.2.1").result is SpfResult.PASS
        assert _check(world, "exists.spf.test", ip="192.0.2.9").result is SpfResult.FAIL

    def test_ptr_mechanism(self, world):
        zone = world.zone("2.0.192.in-addr.arpa")
        zone.add("1.2.0.192.in-addr.arpa", PtrRecord("mail.ptrdom.spf.test"))
        spf_zone = world.server.zones[0]
        spf_zone.add("ptrdom.spf.test", TxtRecord("v=spf1 ptr:ptrdom.spf.test -all"))
        spf_zone.add("mail.ptrdom.spf.test", ARecord(IP))
        assert _check(world, "ptrdom.spf.test").result is SpfResult.PASS

    def test_ptr_without_reverse_zone_fails(self, world):
        spf_zone = world.server.zones[0]
        spf_zone.add("ptrless.spf.test", TxtRecord("v=spf1 ptr ~all"))
        outcome = _check(world, "ptrless.spf.test")
        assert outcome.result is SpfResult.SOFTFAIL

    def test_bad_domain_returns_none(self, world):
        assert _check(world, "nodots").result is SpfResult.NONE
        assert _check(world, "").result is SpfResult.NONE


class TestErrors:
    def test_unreachable_dns_temperror(self, world):
        outcome = _check(world, "unreg.elsewhere.example")
        assert outcome.result is SpfResult.TEMPERROR

    def test_syntax_error_permerror(self, world):
        world.server.zones[0].add("syntax.spf.test", TxtRecord("v=spf1 ipv4:192.0.2.1 -all"))
        outcome = _check(world, "syntax.spf.test")
        assert outcome.result is SpfResult.PERMERROR
        # Strict validators stop at the first lookup.
        assert len(outcome.lookups) == 1
        # Parsed records are memoised by text; a record that fails to
        # parse is not, so a second check fails the same way.
        again = _check(world, "syntax.spf.test")
        assert (again.result, again.explanation) == (outcome.result, outcome.explanation)

    def test_repeated_policy_text_is_parsed_once(self, world):
        _check(world, "basic.spf.test")
        before = evaluator_module._parse_record.cache_info()
        assert _check(world, "basic.spf.test", t=10.0).result is SpfResult.PASS
        after = evaluator_module._parse_record.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_multiple_records_permerror(self, world):
        zone = world.server.zones[0]
        zone.add("multi.spf.test", TxtRecord("v=spf1 a:one.spf.test -all"))
        zone.add("multi.spf.test", TxtRecord("v=spf1 a:two.spf.test -all"))
        outcome = _check(world, "multi.spf.test")
        assert outcome.result is SpfResult.PERMERROR
        assert len(outcome.lookups) == 1  # neither policy followed

    def test_non_spf_txt_ignored(self, world):
        zone = world.server.zones[0]
        zone.add("mixed.spf.test", TxtRecord("google-site-verification=abc123"))
        zone.add("mixed.spf.test", TxtRecord("v=spf1 ip4:192.0.2.1 -all"))
        assert _check(world, "mixed.spf.test").result is SpfResult.PASS

    def test_include_child_temperror_propagates(self, world):
        world.server.zones[0].add(
            "tempinc.spf.test", TxtRecord("v=spf1 include:child.unreachable.example -all")
        )
        assert _check(world, "tempinc.spf.test").result is SpfResult.TEMPERROR


class TestLookupLimits:
    def _chain_zone(self, world, length):
        """A policy whose include chain is ``length`` levels deep."""
        zone = world.server.zones[0]
        for index in range(length):
            nxt = "l%d.chain.spf.test" % (index + 1)
            name = "chain.spf.test" if index == 0 else "l%d.chain.spf.test" % index
            zone.add(name, TxtRecord("v=spf1 include:%s ?all" % nxt))
        zone.add("l%d.chain.spf.test" % length, TxtRecord("v=spf1 ?all"))

    def test_limit_enforced_at_ten(self, world):
        self._chain_zone(world, 15)
        outcome = _check(world, "chain.spf.test")
        assert outcome.result is SpfResult.PERMERROR
        assert outcome.mechanism_lookups == 11  # aborts at the 11th term

    def test_limit_disabled_walks_whole_chain(self, world):
        self._chain_zone(world, 15)
        outcome = _check(world, "chain.spf.test", config=SpfConfig(max_dns_mechanisms=None))
        assert outcome.result is SpfResult.NEUTRAL
        assert outcome.mechanism_lookups == 15

    def test_void_limit(self, world):
        world.server.zones[0].add(
            "voidy.spf.test",
            TxtRecord("v=spf1 a:v1.spf.test a:v2.spf.test a:v3.spf.test a:v4.spf.test a:v5.spf.test -all"),
        )
        outcome = _check(world, "voidy.spf.test")
        assert outcome.result is SpfResult.PERMERROR
        # The budget is checked before each lookup, so a compliant
        # validator is observable as exactly two void queries (s7.3).
        assert outcome.void_lookups == 2
        void_queries = [r for r in outcome.lookups if r.qname.startswith("v") and r.qname[1].isdigit()]
        assert len(void_queries) == 2

    def test_void_limit_disabled(self, world):
        world.server.zones[0].add(
            "voidy2.spf.test",
            TxtRecord("v=spf1 a:v1.spf.test a:v2.spf.test a:v3.spf.test a:v4.spf.test a:v5.spf.test -all"),
        )
        outcome = _check(world, "voidy2.spf.test", config=SpfConfig(max_void_lookups=None))
        assert outcome.result is SpfResult.FAIL
        assert outcome.void_lookups == 5

    def test_mx_address_limit(self, world):
        zone = world.server.zones[0]
        zone.add("manymx.spf.test", TxtRecord("v=spf1 mx -all"))
        for index in range(20):
            zone.add("manymx.spf.test", MxRecord(index, "h%d.manymx.spf.test" % index))
            zone.add("h%d.manymx.spf.test" % index, ARecord("198.51.100.%d" % index))
        outcome = _check(world, "manymx.spf.test")
        assert outcome.result is SpfResult.PERMERROR
        a_lookups = [r for r in outcome.lookups if r.qtype == "A" and r.qname.startswith("h")]
        assert len(a_lookups) == 10

    def test_mx_address_limit_disabled(self, world):
        zone = world.server.zones[0]
        zone.add("manymx2.spf.test", TxtRecord("v=spf1 mx -all"))
        for index in range(20):
            zone.add("manymx2.spf.test", MxRecord(index, "g%d.manymx2.spf.test" % index))
            zone.add("g%d.manymx2.spf.test" % index, ARecord("198.51.100.%d" % index))
        outcome = _check(world, "manymx2.spf.test", config=SpfConfig(max_mx_addresses=None))
        assert outcome.result is SpfResult.FAIL
        a_lookups = [r for r in outcome.lookups if r.qtype == "A" and r.qname.startswith("g")]
        assert len(a_lookups) == 20

    def test_overall_timeout_temperror(self, world):
        self._chain_zone(world, 15)
        world.server.response_delay = lambda name, rdtype: 0.8
        config = SpfConfig(max_dns_mechanisms=None, overall_timeout=4.0)
        outcome = _check(world, "chain.spf.test", config=config)
        assert outcome.result is SpfResult.TEMPERROR
        assert outcome.elapsed > 4.0
        assert outcome.mechanism_lookups < 15


class TestWildDeviations:
    def test_tolerant_syntax_keeps_validating(self, world):
        zone = world.server.zones[0]
        zone.add("tsyntax.spf.test", TxtRecord("v=spf1 ipv4:192.0.2.1 a:after.spf.test -all"))
        zone.add("after.spf.test", ARecord(IP))
        outcome = _check(world, "tsyntax.spf.test", config=SpfConfig(tolerant_syntax=True))
        assert outcome.result is SpfResult.PASS
        # The giveaway the paper watches for: a lookup *right of* the error.
        assert any(r.qname == "after.spf.test" for r in outcome.lookups)

    def test_ignore_child_permerror(self, world):
        zone = world.server.zones[0]
        zone.add("badchild.spf.test", TxtRecord("v=spf1 include:broken.spf.test ip4:192.0.2.1 -all"))
        zone.add("broken.spf.test", TxtRecord("v=spf1 ipv4:oops -all"))
        strict = _check(world, "badchild.spf.test")
        assert strict.result is SpfResult.PERMERROR
        loose = _check(world, "badchild.spf.test", config=SpfConfig(ignore_child_permerror=True))
        assert loose.result is SpfResult.PASS

    def test_multiple_records_follow_first(self, world):
        zone = world.server.zones[0]
        zone.add("twice.spf.test", TxtRecord("v=spf1 ip4:192.0.2.1 -all"))
        zone.add("twice.spf.test", TxtRecord("v=spf1 ip4:198.51.100.1 -all"))
        outcome = _check(world, "twice.spf.test", config=SpfConfig(on_multiple_records="first"))
        assert outcome.result is SpfResult.PASS
        outcome = _check(world, "twice.spf.test", config=SpfConfig(on_multiple_records="last"))
        assert outcome.result is SpfResult.FAIL

    def test_mx_a_fallback_violation(self, world):
        zone = world.server.zones[0]
        # An mx mechanism whose target has no MX records, only an A record.
        zone.add("nofallback.spf.test", TxtRecord("v=spf1 mx:bare.spf.test -all"))
        zone.add("bare.spf.test", ARecord(IP))
        strict = _check(world, "nofallback.spf.test")
        assert strict.result is SpfResult.FAIL
        assert not any(r.qtype == "A" and r.qname == "bare.spf.test" for r in strict.lookups)
        deviant = _check(world, "nofallback.spf.test", config=SpfConfig(mx_a_fallback=True))
        assert deviant.result is SpfResult.PASS
        assert any(r.qtype == "A" and r.qname == "bare.spf.test" for r in deviant.lookups)

    def test_fetch_only_partial_validator(self, world):
        outcome = _check(world, "amech.spf.test", config=SpfConfig(fetch_only=True))
        assert outcome.result is SpfResult.NEUTRAL
        assert len(outcome.lookups) == 1
        assert outcome.lookups[0].qtype == "TXT"


class TestSerialVsParallel:
    def _ordered_qnames(self, world, suffix):
        entries = world.server.queries_under(suffix)
        return [e.qname.to_text(omit_final_dot=True) for e in sorted(entries, key=lambda e: e.timestamp)]

    def _build_nested(self, world):
        """The paper's Figure 3 policy: include chain L1->L3 plus an 'a'."""
        zone = world.server.zones[0]
        zone.add("l0.par.spf.test", TxtRecord("v=spf1 include:l1.par.spf.test a:foo.par.spf.test -all"))
        zone.add("l1.par.spf.test", TxtRecord("v=spf1 include:l2.par.spf.test ?all"))
        zone.add("l2.par.spf.test", TxtRecord("v=spf1 include:l3.par.spf.test ?all"))
        zone.add("l3.par.spf.test", TxtRecord("v=spf1 ?all"))
        zone.add("foo.par.spf.test", ARecord("192.0.2.99"))
        world.server.response_delay = (
            lambda name, rdtype: 0.1 if name.labels and name.labels[0] in ("l1", "l2") else 0.0
        )

    def test_serial_lookup_order(self, world):
        self._build_nested(world)
        outcome = _check(world, "l0.par.spf.test")
        assert outcome.result is SpfResult.FAIL
        order = self._ordered_qnames(world, "par.spf.test")
        assert order.index("foo.par.spf.test") > order.index("l3.par.spf.test")

    def test_parallel_lookup_order(self, world):
        self._build_nested(world)
        outcome = _check(world, "l0.par.spf.test", config=SpfConfig(parallel_lookups=True))
        assert outcome.result is SpfResult.FAIL
        order = self._ordered_qnames(world, "par.spf.test")
        assert order.index("foo.par.spf.test") < order.index("l3.par.spf.test")


class TestTrace:
    def test_timing_is_monotone(self, world):
        outcome = _check(world, "mxmech.spf.test", t=100.0)
        assert outcome.t_started == 100.0
        previous = 100.0
        for record in outcome.lookups:
            assert record.t_issued >= previous or record.t_issued >= 100.0
            assert record.t_completed >= record.t_issued
            previous = record.t_completed
        assert outcome.t_completed == previous

    def test_lookup_statuses_recorded(self, world):
        world.server.zones[0].add("onevoid.spf.test", TxtRecord("v=spf1 a:v1.spf.test ip4:192.0.2.1 -all"))
        outcome = _check(world, "onevoid.spf.test")
        assert outcome.result is SpfResult.PASS
        statuses = {r.qname: r.status for r in outcome.lookups}
        assert statuses["v1.spf.test"] == "nxdomain"
