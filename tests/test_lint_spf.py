"""Tests for the static SPF analyzer (repro.lint).

The headline test is the static/dynamic agreement sweep: for every one of
the 39 paper test policies, the term-graph walker's predicted worst-case
lookup/void counts and limit verdict must match what the dynamic
``SpfEvaluator`` actually does against the synthesizing DNS server.
"""

import pytest

from repro.core.policies import POLICIES, PolicyContext
from repro.core.preflight import (
    PolicyRecordSource,
    PreflightError,
    audit_policy,
    preflight_policies,
)
from repro.core.synth import SynthConfig, SynthesizingAuthority
from repro.dns.rdata import ARecord, CnameRecord, MxRecord, RdataType, TxtRecord
from repro.dns.resolver import AuthorityDirectory, Resolver, ResolverConfig
from repro.lint import (
    DictRecordSource,
    SourceStatus,
    audit_record_text,
    audit_spf_domain,
)
from repro.net.clock import Clock
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.spf.errors import SpfSyntaxError
from repro.spf.evaluator import SpfEvaluator
from repro.spf.parser import parse_record
from repro.spf.result import SpfResult
from repro.spf.terms import InvalidTerm


# -- parser satellites: offsets and singleton modifiers -------------------


class TestParserOffsets:
    def test_terms_carry_offsets(self):
        text = "v=spf1 a:x.example redirect=y.example"
        record = parse_record(text)
        directive, modifier = record.terms
        assert text[directive.start : directive.end] == "a:x.example"
        assert text[modifier.start : modifier.end] == "redirect=y.example"

    def test_invalid_terms_carry_offsets(self):
        text = "v=spf1 bogus:thing -all"
        record = parse_record(text, tolerant=True)
        invalid = record.invalid_terms[0]
        assert text[invalid.start : invalid.end] == "bogus:thing"

    def test_offsets_do_not_affect_equality(self):
        parsed = parse_record("v=spf1 -all").terms[0]
        shifted = parse_record("v=spf1    -all").terms[0]
        assert parsed.start != shifted.start
        assert parsed == shifted


class TestSingletonModifiers:
    def test_duplicate_redirect_strict_permerror(self):
        with pytest.raises(SpfSyntaxError, match="duplicate redirect"):
            parse_record("v=spf1 redirect=a.example redirect=b.example")

    def test_duplicate_exp_strict_permerror(self):
        with pytest.raises(SpfSyntaxError, match="duplicate exp"):
            parse_record("v=spf1 -all exp=a.example exp=b.example")

    def test_duplicate_tolerant_keeps_first(self):
        record = parse_record("v=spf1 redirect=a.example redirect=b.example", tolerant=True)
        assert record.modifier("redirect") == "a.example"
        assert isinstance(record.terms[-1], InvalidTerm)
        assert "duplicate" in record.terms[-1].reason

    def test_single_redirect_still_fine(self):
        record = parse_record("v=spf1 redirect=a.example")
        assert record.modifier("redirect") == "a.example"


# -- record-level rules ----------------------------------------------------


def _codes(text, **kwargs):
    return audit_record_text(text, **kwargs).report.codes()


class TestRecordRules:
    def test_plus_all(self):
        assert "SPF022" in _codes("v=spf1 +all")

    def test_neutral_all(self):
        assert "SPF023" in _codes("v=spf1 ?all")

    def test_no_terminal(self):
        assert "SPF024" in _codes("v=spf1 ip4:192.0.2.0/24")

    def test_unreachable_after_all(self):
        assert "SPF020" in _codes("v=spf1 -all ip4:192.0.2.1")

    def test_redirect_with_all(self):
        assert "SPF021" in _codes("v=spf1 -all redirect=r.example")

    def test_ptr(self):
        assert "SPF025" in _codes("v=spf1 ptr -all")

    def test_syntax_error_in_term(self):
        audit = audit_record_text("v=spf1 ipv4:192.0.2.1 -all")
        assert audit.report.codes() == ["SPF001"]
        assert audit.report.diagnostics[0].span.slice(audit.record_text) == "ipv4:192.0.2.1"
        assert audit.prediction.first_abort == "permerror:syntax"

    def test_unparseable_record(self):
        audit = audit_record_text("v=spf10 -all")
        assert audit.report.codes() == ["SPF002"]
        assert audit.prediction.result is SpfResult.PERMERROR

    def test_unknown_modifier(self):
        assert "SPF027" in _codes("v=spf1 moo=cow -all")

    def test_duplicate_modifier_diagnostic_with_span(self):
        audit = audit_record_text("v=spf1 redirect=a.example redirect=b.example")
        finding = next(d for d in audit.report.diagnostics if d.code == "SPF004")
        assert finding.span.slice(audit.record_text) == "redirect=b.example"
        assert audit.prediction.statically_permerror

    def test_oversize_record(self):
        fat = "v=spf1 " + " ".join("ip4:192.0.2.%d" % i for i in range(1, 120)) + " -all"
        assert "SPF005" in _codes(fat)

    def test_macro_include(self):
        audit = audit_record_text("v=spf1 include:%{i}.x.example -all")
        assert audit.report.has("SPF026")
        assert not audit.prediction.complete

    def test_clean_record_is_clean(self):
        audit = audit_record_text("v=spf1 ip4:192.0.2.0/24 -all")
        assert audit.report.diagnostics == []
        assert audit.prediction.lookup_terms == 0
        assert audit.prediction.result is SpfResult.FAIL


# -- graph walking over a DictRecordSource --------------------------------


def _source(records):
    return DictRecordSource(records, origin="example.com")


class TestGraphWalk:
    def test_include_chain_counts(self):
        source = _source(
            {
                "example.com": [TxtRecord("v=spf1 include:a.example.com -all")],
                "a.example.com": [TxtRecord("v=spf1 include:b.example.com ?all")],
                "b.example.com": [TxtRecord("v=spf1 ip4:192.0.2.1 ?all")],
            }
        )
        audit = audit_spf_domain("example.com", source)
        assert audit.prediction.lookup_terms == 2
        assert audit.prediction.first_abort is None
        assert audit.prediction.complete

    def test_include_cycle(self):
        source = _source(
            {
                "example.com": [TxtRecord("v=spf1 include:a.example.com -all")],
                "a.example.com": [TxtRecord("v=spf1 include:example.com ?all")],
            }
        )
        audit = audit_spf_domain("example.com", source)
        assert audit.report.has("SPF013")
        assert audit.prediction.cycle
        assert audit.prediction.first_abort == "lookup_limit"
        assert audit.report.has("SPF010")

    def test_redirect_cycle(self):
        source = _source({"example.com": [TxtRecord("v=spf1 redirect=example.com")]})
        audit = audit_spf_domain("example.com", source)
        assert audit.report.has("SPF014")
        assert audit.prediction.cycle

    def test_include_without_spf(self):
        source = _source(
            {
                "example.com": [TxtRecord("v=spf1 include:a.example.com -all")],
                "a.example.com": [TxtRecord("plain text, not spf")],
            }
        )
        audit = audit_spf_domain("example.com", source)
        assert audit.report.has("SPF015")
        assert audit.prediction.first_abort == "permerror:include-none"

    def test_redirect_without_spf(self):
        source = _source(
            {
                "example.com": [TxtRecord("v=spf1 redirect=a.example.com")],
                "a.example.com": [ARecord("192.0.2.1")],
            }
        )
        audit = audit_spf_domain("example.com", source)
        assert audit.report.has("SPF016")
        assert audit.prediction.first_abort == "permerror:redirect-none"

    def test_lookup_limit_exceeded(self):
        terms = " ".join("a:h%d.example.com" % i for i in range(11))
        records = {"example.com": [TxtRecord("v=spf1 %s -all" % terms)]}
        for i in range(11):
            records["h%d.example.com" % i] = [ARecord("192.0.2.%d" % (i + 1))]
        audit = audit_spf_domain("example.com", _source(records))
        assert audit.prediction.lookup_terms == 11
        assert audit.prediction.first_abort == "lookup_limit"
        assert audit.report.has("SPF010")

    def test_near_limit_warning(self):
        terms = " ".join("a:h%d.example.com" % i for i in range(8))
        records = {"example.com": [TxtRecord("v=spf1 %s -all" % terms)]}
        for i in range(8):
            records["h%d.example.com" % i] = [ARecord("192.0.2.%d" % (i + 1))]
        audit = audit_spf_domain("example.com", _source(records))
        assert audit.prediction.first_abort is None
        assert audit.report.has("SPF011")

    def test_two_voids_allowed_three_abort(self):
        base = {"example.com": [TxtRecord("v=spf1 a:v1.example.com a:v2.example.com -all")]}
        audit = audit_spf_domain("example.com", _source(base))
        assert audit.prediction.void_lookups == 2
        assert audit.prediction.first_abort is None

        base = {
            "example.com": [
                TxtRecord("v=spf1 a:v1.example.com a:v2.example.com a:v3.example.com -all")
            ]
        }
        audit = audit_spf_domain("example.com", _source(base))
        assert audit.prediction.first_abort == "void_limit"
        assert audit.report.has("SPF012")

    def test_mx_limit(self):
        records = {
            "example.com": [TxtRecord("v=spf1 mx:big.example.com -all")],
            "big.example.com": [
                MxRecord(i, "x%d.example.com" % i) for i in range(11)
            ],
        }
        for i in range(11):
            records["x%d.example.com" % i] = [ARecord("192.0.2.%d" % (i + 1))]
        audit = audit_spf_domain("example.com", _source(records))
        assert audit.report.has("SPF018")
        assert audit.prediction.first_abort == "mx_limit"

    def test_null_mx_no_void(self):
        records = {
            "example.com": [TxtRecord("v=spf1 mx:null.example.com -all")],
            "null.example.com": [MxRecord(0, ".")],
        }
        audit = audit_spf_domain("example.com", _source(records))
        assert audit.report.has("SPF019")
        assert audit.prediction.void_lookups == 0
        assert audit.prediction.first_abort is None

    def test_multiple_records(self):
        source = _source(
            {"example.com": [TxtRecord("v=spf1 -all"), TxtRecord("v=spf1 ~all")]}
        )
        audit = audit_spf_domain("example.com", source)
        assert audit.report.has("SPF003")
        assert audit.prediction.first_abort == "permerror:multiple-records"

    def test_exists_known_found_is_static_match(self):
        source = _source(
            {
                "example.com": [TxtRecord("v=spf1 exists:ok.example.com -all")],
                "ok.example.com": [ARecord("192.0.2.1")],
            }
        )
        audit = audit_spf_domain("example.com", source)
        assert audit.prediction.result is SpfResult.PASS
        assert audit.prediction.lookup_terms == 1

    def test_cname_chased_to_spf(self):
        source = _source(
            {
                "example.com": [CnameRecord("real.example.com")],
                "real.example.com": [TxtRecord("v=spf1 -all")],
            }
        )
        audit = audit_spf_domain("example.com", source)
        assert audit.prediction.result is SpfResult.FAIL

    def test_unknown_target_marks_lower_bound(self):
        audit = audit_record_text(
            "v=spf1 include:other.example.net -all", domain="example.com"
        )
        assert audit.report.has("SPF028")
        assert not audit.prediction.complete

    def test_no_spf_returns_none(self):
        assert audit_spf_domain("example.com", _source({"example.com": [ARecord("192.0.2.1")]})) is None

    def test_dict_source_statuses(self):
        source = _source({"a.example.com": [ARecord("192.0.2.1")]})
        assert source.fetch("a.example.com", RdataType.TXT).status is SourceStatus.NODATA
        assert source.fetch("example.com", RdataType.A).status is SourceStatus.NODATA
        assert source.fetch("nope.example.com", RdataType.A).status is SourceStatus.NXDOMAIN
        assert source.fetch("example.net", RdataType.A).status is SourceStatus.UNKNOWN


# -- static vs dynamic agreement on all 39 paper policies ------------------


def _deployed_evaluator():
    network = Network(LatencyModel(0.005), Clock())
    directory = AuthorityDirectory()
    synth_config = SynthConfig(sender_ips=("203.0.113.9",), dkim_key_b64="QUJD")
    SynthesizingAuthority(synth_config).deploy(network, directory)
    # timeout=30: t31/t37 delay responses up to 9 s by design; with the
    # default 5 s the dynamic side would temperror on latency, which the
    # static analyzer by construction cannot see.
    resolver = Resolver(
        network,
        directory,
        address4="203.0.113.77",
        address6="2001:db8:77::1",
        config=ResolverConfig(timeout=30.0),
    )
    return SpfEvaluator(resolver), synth_config


def _static_audit(policy, synth_config):
    ctx = PolicyContext(
        base="%s.m1.%s" % (policy.testid, synth_config.probe_suffix),
        mtaid="m1",
        testid=policy.testid,
        v6_base="%s.m1.%s" % (policy.testid, synth_config.v6_suffix),
        helo_base="h.%s.m1.%s" % (policy.testid, synth_config.probe_suffix),
        probe_ipv4=synth_config.probe_ipv4,
        probe_ipv6=synth_config.probe_ipv6,
    )
    return audit_spf_domain(ctx.base, PolicyRecordSource(policy, ctx))


@pytest.mark.parametrize("policy", POLICIES, ids=[p.testid for p in POLICIES])
def test_static_prediction_matches_dynamic_evaluator(policy):
    """For every paper policy: predicted counts and limit verdict must
    match what the dynamic evaluator does against the synth server."""
    evaluator, synth_config = _deployed_evaluator()
    audit = _static_audit(policy, synth_config)
    assert audit is not None, "policy %s publishes no SPF" % policy.testid

    domain = audit.domain
    outcome = evaluator.check_host(
        synth_config.probe_ipv4, domain, "probe@" + domain, t_start=0.0
    )
    prediction = audit.prediction

    if prediction.exceeds_limits:
        assert outcome.result is SpfResult.PERMERROR, (
            "%s: static predicts %s but dynamic returned %s"
            % (policy.testid, prediction.first_abort, outcome.result)
        )
        return
    if outcome.result is SpfResult.PERMERROR:
        assert prediction.statically_permerror, (
            "%s: dynamic permerror not predicted statically" % policy.testid
        )
        return
    assert prediction.lookup_terms == outcome.mechanism_lookups, (
        "%s: static %d lookups, dynamic %d"
        % (policy.testid, prediction.lookup_terms, outcome.mechanism_lookups)
    )
    assert prediction.void_lookups == outcome.void_lookups, (
        "%s: static %d voids, dynamic %d"
        % (policy.testid, prediction.void_lookups, outcome.void_lookups)
    )
    # The walker assumes no IP-dependent mechanism matches — exactly the
    # designed-to-fail situation, except where a policy deliberately
    # authorizes the probe (dynamic PASS) or uses macros (complete=False).
    if prediction.complete and prediction.result is not None and outcome.result is not SpfResult.PASS:
        assert prediction.result is outcome.result, (
            "%s: static result %s, dynamic %s"
            % (policy.testid, prediction.result, outcome.result)
        )


# -- campaign pre-flight ---------------------------------------------------


class TestPreflight:
    def test_all_39_policies_pass_preflight(self):
        audits = preflight_policies(POLICIES)
        assert len(audits) == 39
        assert audits["t02"].prediction.first_abort == "lookup_limit"
        assert audits["t02"].prediction.lookup_terms == 46

    def test_policy_without_spf_fails_preflight(self):
        from repro.core.policies import TestPolicy

        broken = TestPolicy("tx", "no_spf", "publishes nothing", {(): [("A", "192.0.2.1")]})
        with pytest.raises(PreflightError, match="tx"):
            preflight_policies([broken])

    def test_audit_policy_cycle(self):
        from repro.core.policies import policy_by_id

        audit = audit_policy(policy_by_id("t18"))
        assert audit.prediction.cycle
        assert audit.report.has("SPF013")
