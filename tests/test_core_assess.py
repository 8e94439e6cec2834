"""Tests for the sender-deployment assessor (an adapter over repro.lint)."""

import pytest

from repro.core.assess import assess_domain
from repro.dkim import KeyRecord, generate_keypair
from repro.dmarc.record import DmarcPolicy
from repro.dns.rdata import ARecord, MxRecord, TxtRecord
from repro.lint.diagnostics import Severity
from tests.helpers import World

KEYPAIR = generate_keypair(1024, seed=95)


def _assess_spf(record, children=()):
    """Assess a domain that publishes ``record`` plus ``(name, txt)`` children."""
    world = World(seed=3)
    zone = world.zone("spf.example")
    zone.add("spf.example", TxtRecord(record))
    zone.add("spf.example", ARecord("192.0.2.1"))
    zone.add("spf.example", MxRecord(10, "spf.example"))
    for name, text in children:
        zone.add(name, TxtRecord(text))
    assessment, _ = assess_domain(world.resolver(), "spf.example", selectors=())
    return assessment


def _spf_codes(record, children=()):
    return _assess_spf(record, children).spf.report.codes()


def _includes(count):
    names = ["i%d.spf.example" % i for i in range(count)]
    record = "v=spf1 " + " ".join("include:%s" % name for name in names) + " -all"
    return record, [(name, "v=spf1 -all") for name in names]


class TestSpfLint:
    """The assessor's SPF findings, one lint rule per record shape."""

    def test_clean_record(self):
        assessment = _assess_spf("v=spf1 ip4:192.0.2.0/24 -all")
        assert assessment.spf.report.codes() == []
        assert assessment.spf.prediction.lookup_terms == 0

    def test_counts_lookup_terms(self):
        assessment = _assess_spf(
            "v=spf1 a mx include:x.spf.example exists:none.spf.example ptr -all",
            [("x.spf.example", "v=spf1 -all")],
        )
        assert assessment.spf.prediction.lookup_terms == 5
        assert "SPF025" in assessment.spf.report.codes()

    def test_over_limit_is_error(self):
        assessment = _assess_spf(*_includes(11))
        assert assessment.spf.prediction.lookup_terms == 11
        assert [d.severity for d in assessment.report.diagnostics if d.code == "SPF010"] == [
            Severity.ERROR
        ]

    def test_near_limit_warns(self):
        assert _spf_codes(*_includes(8)) == ["SPF011"]

    def test_plus_all_is_error(self):
        assert _spf_codes("v=spf1 +all") == ["SPF022"]

    def test_terms_after_all_warn(self):
        assert _spf_codes("v=spf1 -all ip4:192.0.2.1") == ["SPF020"]

    def test_missing_terminal_warns(self):
        assert _spf_codes("v=spf1 ip4:192.0.2.1") == ["SPF024"]

    def test_redirect_counts_and_conflicts(self):
        assessment = _assess_spf("v=spf1 -all redirect=x.spf.example")
        assert assessment.spf.report.codes() == ["SPF021"]
        assert assessment.spf.prediction.lookup_terms == 0  # 'all' ends evaluation first

    def test_syntax_error_reported(self):
        assert _spf_codes("v=spf1 ipv4:192.0.2.1 -all") == ["SPF001"]


class TestResolvedSpfWalk:
    """Limits only a walk through the include graph can see."""

    def test_nested_includes_over_limit(self, world):
        zone = world.zone("nested.example")
        zone.add("nested.example", TxtRecord("v=spf1 include:a.nested.example include:b.nested.example -all"))
        for parent in ("a", "b"):
            children = ["%s%d.nested.example" % (parent, i) for i in range(6)]
            zone.add(
                "%s.nested.example" % parent,
                TxtRecord("v=spf1 " + " ".join("include:%s" % c for c in children) + " -all"),
            )
            for child in children:
                zone.add(child, TxtRecord("v=spf1 ip4:192.0.2.0/24 -all"))
        zone.add(
            "mail._domainkey.nested.example",
            TxtRecord(KeyRecord(public_key_b64=KEYPAIR.public.to_base64()).to_text()),
        )
        zone.add("_dmarc.nested.example", TxtRecord("v=DMARC1; p=reject; rua=mailto:a@nested.example"))
        assessment, _ = assess_domain(world.resolver(), "nested.example")
        assert assessment.spf.prediction.lookup_terms == 14
        assert "SPF010" in assessment.report.codes()
        assert assessment.grade == "C"  # SPF permerrors: DKIM + DMARC only

    def test_include_of_nxdomain_is_permerror(self):
        assessment = _assess_spf("v=spf1 include:gone.spf.example -all")
        assert assessment.spf.report.codes() == ["SPF015"]
        assert assessment.report.errors[0].code == "SPF015"

    def test_bare_mx_counts_one_lookup(self):
        assessment = _assess_spf("v=spf1 mx -all")
        assert assessment.spf.prediction.lookup_terms == 1
        assert "1 DNS-lookup terms" in assessment.to_text()


@pytest.fixture
def world():
    world = World(seed=97)
    zone = world.zone("good.example")
    zone.add("good.example", TxtRecord("v=spf1 mx -all"))
    zone.add("good.example", MxRecord(10, "mx.good.example"))
    zone.add("mx.good.example", ARecord("198.51.100.5"))
    zone.add(
        "mail._domainkey.good.example",
        TxtRecord(KeyRecord(public_key_b64=KEYPAIR.public.to_base64()).to_text()),
    )
    zone.add("_dmarc.good.example", TxtRecord("v=DMARC1; p=reject; rua=mailto:agg@good.example"))

    bad = world.zone("bad.example")
    bad.add("bad.example", TxtRecord("v=spf1 include:void.bad.example include:other.bad.example +all"))
    bad.add("other.bad.example", TxtRecord("just text, no policy"))
    bad.add("_dmarc.bad.example", TxtRecord("v=DMARC1; p=none; pct=50"))

    world.zone("empty.example")
    return world


class TestAssessDomain:
    def test_clean_deployment_grades_a(self, world):
        assessment, _ = assess_domain(world.resolver(), "good.example")
        assert assessment.grade == "A"
        assert assessment.spf.record_text == "v=spf1 mx -all"
        assert assessment.usable_keys == 1
        assert assessment.dmarc.policy is DmarcPolicy.REJECT
        assert assessment.report.codes() == ["DKIM004"]  # 1024-bit key

    def test_broken_deployment_flags_everything(self, world):
        assessment, _ = assess_domain(world.resolver(), "bad.example")
        assert assessment.report.codes() == [
            "SPF015",  # include target NXDOMAIN
            "SPF015",  # include target without a policy
            "SPF022",  # +all
            "DKIM017",
            "DMARC002",  # p=none
            "DMARC005",  # pct=50
            "DMARC010",  # no rua=
        ]
        assert assessment.grade == "D"

    def test_nothing_deployed_grades_f(self, world):
        assessment, _ = assess_domain(world.resolver(), "empty.example")
        assert assessment.grade == "F"
        assert assessment.report.codes() == ["SPF006", "DKIM017", "DMARC009"]

    def test_report_renders(self, world):
        assessment, _ = assess_domain(world.resolver(), "good.example")
        text = assessment.to_text()
        assert "grade A" in text
        assert "v=spf1 mx -all" in text
        assert "DKIM004 warning" in text

    def test_custom_selectors(self, world):
        assessment, _ = assess_domain(world.resolver(), "good.example", selectors=("nope",))
        assert assessment.usable_keys == 0
        assert assessment.report.has("DKIM017")
        assert assessment.grade == "C"  # SPF + DMARC only

    def test_weak_key_flagged(self, world):
        weak = generate_keypair(512, seed=5)
        zone = world.zone("weak.example")
        zone.add("weak.example", TxtRecord("v=spf1 -all"))
        zone.add(
            "mail._domainkey.weak.example",
            TxtRecord(KeyRecord(public_key_b64=weak.public.to_base64()).to_text()),
        )
        zone.add("_dmarc.weak.example", TxtRecord("v=DMARC1; p=reject"))
        assessment, _ = assess_domain(world.resolver(), "weak.example")
        assert assessment.report.has("DKIM003")
        assert assessment.grade == "B"

    def test_multiple_spf_records_error(self, world):
        zone = world.zone("dup.example")
        zone.add("dup.example", TxtRecord("v=spf1 -all"))
        zone.add("dup.example", TxtRecord("v=spf1 ~all"))
        assessment, _ = assess_domain(world.resolver(), "dup.example")
        assert assessment.spf.report.has("SPF003")

    def test_unreachable_dns(self, world):
        assessment, t = assess_domain(world.resolver(), "unregistered.nowhere", t=1.0)
        missing = [d for d in assessment.report.diagnostics if d.code == "SPF006"]
        assert len(missing) == 1
        assert "TXT lookup unreachable" in missing[0].message
        assert t >= 1.0
