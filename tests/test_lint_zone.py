"""Tests for whole-zone auditing (repro.lint.zonelint) and Zone.rrsets."""

from repro.dns.rdata import ARecord, RdataType, TxtRecord
from repro.dns.zone import Zone
from repro.lint import audit_zone
from repro.lint.spfgraph import SpfLimits

# A real (precomputed) 1024-bit RSA public key: the zone auditor now
# parses DKIM keys for usability instead of checking name existence.
KEY_B64 = (
    "MIGfMA0GCSqGSIb3DQEBAQUAA4GNADCBiQKBgQCYNXSKOMa7s+u0yyI2QaWNRUqLcIV9LagA"
    "hfCYOqANu7t8Tse2SowWfTJS2um1V0MlCZuLXmpGm6BjxCQTSnLzmG3kfVtB55zN5nHrRZ1U"
    "qnwHEZHmMrbjNS4f8Vx4lx2F7IWAVkEYI13mQBciatfms4CQQ8FmHCns8oOtdDY/1QIDAQAB"
)


def _zone():
    zone = Zone("example.com")
    zone.add("example.com", TxtRecord("v=spf1 include:spf.example.com -all"))
    zone.add("spf.example.com", TxtRecord("v=spf1 ip4:192.0.2.0/24 ?all"))
    zone.add("_dmarc.example.com", TxtRecord("v=DMARC1; p=reject"))
    zone.add("s1._domainkey.example.com", TxtRecord("v=DKIM1; k=rsa; p=%s" % KEY_B64))
    return zone


class TestRrsets:
    def test_deterministic_iteration(self):
        zone = _zone()
        first = [(str(o), t) for o, t, _ in zone.rrsets()]
        second = [(str(o), t) for o, t, _ in zone.rrsets()]
        assert first == second
        assert (str(zone.origin), RdataType.TXT) in first

    def test_yields_all_records(self):
        zone = _zone()
        total = sum(len(records) for _, _, records in zone.rrsets())
        assert total == zone.record_count()


class TestZoneAudit:
    def test_clean_zone(self):
        audit = audit_zone(_zone())
        assert audit.clean
        assert set(audit.spf_audits) == {"example.com", "spf.example.com"}
        assert audit.spf_audits["example.com"].prediction.lookup_terms == 1
        # spf.example.com itself publishes SPF but no DMARC of its own.
        assert audit.report.has("DMARC001")

    def test_spf_graph_findings_bubble_up(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 include:loop.example.com -all"))
        zone.add("loop.example.com", TxtRecord("v=spf1 include:example.com ?all"))
        audit = audit_zone(zone)
        assert audit.report.has("SPF013")
        assert not audit.clean

    def test_missing_dmarc(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 -all"))
        audit = audit_zone(zone)
        assert audit.report.has("DMARC001")

    def test_p_none_and_pct(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 -all"))
        zone.add("_dmarc.example.com", TxtRecord("v=DMARC1; p=none; pct=50"))
        audit = audit_zone(zone)
        assert audit.report.has("DMARC002")
        assert audit.report.has("DMARC005")
        assert audit.report.has("DMARC010")  # no rua=

    def test_weak_subdomain_policy(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 -all"))
        zone.add("_dmarc.example.com", TxtRecord("v=DMARC1; p=reject; sp=none"))
        audit = audit_zone(zone)
        assert audit.report.has("DMARC006")

    def test_multiple_dmarc_records(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 -all"))
        zone.add("_dmarc.example.com", TxtRecord("v=DMARC1; p=none"))
        zone.add("_dmarc.example.com", TxtRecord("v=DMARC1; p=reject"))
        audit = audit_zone(zone)
        assert audit.report.has("DMARC004")

    def test_unparseable_dmarc(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 -all"))
        zone.add("_dmarc.example.com", TxtRecord("v=DMARC1; p=bogus"))
        audit = audit_zone(zone)
        assert audit.report.has("DMARC003")

    def test_unknown_tag(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 -all"))
        zone.add("_dmarc.example.com", TxtRecord("v=DMARC1; p=reject; moo=cow"))
        audit = audit_zone(zone)
        assert audit.report.has("DMARC008")

    def test_alignment_impossible(self):
        zone = Zone("example.com")
        # DMARC published for a domain with neither SPF nor DKIM keys.
        zone.add("_dmarc.ghost.example.com", TxtRecord("v=DMARC1; p=reject"))
        audit = audit_zone(zone)
        assert audit.report.has("DMARC007")

    def test_alignment_possible_via_dkim(self):
        zone = Zone("example.com")
        zone.add("_dmarc.signed.example.com", TxtRecord("v=DMARC1; p=reject"))
        zone.add("s1._domainkey.signed.example.com", TxtRecord("v=DKIM1; p=%s" % KEY_B64))
        audit = audit_zone(zone)
        assert not audit.report.has("DMARC007")

    def test_non_spf_txt_ignored(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("google-site-verification=abc123"))
        audit = audit_zone(zone)
        assert audit.spf_audits == {}
        assert audit.report.diagnostics == []

    def test_custom_limits(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 include:a.example.com -all"))
        zone.add("a.example.com", TxtRecord("v=spf1 ?all"))
        audit = audit_zone(zone, limits=SpfLimits(max_lookups=0))
        assert audit.spf_audits["example.com"].prediction.first_abort == "lookup_limit"

    def test_out_of_zone_include_is_lower_bound(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 include:_spf.google.com -all"))
        audit = audit_zone(zone)
        spf = audit.spf_audits["example.com"]
        assert spf.report.has("SPF028")
        assert not spf.prediction.complete

    def test_a_record_presence_counts_voids(self):
        zone = Zone("example.com")
        zone.add("example.com", TxtRecord("v=spf1 a:dead.example.com mx:alive.example.com -all"))
        zone.add("alive.example.com", ARecord("192.0.2.5"))
        audit = audit_zone(zone)
        spf = audit.spf_audits["example.com"]
        # a:dead -> NXDOMAIN void; mx:alive -> NODATA (no MX rrset) void.
        assert spf.prediction.void_lookups == 2
        assert spf.report.codes().count("SPF017") == 2
