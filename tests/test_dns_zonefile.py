"""Tests for the master-file (zone file) parser."""

import pytest

from repro.dns.errors import DnsError
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.zone import LookupStatus
from repro.dns.zonefile import ZoneFileError, parse_zone

CLASSIC = """
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1.example.com. hostmaster.example.com. (
        2021020101 ; serial
        7200       ; refresh
        3600       ; retry
        1209600    ; expire
        300 )      ; minimum
@        IN NS  ns1.example.com.
@        IN MX  10 mail.example.com.
@        IN MX  20 backup.example.com.
@        IN TXT "v=spf1 mx -all"
ns1      IN A   198.51.100.1
mail     IN A   198.51.100.2
         IN AAAA 2001:db8::2
backup   600 IN A 198.51.100.3
www      IN CNAME mail
_dmarc   IN TXT "v=DMARC1; p=reject"
"""


class TestClassicZone:
    @pytest.fixture(scope="class")
    def zone(self):
        return parse_zone(CLASSIC)

    def test_origin(self, zone):
        assert zone.origin == Name("example.com")

    def test_soa_parsed(self, zone):
        soa = zone.soa
        assert soa is not None
        assert soa.rdata.serial == 2021020101
        assert soa.rdata.minimum == 300
        assert soa.rdata.rname == Name("hostmaster.example.com")

    def test_relative_names_anchored(self, zone):
        status, records = zone.lookup("ns1.example.com", RdataType.A)
        assert status is LookupStatus.SUCCESS
        assert records[0].rdata.address == "198.51.100.1"

    def test_owner_inheritance(self, zone):
        """The indented AAAA line belongs to 'mail'."""
        status, records = zone.lookup("mail.example.com", RdataType.AAAA)
        assert status is LookupStatus.SUCCESS
        assert records[0].rdata.address == "2001:db8::2"

    def test_default_ttl_applied(self, zone):
        _, records = zone.lookup("mail.example.com", RdataType.A)
        assert records[0].ttl == 3600

    def test_per_record_ttl(self, zone):
        _, records = zone.lookup("backup.example.com", RdataType.A)
        assert records[0].ttl == 600

    def test_mx_set(self, zone):
        _, records = zone.lookup("example.com", RdataType.MX)
        preferences = sorted(rr.rdata.preference for rr in records)
        assert preferences == [10, 20]

    def test_quoted_txt(self, zone):
        _, records = zone.lookup("example.com", RdataType.TXT)
        assert records[0].rdata.text == "v=spf1 mx -all"

    def test_txt_with_semicolons_survives(self, zone):
        """Quoted ';' must not start a comment."""
        _, records = zone.lookup("_dmarc.example.com", RdataType.TXT)
        assert records[0].rdata.text == "v=DMARC1; p=reject"

    def test_cname(self, zone):
        status, records = zone.lookup("www.example.com", RdataType.A)
        assert status is LookupStatus.CNAME
        assert records[0].rdata.target == Name("mail.example.com")


class TestFeatures:
    def test_origin_argument_seed(self):
        zone = parse_zone("@ IN A 192.0.2.1", origin="seeded.test")
        _, records = zone.lookup("seeded.test", RdataType.A)
        assert records

    def test_at_for_origin(self):
        zone = parse_zone("$ORIGIN x.test.\n@ IN TXT \"hello\"")
        _, records = zone.lookup("x.test", RdataType.TXT)
        assert records[0].rdata.text == "hello"

    def test_multi_string_txt(self):
        zone = parse_zone('$ORIGIN t.test.\n@ IN TXT "part one " "part two"')
        _, records = zone.lookup("t.test", RdataType.TXT)
        assert records[0].rdata.strings == ("part one ", "part two")

    def test_escaped_quote_in_txt(self):
        zone = parse_zone('$ORIGIN t.test.\n@ IN TXT "say \\"hi\\""')
        _, records = zone.lookup("t.test", RdataType.TXT)
        assert records[0].rdata.text == 'say "hi"'

    def test_class_optional(self):
        zone = parse_zone("$ORIGIN t.test.\nhost A 192.0.2.9")
        _, records = zone.lookup("host.t.test", RdataType.A)
        assert records

    def test_ttl_before_class(self):
        zone = parse_zone("$ORIGIN t.test.\nhost 42 IN A 192.0.2.9")
        _, records = zone.lookup("host.t.test", RdataType.A)
        assert records[0].ttl == 42

    def test_empty_zone_with_origin(self):
        zone = parse_zone("", origin="empty.test")
        assert zone.origin == Name("empty.test")
        assert zone.record_count() == 0


class TestErrors:
    def test_record_before_origin(self):
        with pytest.raises(ZoneFileError):
            parse_zone("host IN A 192.0.2.1")

    def test_unknown_type(self):
        with pytest.raises(ZoneFileError) as info:
            parse_zone("$ORIGIN t.test.\nhost IN NAPTR something")
        assert "NAPTR" in str(info.value)

    def test_bad_directive(self):
        with pytest.raises(ZoneFileError):
            parse_zone("$INCLUDE other.zone")

    def test_unbalanced_parens(self):
        with pytest.raises(ZoneFileError):
            parse_zone("$ORIGIN t.test.\n@ IN SOA a. b. ( 1 2 3 4 5")

    def test_unterminated_quote(self):
        with pytest.raises(ZoneFileError):
            parse_zone('$ORIGIN t.test.\n@ IN TXT "oops')

    def test_error_carries_line_number(self):
        with pytest.raises(ZoneFileError) as info:
            parse_zone("$ORIGIN t.test.\nhost IN A not-an-ip")
        assert info.value.line == 2

    def test_out_of_zone_record(self):
        with pytest.raises(ZoneFileError):
            parse_zone("$ORIGIN t.test.\nother.example. IN A 192.0.2.1")

    def test_missing_rdata_fields(self):
        with pytest.raises(ZoneFileError):
            parse_zone("$ORIGIN t.test.\nhost IN MX 10")

    def test_zone_file_errors_are_dns_errors(self):
        assert issubclass(ZoneFileError, DnsError)

    def test_bad_origin_argument(self):
        with pytest.raises(ZoneFileError) as info:
            parse_zone("@ A 192.0.2.1", origin="a..b")
        assert info.value.line == 0
        assert str(info.value).startswith("bad origin 'a..b'")

    def test_bad_origin_directive_carries_line_number(self):
        with pytest.raises(ZoneFileError) as info:
            parse_zone("$ORIGIN t.test.\nhost A 192.0.2.1\n$ORIGIN a..b\n")
        assert info.value.line == 3
        assert "bad origin 'a..b'" in str(info.value)

    @pytest.mark.parametrize("text", ["$TTL \u00b2\n@ A 192.0.2.1", "@ \u00b2 A 192.0.2.1"])
    def test_non_decimal_digit_ttl(self, text):
        # '²' passes str.isdigit() but not int(): it is no TTL.
        with pytest.raises(ZoneFileError):
            parse_zone(text, origin="t.test")


def test_zone_file_round_trip_through_server():
    """A parsed zone plugs straight into the authoritative server."""
    from repro.dns.resolver import AuthorityDirectory, Resolver
    from repro.dns.server import AuthoritativeServer
    from repro.net.clock import Clock
    from repro.net.latency import LatencyModel
    from repro.net.network import Network

    zone = parse_zone(CLASSIC)
    network = Network(LatencyModel(0.002), Clock())
    AuthoritativeServer([zone]).attach(network, "198.51.100.53")
    directory = AuthorityDirectory()
    directory.register("example.com", "198.51.100.53")
    resolver = Resolver(network, directory, address4="203.0.113.2")
    answer, _ = resolver.query_at("example.com", RdataType.TXT, 0.0)
    assert answer.texts() == ["v=spf1 mx -all"]
