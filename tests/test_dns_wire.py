"""Tests for the DNS wire codec, including property-based roundtrips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns import wire
from repro.dns.errors import WireError
from repro.dns.message import Flags, Message
from repro.dns.name import Name
from repro.dns.rdata import (
    AAAARecord,
    ARecord,
    CnameRecord,
    MxRecord,
    NsRecord,
    PtrRecord,
    Rcode,
    RdataType,
    ResourceRecord,
    SoaRecord,
    TxtRecord,
)


def _roundtrip(message: Message) -> Message:
    return wire.from_wire(wire.to_wire(message))


class TestHeader:
    def test_query_roundtrip(self):
        query = Message.make_query("example.com", RdataType.TXT, msg_id=1234)
        parsed = _roundtrip(query)
        assert parsed.msg_id == 1234
        assert not parsed.flags.qr
        assert parsed.flags.rd
        assert parsed.qname == Name("example.com")
        assert parsed.qtype == RdataType.TXT

    def test_flags_roundtrip_all_bits(self):
        flags = Flags(qr=True, aa=True, tc=True, rd=False, ra=True, rcode=Rcode.NXDOMAIN)
        assert Flags.from_int(flags.to_int()) == flags

    def test_response_keeps_question(self):
        query = Message.make_query("a.b", RdataType.A, msg_id=7)
        response = query.make_response()
        assert response.msg_id == 7
        assert response.flags.qr
        assert response.qname == Name("a.b")


class TestRdataRoundtrip:
    @pytest.mark.parametrize(
        "rdata",
        [
            ARecord("192.0.2.45"),
            AAAARecord("2001:db8::beef"),
            NsRecord("ns1.example.com"),
            CnameRecord("target.example.net"),
            PtrRecord("host.example.org"),
            MxRecord(20, "mx2.example.com"),
            TxtRecord("v=spf1 include:x.example -all"),
            TxtRecord(["first", "second", ""]),
            TxtRecord("q" * 700),
            SoaRecord("ns1.e.com", "host.e.com", 3, 1, 2, 4, 60),
        ],
        ids=lambda r: type(r).__name__ + ":" + r.to_text()[:24],
    )
    def test_single_record(self, rdata):
        message = Message.make_query("owner.example.com", rdata.rdtype)
        message.flags.qr = True
        message.answer.append(ResourceRecord("owner.example.com", 300, rdata))
        parsed = _roundtrip(message)
        assert parsed.answer[0].rdata == rdata
        assert parsed.answer[0].ttl == 300

    def test_all_sections(self):
        message = Message.make_query("example.com", RdataType.MX)
        message.flags.qr = True
        message.answer.append(ResourceRecord("example.com", 60, MxRecord(10, "mx.example.com")))
        message.authority.append(ResourceRecord("example.com", 60, NsRecord("ns.example.com")))
        message.additional.append(ResourceRecord("mx.example.com", 60, ARecord("1.2.3.4")))
        parsed = _roundtrip(message)
        assert len(parsed.answer) == 1
        assert len(parsed.authority) == 1
        assert len(parsed.additional) == 1


class TestCompression:
    def test_compression_shrinks_repeated_names(self):
        message = Message.make_query("very-long-label.example.com", RdataType.A)
        message.flags.qr = True
        for index in range(5):
            message.answer.append(
                ResourceRecord("very-long-label.example.com", 60, ARecord("10.0.0.%d" % index))
            )
        compressed = wire.to_wire(message)
        # The owner name is 29 octets on the wire; each repeated owner
        # should collapse to a 2-octet pointer.  Per-record fixed overhead
        # is 10 octets (type/class/ttl/rdlength) plus 4 octets of A rdata.
        assert len(compressed) == 12 + (29 + 4) + 5 * (2 + 10 + 4)

    def test_compressed_names_decode_correctly(self):
        message = Message.make_query("a.example.com", RdataType.NS)
        message.flags.qr = True
        message.answer.append(ResourceRecord("a.example.com", 60, NsRecord("ns.a.example.com")))
        message.answer.append(ResourceRecord("a.example.com", 60, NsRecord("ns2.a.example.com")))
        parsed = _roundtrip(message)
        assert parsed.answer[0].rdata.target == Name("ns.a.example.com")
        assert parsed.answer[1].rdata.target == Name("ns2.a.example.com")

    def test_compression_matches_names_case_insensitively(self):
        # Pinned on purpose: compression targets are matched by Name.key,
        # so a later name that differs from an earlier one only in case
        # goes out as a pointer and decodes with the earlier casing.
        # Matching exact casing instead would change message sizes and
        # could move truncation decisions; see the wire module docstring.
        message = Message.make_query("N.0.Example", RdataType.TXT)
        message.flags.qr = True
        message.answer.append(ResourceRecord("n.0.example", 60, TxtRecord("x")))
        message.answer.append(ResourceRecord("sub.N.0.EXAMPLE", 60, TxtRecord("y")))
        encoded = wire.to_wire(message)
        parsed = wire.from_wire(encoded)
        assert parsed.qname.labels == ("N", "0", "Example")
        assert parsed.answer[0].name.labels == ("N", "0", "Example")
        assert parsed.answer[1].name.labels == ("sub", "N", "0", "Example")
        assert parsed.answer[0].name == Name("n.0.example")
        # Both owners point into the question: a 2-octet pointer, after a
        # 4-octet "sub" label in the second.  Each record also carries 10
        # octets of type/class/ttl/rdlength and 2 of one-character TXT.
        question = (2 + 2 + 8 + 1) + 4
        assert len(encoded) == 12 + question + (2 + 10 + 2) + (4 + 2 + 10 + 2)

    def test_self_referential_pointer_rejected(self):
        # Header with qdcount=1, then a name that is a pointer to itself
        # (offset 12).  Chasing it must be rejected, not loop forever.
        header = bytes(4) + (1).to_bytes(2, "big") + bytes(6)
        with pytest.raises(WireError):
            wire.from_wire(header + b"\xc0\x0c" + bytes(4))


class TestNameInterning:
    def test_two_casings_back_to_back_keep_their_own_labels(self):
        # Decoded names are interned by their exact wire octets; a
        # case-insensitive table would hand the second casing the first
        # one's labels and break DNS 0x20 checking.
        lower = Message.make_query("probe.t01.m001.example.org", RdataType.TXT)
        mixed = Message.make_query("PrObE.t01.M001.example.ORG", RdataType.TXT)
        first = wire.from_wire(wire.to_wire(lower))
        second = wire.from_wire(wire.to_wire(mixed))
        assert first.qname.labels == ("probe", "t01", "m001", "example", "org")
        assert second.qname.labels == ("PrObE", "t01", "M001", "example", "ORG")
        assert first.qname == second.qname

    def test_repeated_names_share_one_object(self):
        query = wire.to_wire(Message.make_query("same.example.com", RdataType.A))
        assert wire.from_wire(query).qname is wire.from_wire(query).qname

    def test_table_is_bounded(self):
        for index in range(wire.NAME_INTERN_LIMIT + 10):
            wire.from_wire(wire.to_wire(Message.make_query("n%d.example" % index, RdataType.A)))
        assert len(wire._interned_names) <= wire.NAME_INTERN_LIMIT


class TestMalformed:
    def test_truncated_buffer(self):
        good = wire.to_wire(Message.make_query("example.com", RdataType.A))
        with pytest.raises(WireError):
            wire.from_wire(good[:-3])

    def test_empty_buffer(self):
        with pytest.raises(WireError):
            wire.from_wire(b"")

    def test_bad_rdlength(self):
        message = Message.make_query("e.com", RdataType.A)
        message.flags.qr = True
        message.answer.append(ResourceRecord("e.com", 60, ARecord("1.2.3.4")))
        raw = bytearray(wire.to_wire(message))
        raw[-5] = 9  # corrupt RDLENGTH of the A record (should be 4)
        with pytest.raises(WireError):
            wire.from_wire(bytes(raw))


class TestUdpTruncation:
    def test_small_message_not_truncated(self):
        message = Message.make_query("e.com", RdataType.TXT)
        payload, truncated = wire.truncate_for_udp(message)
        assert not truncated

    def test_large_message_truncated(self):
        message = Message.make_query("e.com", RdataType.TXT)
        message.flags.qr = True
        message.answer.append(ResourceRecord("e.com", 60, TxtRecord("z" * 900)))
        payload, truncated = wire.truncate_for_udp(message)
        assert truncated
        parsed = wire.from_wire(payload)
        assert parsed.flags.tc
        assert not parsed.answer
        assert parsed.qname == Name("e.com")

    def test_custom_limit(self):
        message = Message.make_query("e.com", RdataType.TXT)
        message.flags.qr = True
        message.answer.append(ResourceRecord("e.com", 60, TxtRecord("z" * 100)))
        _, truncated = wire.truncate_for_udp(message, limit=64)
        assert truncated


# Mixed case, so DNS 0x20 casings go through the decoder's name table.
_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
    min_size=1,
    max_size=15,
)
_name = st.lists(_label, min_size=1, max_size=5).map(Name)
_ttl = st.integers(min_value=0, max_value=2**31 - 1)

_a_rdata = st.builds(
    ARecord,
    st.integers(0, 2**32 - 1).map(
        lambda n: "%d.%d.%d.%d" % ((n >> 24) % 256, (n >> 16) % 256, (n >> 8) % 256, n % 256)
    ),
)
_mx_rdata = st.builds(MxRecord, st.integers(0, 65535), _name)
_txt_rdata = st.one_of(
    st.builds(
        TxtRecord,
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=0, max_size=300),
    ),
    # Several character-strings, non-ASCII ones included.
    st.builds(
        TxtRecord,
        st.lists(st.text(max_size=60), min_size=1, max_size=4),
    ),
)
_rdata = st.one_of(
    _a_rdata,
    st.builds(lambda n: AAAARecord("2001:db8::%x" % n), st.integers(0, 0xFFFF)),
    _mx_rdata,
    st.builds(NsRecord, _name),
    st.builds(CnameRecord, _name),
    _txt_rdata,
)


@given(
    qname=_name,
    records=st.lists(st.tuples(_name, _ttl, _rdata), min_size=0, max_size=6),
    msg_id=st.integers(0, 0xFFFF),
)
def test_arbitrary_message_roundtrip(qname, records, msg_id):
    message = Message.make_query(qname, RdataType.TXT, msg_id=msg_id)
    message.flags.qr = True
    for owner, ttl, rdata in records:
        message.answer.append(ResourceRecord(owner, ttl, rdata))
    parsed = _roundtrip(message)
    assert parsed.msg_id == msg_id
    assert parsed.qname == qname
    assert len(parsed.answer) == len(records)
    # The question goes first, so its casing is on the wire verbatim
    # (later names may point at an earlier, differently cased suffix).
    assert parsed.qname.labels == qname.labels
    for parsed_rr, (owner, ttl, rdata) in zip(parsed.answer, records):
        assert parsed_rr.name == owner
        assert parsed_rr.ttl == ttl
        assert parsed_rr.rdata == rdata
        assert hash(parsed_rr.rdata) == hash(rdata)
        assert hash(parsed_rr) == hash(ResourceRecord(owner, ttl, rdata))


@given(rdata=st.one_of(_a_rdata, _mx_rdata, _txt_rdata))
def test_decoded_rdata_equals_and_hashes_like_constructed(rdata):
    """The decoder builds rdata without the validating constructors; the
    result must be indistinguishable from a constructor-built record."""
    message = Message.make_query("owner.example", rdata.rdtype)
    message.flags.qr = True
    message.answer.append(ResourceRecord("owner.example", 60, rdata))
    decoded = _roundtrip(message).answer[0].rdata
    rebuilt = {
        ARecord: lambda r: ARecord(r.address),
        MxRecord: lambda r: MxRecord(r.preference, str(r.exchange)),
        TxtRecord: lambda r: TxtRecord(list(r.strings)),
    }[type(rdata)](decoded)
    assert type(decoded) is type(rdata)
    assert decoded == rdata == rebuilt
    assert hash(decoded) == hash(rdata) == hash(rebuilt)
    assert decoded.to_text() == rebuilt.to_text()
