"""Cross-module property-based tests (hypothesis).

These generate random-but-valid protocol artefacts and assert structural
invariants: parse/serialise fixpoints, evaluator totality, cache
correctness under arbitrary access patterns.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dkim.errors import DkimKeyError, DkimSignatureError
from repro.dkim.signature import DkimSignature, KeyRecord
from repro.dmarc.record import DmarcRecord, DmarcRecordError
from repro.dns import wire
from repro.dns.cache import TtlCache
from repro.dns.errors import NameError_, WireError
from repro.dns.message import Flags, Message, Question
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
from repro.smtp.errors import SmtpProtocolError
from repro.smtp.protocol import Reply
from repro.spf.errors import SpfError, SpfSyntaxError
from repro.spf.macros import MacroContext, expand_macros
from repro.spf.parser import parse_record
from repro.spf.result import SpfResult

# -- strategies -----------------------------------------------------------

_label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=10)
_domain = st.lists(_label, min_size=2, max_size=4).map(".".join)

_octet = st.integers(0, 255)
_ipv4 = st.tuples(_octet, _octet, _octet, _octet).map(lambda t: "%d.%d.%d.%d" % t)

_qualifier = st.sampled_from(["", "+", "-", "~", "?"])

_mechanism = st.one_of(
    st.just("all"),
    st.builds(lambda ip: "ip4:%s" % ip, _ipv4),
    st.builds(lambda ip, p: "ip4:%s/%d" % (ip, p), _ipv4, st.integers(0, 32)),
    st.builds(lambda n: "ip6:2001:db8::%x/%d" % (n, 48), st.integers(0, 0xFFFF)),
    st.just("a"),
    st.builds(lambda d: "a:%s" % d, _domain),
    st.builds(lambda d, c: "a:%s/%d" % (d, c), _domain, st.integers(0, 32)),
    st.just("mx"),
    st.builds(lambda d: "mx:%s" % d, _domain),
    st.builds(lambda d: "include:%s" % d, _domain),
    st.builds(lambda d: "exists:%s" % d, _domain),
    st.just("ptr"),
    st.builds(lambda d: "ptr:%s" % d, _domain),
)

_term = st.one_of(
    st.tuples(_qualifier, _mechanism).map(lambda pair: pair[0] + pair[1]),
    st.builds(lambda d: "redirect=%s" % d, _domain),
    st.builds(lambda d: "exp=%s" % d, _domain),
)

def _singleton_modifiers_only(terms):
    """RFC 7208 section 6: redirect=/exp= at most once per record."""
    for prefix in ("redirect=", "exp="):
        if sum(term.startswith(prefix) for term in terms) > 1:
            return False
    return True


_spf_record = (
    st.lists(_term, min_size=0, max_size=8)
    .filter(_singleton_modifiers_only)
    .map(lambda terms: ("v=spf1 " + " ".join(terms)).strip())
)


# -- SPF parser ------------------------------------------------------------


@given(_spf_record)
def test_spf_parse_serialise_fixpoint(text):
    """parse -> to_text -> parse is a fixpoint for valid records."""
    record = parse_record(text)
    rendered = record.to_text()
    again = parse_record(rendered)
    assert again.terms == record.terms
    assert again.to_text() == rendered


@given(_spf_record)
def test_tolerant_parse_agrees_on_valid_input(text):
    assert parse_record(text, tolerant=True).terms == parse_record(text).terms


@given(st.text(max_size=60))
def test_spf_parser_total_on_garbage(text):
    """Arbitrary text either parses or raises SpfSyntaxError — nothing else."""
    try:
        parse_record("v=spf1 " + text)
    except SpfSyntaxError:
        pass


# -- record parser totality ----------------------------------------------------
#
# A record arriving from DNS is outside input: whatever its text, each
# parser returns or raises its own layer's error, never anything else.


def _tag_record(required, tags, values):
    """A ``tag=value`` record whose required tags hold valid values, so
    parsing gets past them, plus up to six of the record type's own tags
    (or arbitrary ones) with telling values or arbitrary text.  An extra
    tag may override a required one."""
    value = st.one_of(st.sampled_from(values), st.text(max_size=20))
    extra = st.dictionaries(st.one_of(st.sampled_from(tags), st.text(max_size=6)), value, max_size=6)
    return extra.map(lambda more: "; ".join("%s=%s" % tag for tag in {**required, **more}.items()))


_spf_input = st.one_of(
    st.text(max_size=80),
    st.lists(st.one_of(_term, st.text(max_size=12)), max_size=8).map(
        lambda terms: "v=spf1 " + " ".join(terms)
    ),
)
_dmarc_input = st.one_of(
    st.text(max_size=80),
    _tag_record(
        {"v": "DMARC1", "p": "none"},
        ["v", "p", "sp", "aspf", "adkim", "pct", "rua", "ruf", "fo", "rf", "ri"],
        ["DMARC1", "none", "quarantine", "reject", "r", "s", "0", "100", "101", "-1", "1e2",
         "mailto:a@b.example", "", "0:1:d:s", "afrf", "86400", "٣"],
    ),
)
_dkim_key_input = st.one_of(
    st.text(max_size=80),
    _tag_record(
        {"v": "DKIM1", "p": "MFwwDQYJKoZIhvcNAQEBBQADSwAwSAJBAA=="},
        ["v", "k", "p", "h", "s", "t", "n"],
        ["DKIM1", "DKIM2", "rsa", "ed25519", "", "!!", "sha256", "sha1:sha256", "*",
         "email", "y", "s", "y:s"],
    ),
)
_dkim_signature_input = st.one_of(
    st.text(max_size=80),
    _tag_record(
        {"v": "1", "a": "rsa-sha256", "d": "example.com", "s": "sel", "h": "from:to",
         "bh": "AAAA", "b": "AAAA"},
        ["v", "a", "d", "s", "h", "bh", "b", "c", "i", "l", "q", "t", "x", "z"],
        ["1", "2", "rsa-sha256", "rsa-sha1", "ed25519-sha256", "example.com", "sel",
         "from:to", "to", "", "relaxed/simple", "simple", "relaxed/bogus", "AAAA", "!!", "-1",
         "99999999999999999999", "٣", "dns/txt", "@example.com"],
    ),
)


@settings(max_examples=200)
@given(_spf_input)
def test_spf_parse_record_raises_only_spf_error(text):
    try:
        parse_record(text)
    except SpfError:
        pass


@settings(max_examples=200)
@given(_dmarc_input)
def test_dmarc_from_text_raises_only_record_error(text):
    try:
        DmarcRecord.from_text(text)
    except DmarcRecordError:
        pass


@settings(max_examples=200)
@given(_dkim_key_input)
def test_dkim_key_from_text_raises_only_key_error(text):
    try:
        KeyRecord.from_text(text)
    except DkimKeyError:
        pass


@settings(max_examples=200)
@given(_dkim_signature_input)
def test_dkim_signature_parse_raises_only_signature_error(text):
    try:
        DkimSignature.from_header_value(text)
    except DkimSignatureError:
        pass


# -- SPF evaluation totality -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_spf_record, _ipv4)
def test_evaluator_total_without_dns(record_text, client_ip):
    """Against an empty DNS world the evaluator must terminate with a
    legal result for any valid policy and any client address."""
    from repro.dns.resolver import AuthorityDirectory, Resolver
    from repro.dns.rdata import SoaRecord, TxtRecord
    from repro.dns.server import AuthoritativeServer
    from repro.dns.zone import Zone
    from repro.net.clock import Clock
    from repro.net.latency import LatencyModel
    from repro.net.network import Network
    from repro.spf.evaluator import SpfEvaluator

    network = Network(LatencyModel(0.001), Clock())
    zone = Zone("prop.test", soa=SoaRecord("ns1.prop.test", "h.prop.test"))
    zone.add("prop.test", TxtRecord(record_text))
    AuthoritativeServer([zone]).attach(network, "198.51.100.1")
    directory = AuthorityDirectory()
    directory.register("prop.test", "198.51.100.1")
    resolver = Resolver(network, directory, address4="203.0.113.1")
    outcome = SpfEvaluator(resolver).check_host(client_ip, "prop.test", "u@prop.test")
    assert outcome.result in SpfResult
    assert outcome.t_completed >= outcome.t_started
    # Strict evaluation never exceeds its own limits.
    assert outcome.mechanism_lookups <= 11
    assert outcome.void_lookups <= 3


# -- macros -----------------------------------------------------------------

_macro_letter = st.sampled_from("slodivh")
_macro_spec = st.lists(
    st.one_of(
        st.builds(lambda c, d, r: "%%{%s%s%s}" % (c, d, r),
                  _macro_letter,
                  st.sampled_from(["", "1", "2", "3"]),
                  st.sampled_from(["", "r"])),
        _label,
        st.just("."),
    ),
    min_size=1, max_size=6,
).map("".join)


@given(_macro_spec, _ipv4)
def test_macro_expansion_total(spec, ip):
    context = MacroContext(sender="u@example.com", domain="example.com", client_ip=ip, helo="h.example")
    try:
        expanded = expand_macros(spec, context)
    except SpfSyntaxError:
        return  # stray % composed by the generator
    assert "%" not in expanded or "%20" in expanded


# -- DMARC records -----------------------------------------------------------

_dmarc_record = st.builds(
    lambda p, sp, aspf, pct: "v=DMARC1; p=%s%s%s%s" % (
        p,
        "; sp=%s" % sp if sp else "",
        "; aspf=%s" % aspf if aspf else "",
        "; pct=%d" % pct if pct is not None else "",
    ),
    st.sampled_from(["none", "quarantine", "reject"]),
    st.sampled_from([None, "none", "quarantine", "reject"]),
    st.sampled_from([None, "r", "s"]),
    st.one_of(st.none(), st.integers(0, 100)),
)


@given(_dmarc_record)
def test_dmarc_roundtrip(text):
    record = DmarcRecord.from_text(text)
    again = DmarcRecord.from_text(record.to_text())
    assert again.policy == record.policy
    assert again.subdomain_policy == record.subdomain_policy
    assert again.spf_alignment == record.spf_alignment
    assert again.percent == record.percent


# -- TTL cache ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a.test", "b.test", "c.test"]),
            st.sampled_from([RdataType.A, RdataType.TXT]),
            st.integers(0, 3),  # op: 0/1 put with ttl bucket, 2/3 get
            st.floats(0.0, 100.0),
        ),
        max_size=40,
    )
)
def test_ttl_cache_never_serves_stale(operations):
    cache = TtlCache()
    shadow = {}
    now = 0.0
    for name_text, rdtype, op, dt in operations:
        now += dt  # time only moves forward
        name = Name(name_text)
        key = (name.key, rdtype)
        if op <= 1:
            ttl = 10.0 * (op + 1)
            cache.put(name, rdtype, "value@%f" % now, ttl, now)
            shadow[key] = (now + ttl, "value@%f" % now)
        else:
            got = cache.get(name, rdtype, now)
            expiry_value = shadow.get(key)
            if got is not None:
                # Whatever the cache returns must still be fresh.
                assert expiry_value is not None
                expiry, value = expiry_value
                assert got == value
                assert now < expiry


# -- DNS names -----------------------------------------------------------------


@settings(max_examples=500)
@given(st.text(max_size=300))
def test_name_total_and_comparable(text):
    """Any text either builds a Name or raises NameError_, and comparing a
    name with any text never raises."""
    try:
        Name(text)
    except NameError_:
        pass
    assert isinstance(Name("a.b") == text, bool)


# -- DNS wire codec ----------------------------------------------------------

_dns_name = st.lists(
    st.text(alphabet=string.ascii_letters + string.digits + "-_", min_size=1, max_size=12),
    max_size=4,
).map(Name)
_u32 = st.integers(0, 2**32 - 1)
_rdata = st.one_of(
    st.builds(ARecord, _ipv4),
    st.builds(lambda n: AAAARecord("2001:db8::%x" % n), st.integers(0, 0xFFFF)),
    st.builds(NsRecord, _dns_name),
    st.builds(CnameRecord, _dns_name),
    st.builds(PtrRecord, _dns_name),
    st.builds(MxRecord, st.integers(0, 0xFFFF), _dns_name),
    st.builds(TxtRecord, st.lists(st.text(string.printable, max_size=40), min_size=1, max_size=3)),
    st.builds(SoaRecord, _dns_name, _dns_name, _u32, _u32, _u32, _u32, _u32),
)
_records = st.lists(st.builds(ResourceRecord, _dns_name, _u32, _rdata), max_size=3)
_message = st.builds(
    Message,
    msg_id=st.integers(0, 0xFFFF),
    flags=st.builds(
        Flags,
        qr=st.booleans(),
        aa=st.booleans(),
        tc=st.booleans(),
        rd=st.booleans(),
        ra=st.booleans(),
        opcode=st.integers(0, 15),
        rcode=st.sampled_from(Rcode),
    ),
    question=st.lists(st.builds(Question, _dns_name, st.sampled_from(RdataType)), max_size=2),
    answer=_records,
    authority=_records,
    additional=_records,
    edns_payload=st.none() | st.integers(0, 0xFFFF),
)


def _corrupted(message, position, value):
    data = bytearray(wire.to_wire(message))
    data[position % len(data)] = value
    return bytes(data)


# Random octets, a header with small section counts over random octets,
# and valid messages with one octet overwritten.
_wire_input = st.one_of(
    st.binary(max_size=80),
    st.builds(
        lambda head, counts, body: head + b"".join(n.to_bytes(2, "big") for n in counts) + body,
        st.binary(min_size=4, max_size=4),
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
        st.binary(max_size=68),
    ),
    st.builds(_corrupted, _message, st.integers(0, 2**16), st.integers(0, 255)),
)


@settings(max_examples=300)
@given(_message)
def test_wire_roundtrip(message):
    """decode(encode(m)) == m, compression pointers included."""
    assert wire.from_wire(wire.to_wire(message)) == message


@settings(max_examples=500)
@given(_wire_input)
def test_wire_decode_total(data):
    """Arbitrary octets either decode or raise WireError — nothing else."""
    try:
        wire.from_wire(data)
    except WireError:
        pass


# -- SMTP replies ----------------------------------------------------------

_reply_line = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=20
)
_reply = st.builds(Reply, st.integers(200, 599), st.lists(_reply_line, min_size=1, max_size=3))
_reply_input = st.one_of(
    st.binary(max_size=60),
    # Lines whose first three characters look like a code: ASCII and
    # non-ASCII digits, short codes, mixed multiline codes.
    st.lists(
        st.builds(
            "{}{}{}".format,
            st.sampled_from(["250", "550", "000", "999", "25", "²²²", "١٢٣", "٢٥٠", "2٥0", ""]),
            st.sampled_from([" ", "-", ""]),
            _reply_line,
        ),
        max_size=3,
    ).map(lambda lines: "\r\n".join(lines).encode("utf-8")),
)


@settings(max_examples=500)
@given(_reply_input)
def test_reply_decode_total(data):
    """Arbitrary octets either parse as a reply or raise SmtpProtocolError;
    a parsed code was spelled in ASCII digits."""
    try:
        reply = Reply.from_bytes(data)
    except SmtpProtocolError:
        return
    assert b"%d" % reply.code in data


@settings(max_examples=300)
@given(_reply)
def test_reply_roundtrip(reply):
    """from_bytes(to_bytes(r)) == r for every valid reply."""
    assert Reply.from_bytes(reply.to_bytes()) == reply
