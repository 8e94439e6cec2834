"""DNS wire-format codec (RFC 1035 section 4.1).

Every DNS exchange in the simulation is serialised through this module, so
the resolver and the authoritative servers really do speak the wire
protocol: name compression pointers are emitted and followed, the TC bit
controls the UDP 512-octet ceiling, and malformed input raises
:class:`~repro.dns.errors.WireError` rather than being silently accepted.

Compression matches names case-insensitively: the encoder looks stored
suffixes up by :attr:`~repro.dns.name.Name.key`, so a later name that
differs from an earlier one only in case goes out as a pointer and
decodes with the earlier casing (an answer owner ``n.0.`` after the
question ``N.0.`` comes back as ``N.0.``).  This is deliberate and
pinned by a test: matching exact casing would change message sizes and
could move truncation decisions.  The question is always encoded first,
so its casing — which the resolver's DNS 0x20 check compares — is on the
wire verbatim.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from ipaddress import IPv6Address
from typing import Dict, List, Optional, Tuple

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
    Rclass,
    Rdata,
    RdataType,
    ResourceRecord,
    SoaRecord,
    TxtRecord,
)

#: Classic UDP payload ceiling; responses longer than this set TC over UDP.
UDP_PAYLOAD_LIMIT = 512

#: EDNS0 OPT pseudo-RR type code (RFC 6891).
OPT_TYPE = 41

_POINTER_MASK = 0xC0
_MAX_POINTER_HOPS = 64

# Fixed-size fields, each read with one unpack: header, question and RR
# fixed fields, MX preference, SOA timers.
_HEADER = struct.Struct("!6H")
_IPV4 = struct.Struct("!4B")
_QUESTION = struct.Struct("!2H")
_RR = struct.Struct("!2HIH")
_RR_HEAD = struct.Struct("!2HI")  # type, class, TTL; RDLENGTH is patched in
_U16 = struct.Struct("!H")
_PREFERENCE = struct.Struct("!H")
_SOA_TIMERS = struct.Struct("!5I")


@lru_cache(maxsize=8192)
def _encoded_labels(labels: Tuple[str, ...]) -> Tuple[bytes, ...]:
    """Each label as its wire chunk (length octet + ASCII octets).

    Campaign traffic re-encodes the same few thousand names constantly
    (suffixes on every query, MTA/test names on every retry), so the
    per-label ``encode``/length work is memoized.  Keyed by the exact
    ``Name.labels`` tuple — deliberately *not* by ``Name``, whose
    equality is case-insensitive: DNS 0x20 case randomization must
    round-trip byte-exactly.
    """
    return tuple(
        bytes((len(encoded) & 0xFF,)) + encoded
        for encoded in (label.encode("ascii") for label in labels)
    )


class _Encoder:
    """Accumulates output octets and tracks compression targets."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._offsets: Dict[Tuple[str, ...], int] = {}

    def u16(self, value: int) -> None:
        self.buffer += _U16.pack(value & 0xFFFF)

    def name(self, name: Name, compress: bool = True) -> None:
        """Emit ``name``, using a compression pointer for any stored suffix."""
        labels = name.labels
        key = name.key
        chunks = _encoded_labels(labels)
        buffer = self.buffer
        offsets = self._offsets
        for index in range(len(labels)):
            if compress:
                suffix_key = key[index:]
                pointer = offsets.get(suffix_key)
                if pointer is not None:
                    buffer += _U16.pack(0xC000 | pointer)
                    return
                offset = len(buffer)
                # Pointers only address the first 16 KiB minus the two flag bits.
                if offset < 0x4000:
                    offsets[suffix_key] = offset
            buffer += chunks[index]
        buffer.append(0)  # root label

    def character_string(self, text: str) -> None:
        data = text.encode("utf-8")
        if len(data) > 255:
            raise WireError("character-string exceeds 255 octets")
        self.buffer.append(len(data))
        self.buffer += data


#: Bound on the per-process table of decoded names; cleared when full.
#: Interning never changes a decoded value, only whether a repeat of
#: the same wire labels reuses the :class:`Name` built the first time.
NAME_INTERN_LIMIT = 4096

#: Decoded names keyed by their labels' exact wire octets: case-sensitive,
#: so each DNS 0x20 casing of a name keeps its own labels.
_interned_names: Dict[Tuple[bytes, ...], Name] = {}

# Builds rdata and records from fields the decoder has already bounded,
# without the validating constructors' ``__init__``.
_bare = object.__new__


def _labels_of(runs: List[bytes]) -> Tuple[str, ...]:
    """The labels of runs of length-prefixed wire labels, as ASCII text."""
    labels: List[str] = []
    for run in runs:
        at = 0
        while at < len(run):
            end = at + 1 + run[at]
            labels.append(run[at + 1 : end].decode("ascii"))
            at = end
    return tuple(labels)


class _Decoder:
    """Reads octets with bounds checking and pointer chasing."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def _need(self, count: int, at: int) -> None:
        if at + count > len(self.data):
            raise WireError("truncated message: need %d octets at %d" % (count, at))

    def u8(self) -> int:
        self._need(1, self.offset)
        value = self.data[self.offset]
        self.offset += 1
        return value

    def raw(self, count: int) -> bytes:
        self._need(count, self.offset)
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def fixed(self, layout: struct.Struct) -> Tuple[int, ...]:
        offset = self.offset
        end = offset + layout.size
        if end > len(self.data):
            self._need(layout.size, offset)
        self.offset = end
        return layout.unpack_from(self.data, offset)

    def name(self) -> Name:
        """Decode a (possibly compressed) name starting at the cursor.

        One pass finds where the name ends, reading only its length
        octets.  The name's key is its wire octets, one run per stretch
        between compression pointers; a repeat of the same runs returns
        the interned :class:`Name`.  Each label is 1–63 octets by
        construction, so a new name is decoded as ASCII and built with
        :meth:`Name.trusted`.
        """
        data = self.data
        size = len(data)
        cursor = run_start = self.offset
        runs: List[bytes] = []
        resume = -1  # where the cursor continues after the first pointer
        hops = 0
        while True:
            if cursor >= size:
                self._need(1, cursor)
            length = data[cursor]
            if length == 0:
                break
            if length < 0x40:  # a label: its length octet, then its octets
                cursor += 1 + length
                if cursor > size:
                    self._need(length, cursor - length)
                continue
            if length & _POINTER_MASK != _POINTER_MASK:
                raise WireError("reserved label type 0x%02x" % (length & _POINTER_MASK))
            if cursor + 1 >= size:
                self._need(2, cursor)
            pointer = ((length << 8) | data[cursor + 1]) & 0x3FFF
            if resume < 0:
                resume = cursor + 2
            if pointer >= cursor:
                raise WireError("forward compression pointer")
            runs.append(data[run_start:cursor])
            cursor = run_start = pointer
            hops += 1
            if hops > _MAX_POINTER_HOPS:
                raise WireError("compression pointer loop")
        runs.append(data[run_start:cursor])
        self.offset = resume if resume >= 0 else cursor + 1
        key = tuple(runs)
        name = _interned_names.get(key)
        if name is None:
            name = Name.trusted(_labels_of(runs))
            if len(_interned_names) >= NAME_INTERN_LIMIT:
                _interned_names.clear()
            _interned_names[key] = name
        return name

    def character_string(self) -> str:
        length = self.u8()
        return self.raw(length).decode("utf-8", "strict")


# -- rdata codecs -----------------------------------------------------------


def _encode_rdata(encoder: _Encoder, rdata: Rdata) -> None:
    """Emit rdata, preceded by its RDLENGTH, patching the length afterwards.

    Compression inside rdata is applied only for the name-bearing types
    RFC 1035 allows compression for (NS, CNAME, PTR, MX, SOA).
    """
    buffer = encoder.buffer
    length_at = len(buffer)
    buffer += b"\0\0"  # placeholder
    start = length_at + 2
    if isinstance(rdata, ARecord):
        buffer += bytes(int(part) for part in rdata.address.split("."))
    elif isinstance(rdata, AAAARecord):
        buffer += IPv6Address(rdata.address).packed
    elif isinstance(rdata, (NsRecord, CnameRecord, PtrRecord)):
        encoder.name(rdata.target)
    elif isinstance(rdata, MxRecord):
        encoder.u16(rdata.preference)
        encoder.name(rdata.exchange)
    elif isinstance(rdata, TxtRecord):
        for part in rdata.strings:
            encoder.character_string(part)
    elif isinstance(rdata, SoaRecord):
        encoder.name(rdata.mname)
        encoder.name(rdata.rname)
        buffer += _SOA_TIMERS.pack(
            rdata.serial & 0xFFFFFFFF,
            rdata.refresh & 0xFFFFFFFF,
            rdata.retry & 0xFFFFFFFF,
            rdata.expire & 0xFFFFFFFF,
            rdata.minimum & 0xFFFFFFFF,
        )
    else:
        raise WireError("cannot encode rdata type %r" % type(rdata).__name__)
    _U16.pack_into(buffer, length_at, len(buffer) - start)


def _decode_rdata(decoder: _Decoder, rdtype: int, rdlength: int) -> Rdata:
    """Decode one rdata.  The decoder has already bounded every field
    (fixed-width integers, 1–63-octet labels, character-strings of at
    most 255 octets), so the records are built without their validating
    constructors; they compare and hash like constructor-built ones."""
    end = decoder.offset + rdlength
    rdata: Rdata
    if rdtype == RdataType.A:
        if rdlength != 4:
            raise WireError("A rdata must be 4 octets")
        rdata = _bare(ARecord)
        rdata.address = "%d.%d.%d.%d" % decoder.fixed(_IPV4)
    elif rdtype == RdataType.AAAA:
        if rdlength != 16:
            raise WireError("AAAA rdata must be 16 octets")
        rdata = _bare(AAAARecord)
        rdata.address = str(IPv6Address(decoder.raw(16)))
    elif rdtype == RdataType.NS:
        rdata = _bare(NsRecord)
        rdata.target = decoder.name()
    elif rdtype == RdataType.CNAME:
        rdata = _bare(CnameRecord)
        rdata.target = decoder.name()
    elif rdtype == RdataType.PTR:
        rdata = _bare(PtrRecord)
        rdata.target = decoder.name()
    elif rdtype == RdataType.MX:
        rdata = _bare(MxRecord)
        (rdata.preference,) = decoder.fixed(_PREFERENCE)
        rdata.exchange = decoder.name()
    elif rdtype == RdataType.TXT:
        strings: List[str] = []
        while decoder.offset < end:
            strings.append(decoder.character_string())
        if not strings:
            raise ValueError("TXT record needs at least one character-string")
        rdata = _bare(TxtRecord)
        rdata.strings = tuple(strings)
    elif rdtype == RdataType.SOA:
        rdata = _bare(SoaRecord)
        rdata.mname = decoder.name()
        rdata.rname = decoder.name()
        (
            rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum
        ) = decoder.fixed(_SOA_TIMERS)
    else:
        raise WireError("cannot decode rdata type %d" % rdtype)
    if decoder.offset != end:
        raise WireError("rdata length mismatch for type %d" % rdtype)
    return rdata


# -- message codec -----------------------------------------------------------



def to_wire(message: Message) -> bytes:
    """Serialise a :class:`~repro.dns.message.Message` to wire format."""
    encoder = _Encoder()
    buffer = encoder.buffer
    arcount = len(message.additional) + (1 if message.edns_payload is not None else 0)
    buffer += _HEADER.pack(
        message.msg_id & 0xFFFF,
        message.flags.to_int() & 0xFFFF,
        len(message.question) & 0xFFFF,
        len(message.answer) & 0xFFFF,
        len(message.authority) & 0xFFFF,
        arcount & 0xFFFF,
    )
    for question in message.question:
        encoder.name(question.name)
        buffer += _QUESTION.pack(int(question.rdtype) & 0xFFFF, int(question.rdclass) & 0xFFFF)
    for rr in message.answer + message.authority + message.additional:
        encoder.name(rr.name)
        buffer += _RR_HEAD.pack(int(rr.rdtype) & 0xFFFF, Rclass.IN, rr.ttl & 0xFFFFFFFF)
        _encode_rdata(encoder, rr.rdata)
    if message.edns_payload is not None:
        # OPT pseudo-RR: root owner, CLASS carries the UDP payload size,
        # then extended RCODE and flags all clear, and no options.
        buffer.append(0)  # root name
        buffer += _RR.pack(OPT_TYPE, message.edns_payload & 0xFFFF, 0, 0)
    return bytes(buffer)


def from_wire(data: bytes) -> Message:
    """Parse wire-format bytes into a :class:`~repro.dns.message.Message`.

    Total over ``bytes``: every malformed input raises
    :class:`~repro.dns.errors.WireError` and nothing else, so callers at
    the trust boundary catch exactly that.
    """
    # Labels are interned by their octets, which must be hashable.
    decoder = _Decoder(data if type(data) is bytes else bytes(data))
    try:
        msg_id, flag_bits, qdcount, ancount, nscount, arcount = decoder.fixed(_HEADER)
        message = Message(msg_id=msg_id, flags=Flags.from_int(flag_bits))
        for _ in range(qdcount):
            qname = decoder.name()
            rdtype, rdclass = decoder.fixed(_QUESTION)
            message.question.append(Question(qname, RdataType(rdtype), Rclass(rdclass)))
        for section, count in (
            (message.answer, ancount),
            (message.authority, nscount),
            (message.additional, arcount),
        ):
            for _ in range(count):
                name = decoder.name()
                rdtype, rdclass, ttl, rdlength = decoder.fixed(_RR)
                if rdtype == OPT_TYPE:
                    # EDNS0: the class field is the advertised payload size.
                    message.edns_payload = rdclass
                    decoder.raw(rdlength)  # skip any options
                    continue
                record = _bare(ResourceRecord)
                record.name = name
                record.ttl = ttl  # unsigned 32-bit, so never negative
                record.rdata = _decode_rdata(decoder, rdtype, rdlength)
                section.append(record)
    except (ValueError, NameError_) as exc:
        # Unknown codes, non-ASCII labels, empty TXT rdata, over-long names.
        raise WireError("%s: %s" % (type(exc).__name__, exc)) from exc
    return message


def truncate_for_udp(message: Message, limit: Optional[int] = None) -> Tuple[bytes, bool]:
    """Serialise for UDP, honouring the payload ``limit``.

    ``limit`` defaults to the message's negotiated EDNS payload size, or
    the classic 512 octets without EDNS.  Returns ``(wire, truncated)``.
    If the full encoding does not fit, the record sections are emptied and
    TC is set, which is how the paper's ``tcp_only`` test policy forces
    resolvers onto TCP.
    """
    if limit is None:
        limit = message.edns_payload if message.edns_payload else UDP_PAYLOAD_LIMIT
    wire = to_wire(message)
    if len(wire) <= limit:
        return wire, False
    stub = Message(
        msg_id=message.msg_id,
        flags=Flags(
            qr=message.flags.qr,
            aa=message.flags.aa,
            tc=True,
            rd=message.flags.rd,
            ra=message.flags.ra,
            opcode=message.flags.opcode,
            rcode=message.flags.rcode,
        ),
        question=list(message.question),
        edns_payload=message.edns_payload,
    )
    return to_wire(stub), True
