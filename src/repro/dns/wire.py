"""DNS wire-format codec (RFC 1035 section 4.1).

Every DNS exchange in the simulation is serialised through this module, so
the resolver and the authoritative servers really do speak the wire
protocol: name compression pointers are emitted and followed, the TC bit
controls the UDP 512-octet ceiling, and malformed input raises
:class:`~repro.dns.errors.WireError` rather than being silently accepted.
"""

from __future__ import annotations

import struct
from functools import lru_cache
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
_QUESTION = struct.Struct("!2H")
_RR = struct.Struct("!2HIH")
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

    def u8(self, value: int) -> None:
        self.buffer.append(value & 0xFF)

    def u16(self, value: int) -> None:
        self.buffer += struct.pack("!H", value & 0xFFFF)

    def u32(self, value: int) -> None:
        self.buffer += struct.pack("!I", value & 0xFFFFFFFF)

    def raw(self, data: bytes) -> None:
        self.buffer += data

    def name(self, name: Name, compress: bool = True) -> None:
        """Emit ``name``, using a compression pointer for any stored suffix."""
        labels = name.labels
        key = name.key
        chunks = _encoded_labels(labels)
        for index in range(len(labels)):
            suffix_key = key[index:]
            if compress and suffix_key in self._offsets:
                pointer = self._offsets[suffix_key]
                self.u16(0xC000 | pointer)
                return
            offset = len(self.buffer)
            # Pointers only address the first 16 KiB minus the two flag bits.
            if compress and offset < 0x4000:
                self._offsets[suffix_key] = offset
            self.raw(chunks[index])
        self.u8(0)  # root label

    def character_string(self, text: str) -> None:
        data = text.encode("utf-8")
        if len(data) > 255:
            raise WireError("character-string exceeds 255 octets")
        self.u8(len(data))
        self.raw(data)


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
        self._need(layout.size, self.offset)
        values = layout.unpack_from(self.data, self.offset)
        self.offset += layout.size
        return values

    def name(self) -> Name:
        """Decode a (possibly compressed) name starting at the cursor.  Each
        label is 1–63 ASCII octets by construction, hence :meth:`Name.trusted`."""
        data = self.data
        labels: List[str] = []
        cursor = self.offset
        jumped = False
        hops = 0
        while True:
            self._need(1, cursor)
            length = data[cursor]
            if length & _POINTER_MASK == _POINTER_MASK:
                self._need(2, cursor)
                pointer = ((length << 8) | data[cursor + 1]) & 0x3FFF
                if not jumped:
                    self.offset = cursor + 2
                    jumped = True
                if pointer >= cursor:
                    raise WireError("forward compression pointer")
                cursor = pointer
                hops += 1
                if hops > _MAX_POINTER_HOPS:
                    raise WireError("compression pointer loop")
                continue
            if length & _POINTER_MASK:
                raise WireError("reserved label type 0x%02x" % (length & _POINTER_MASK))
            cursor += 1
            if length == 0:
                if not jumped:
                    self.offset = cursor
                break
            self._need(length, cursor)
            labels.append(data[cursor : cursor + length].decode("ascii", "strict"))
            cursor += length
        return Name.trusted(tuple(labels))

    def character_string(self) -> str:
        length = self.u8()
        return self.raw(length).decode("utf-8", "strict")


# -- rdata codecs -----------------------------------------------------------


def _encode_rdata(encoder: _Encoder, rdata: Rdata) -> None:
    """Emit rdata, preceded by its RDLENGTH, patching the length afterwards.

    Compression inside rdata is applied only for the name-bearing types
    RFC 1035 allows compression for (NS, CNAME, PTR, MX, SOA).
    """
    length_at = len(encoder.buffer)
    encoder.u16(0)  # placeholder
    start = len(encoder.buffer)
    if isinstance(rdata, ARecord):
        encoder.raw(bytes(int(part) for part in rdata.address.split(".")))
    elif isinstance(rdata, AAAARecord):
        import ipaddress

        encoder.raw(ipaddress.IPv6Address(rdata.address).packed)
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
        for value in (rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum):
            encoder.u32(value)
    else:
        raise WireError("cannot encode rdata type %r" % type(rdata).__name__)
    rdlength = len(encoder.buffer) - start
    struct.pack_into("!H", encoder.buffer, length_at, rdlength)


def _decode_rdata(decoder: _Decoder, rdtype: int, rdlength: int) -> Rdata:
    end = decoder.offset + rdlength
    if rdtype == RdataType.A:
        if rdlength != 4:
            raise WireError("A rdata must be 4 octets")
        rdata: Rdata = ARecord(".".join(str(b) for b in decoder.raw(4)))
    elif rdtype == RdataType.AAAA:
        if rdlength != 16:
            raise WireError("AAAA rdata must be 16 octets")
        import ipaddress

        rdata = AAAARecord(str(ipaddress.IPv6Address(decoder.raw(16))))
    elif rdtype == RdataType.NS:
        rdata = NsRecord(decoder.name())
    elif rdtype == RdataType.CNAME:
        rdata = CnameRecord(decoder.name())
    elif rdtype == RdataType.PTR:
        rdata = PtrRecord(decoder.name())
    elif rdtype == RdataType.MX:
        (preference,) = decoder.fixed(_PREFERENCE)
        rdata = MxRecord(preference, decoder.name())
    elif rdtype == RdataType.TXT:
        strings: List[str] = []
        while decoder.offset < end:
            strings.append(decoder.character_string())
        rdata = TxtRecord(strings)
    elif rdtype == RdataType.SOA:
        mname = decoder.name()
        rname = decoder.name()
        rdata = SoaRecord(mname, rname, *decoder.fixed(_SOA_TIMERS))
    else:
        raise WireError("cannot decode rdata type %d" % rdtype)
    if decoder.offset != end:
        raise WireError("rdata length mismatch for type %d" % rdtype)
    return rdata


# -- message codec -----------------------------------------------------------


def to_wire(message: Message) -> bytes:
    """Serialise a :class:`~repro.dns.message.Message` to wire format."""
    encoder = _Encoder()
    encoder.u16(message.msg_id)
    encoder.u16(message.flags.to_int())
    encoder.u16(len(message.question))
    encoder.u16(len(message.answer))
    encoder.u16(len(message.authority))
    arcount = len(message.additional) + (1 if message.edns_payload is not None else 0)
    encoder.u16(arcount)
    for question in message.question:
        encoder.name(question.name)
        encoder.u16(int(question.rdtype))
        encoder.u16(int(question.rdclass))
    for rr in message.answer + message.authority + message.additional:
        encoder.name(rr.name)
        encoder.u16(int(rr.rdtype))
        encoder.u16(int(Rclass.IN))
        encoder.u32(rr.ttl)
        _encode_rdata(encoder, rr.rdata)
    if message.edns_payload is not None:
        # OPT pseudo-RR: root owner, CLASS carries the UDP payload size.
        encoder.u8(0)  # root name
        encoder.u16(OPT_TYPE)
        encoder.u16(message.edns_payload & 0xFFFF)
        encoder.u32(0)  # extended RCODE and flags, all clear
        encoder.u16(0)  # no options
    return bytes(encoder.buffer)


def from_wire(data: bytes) -> Message:
    """Parse wire-format bytes into a :class:`~repro.dns.message.Message`.

    Total over ``bytes``: every malformed input raises
    :class:`~repro.dns.errors.WireError` and nothing else, so callers at
    the trust boundary catch exactly that.
    """
    decoder = _Decoder(data)
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
                rdata = _decode_rdata(decoder, rdtype, rdlength)
                section.append(ResourceRecord(name, ttl, rdata))
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
