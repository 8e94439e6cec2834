"""DNS message model (RFC 1035 section 4).

A :class:`Message` holds the header fields the experiments care about —
notably the TC (truncation) bit that drives the UDP-to-TCP fallback test
policy — plus the question and the three record sections.  Serialisation
lives in :mod:`repro.dns.wire`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.dns.name import Name, as_name
from repro.dns.rdata import Rclass, Rcode, RdataType, ResourceRecord


@dataclass
class Flags:
    """Header flag bits and the 4-bit RCODE."""

    qr: bool = False  # response?
    aa: bool = False  # authoritative answer
    tc: bool = False  # truncated
    rd: bool = True  # recursion desired
    ra: bool = False  # recursion available
    opcode: int = 0
    rcode: Rcode = Rcode.NOERROR

    def to_int(self) -> int:
        value = 0
        if self.qr:
            value |= 0x8000
        value |= (self.opcode & 0xF) << 11
        if self.aa:
            value |= 0x0400
        if self.tc:
            value |= 0x0200
        if self.rd:
            value |= 0x0100
        if self.ra:
            value |= 0x0080
        value |= int(self.rcode) & 0xF
        return value

    @classmethod
    def from_int(cls, value: int) -> "Flags":
        return cls(
            qr=bool(value & 0x8000),
            opcode=(value >> 11) & 0xF,
            aa=bool(value & 0x0400),
            tc=bool(value & 0x0200),
            rd=bool(value & 0x0100),
            ra=bool(value & 0x0080),
            rcode=Rcode(value & 0xF),
        )


@dataclass(frozen=True)
class Question:
    """One entry of the question section."""

    name: Name
    rdtype: RdataType
    rdclass: Rclass = Rclass.IN

    def __str__(self) -> str:
        return "%s %s %s" % (self.name, self.rdclass.name, self.rdtype.name)


@dataclass
class Message:
    """A DNS query or response.

    ``edns_payload`` carries EDNS0 (RFC 6891): when not ``None``, the
    message includes an OPT pseudo-RR advertising that UDP payload size.
    Modern resolvers advertise ~1232 octets, which spares mid-sized
    responses the classic 512-octet truncation dance.
    """

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    question: List[Question] = field(default_factory=list)
    answer: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)
    additional: List[ResourceRecord] = field(default_factory=list)
    edns_payload: Optional[int] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def make_query(
        cls,
        qname: Union[str, Name],
        rdtype: RdataType,
        msg_id: int = 0,
        recursion_desired: bool = True,
        edns_payload: Optional[int] = None,
    ) -> "Message":
        """Build a standard query for one name/type."""
        return cls(
            msg_id=msg_id,
            flags=Flags(qr=False, rd=recursion_desired),
            question=[Question(as_name(qname), rdtype)],
            edns_payload=edns_payload,
        )

    def make_response(self) -> "Message":
        """Start a response to this query: same id/question, QR set.

        Per RFC 6891 a responder echoes EDNS support when the query
        carried an OPT record.
        """
        return Message(
            msg_id=self.msg_id,
            flags=Flags(qr=True, rd=self.flags.rd),
            question=list(self.question),
            edns_payload=self.edns_payload,
        )

    # -- accessors --------------------------------------------------------

    @property
    def qname(self) -> Optional[Name]:
        return self.question[0].name if self.question else None

    @property
    def qtype(self) -> Optional[RdataType]:
        return self.question[0].rdtype if self.question else None

    @property
    def rcode(self) -> Rcode:
        return self.flags.rcode

    def __str__(self) -> str:
        lines = [
            "id %d %s rcode=%s%s" % (
                self.msg_id,
                "response" if self.flags.qr else "query",
                self.flags.rcode.name,
                " TC" if self.flags.tc else "",
            )
        ]
        for question in self.question:
            lines.append(";%s" % question)
        for section, records in (
            ("answer", self.answer),
            ("authority", self.authority),
            ("additional", self.additional),
        ):
            for rr in records:
                lines.append("%s: %s" % (section, rr.to_text()))
        return "\n".join(lines)
