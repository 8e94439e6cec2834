"""Resource-record data types.

Only the types the measurement system touches are implemented, which is
exactly the set the paper's experiments exercise: A, AAAA, MX, TXT (SPF,
DKIM key, and DMARC records all live in TXT), SOA (contact publication in
RNAME, negative caching), NS, CNAME and PTR.

Rdata classes are immutable value objects holding parsed fields; the wire
codec in :mod:`repro.dns.wire` knows how to serialise each.
"""

from __future__ import annotations

import enum
import ipaddress
from typing import Sequence, Tuple, Union

from repro.dns.name import Name, as_name


class RdataType(enum.IntEnum):
    """RR TYPE values (RFC 1035 / 3596)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28

    @classmethod
    def from_text(cls, text: str) -> "RdataType":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError("unknown rdata type %r" % text) from None


class Rclass(enum.IntEnum):
    """RR CLASS values; only IN is used."""

    IN = 1


class Rcode(enum.IntEnum):
    """Response codes (RFC 1035 section 4.1.1)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


class Rdata:
    """Base class for typed record data."""

    rdtype: RdataType

    def to_text(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.to_text())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._fields())

    def _fields(self) -> tuple:
        raise NotImplementedError


class ARecord(Rdata):
    """An IPv4 address."""

    rdtype = RdataType.A
    __slots__ = ("address",)

    def __init__(self, address: str) -> None:
        self.address = str(ipaddress.IPv4Address(address))

    def to_text(self) -> str:
        return self.address

    def _fields(self) -> tuple:
        return (self.address,)


class AAAARecord(Rdata):
    """An IPv6 address (stored in canonical compressed form)."""

    rdtype = RdataType.AAAA
    __slots__ = ("address",)

    def __init__(self, address: str) -> None:
        self.address = str(ipaddress.IPv6Address(address))

    def to_text(self) -> str:
        return self.address

    def _fields(self) -> tuple:
        return (self.address,)


class NsRecord(Rdata):
    """An authoritative name-server name."""

    rdtype = RdataType.NS
    __slots__ = ("target",)

    def __init__(self, target: Union[str, Name]) -> None:
        self.target = as_name(target)

    def to_text(self) -> str:
        return str(self.target)

    def _fields(self) -> tuple:
        return (self.target.key,)


class CnameRecord(Rdata):
    """A canonical-name alias."""

    rdtype = RdataType.CNAME
    __slots__ = ("target",)

    def __init__(self, target: Union[str, Name]) -> None:
        self.target = as_name(target)

    def to_text(self) -> str:
        return str(self.target)

    def _fields(self) -> tuple:
        return (self.target.key,)


class PtrRecord(Rdata):
    """A reverse-mapping pointer."""

    rdtype = RdataType.PTR
    __slots__ = ("target",)

    def __init__(self, target: Union[str, Name]) -> None:
        self.target = as_name(target)

    def to_text(self) -> str:
        return str(self.target)

    def _fields(self) -> tuple:
        return (self.target.key,)


class MxRecord(Rdata):
    """A mail-exchange record: preference plus exchange host name."""

    rdtype = RdataType.MX
    __slots__ = ("preference", "exchange")

    def __init__(self, preference: int, exchange: Union[str, Name]) -> None:
        if not 0 <= preference <= 0xFFFF:
            raise ValueError("MX preference out of range: %r" % preference)
        self.preference = int(preference)
        self.exchange = as_name(exchange)

    def to_text(self) -> str:
        return "%d %s" % (self.preference, self.exchange)

    def _fields(self) -> tuple:
        return (self.preference, self.exchange.key)


class TxtRecord(Rdata):
    """One TXT record: a sequence of character-strings (each <= 255 bytes).

    SPF, DKIM key, and DMARC records are all published as TXT.  The
    :attr:`text` property joins the strings, which is how SPF (RFC 7208
    section 3.3) and DKIM consumers reassemble long records.
    """

    rdtype = RdataType.TXT
    __slots__ = ("strings",)

    def __init__(self, strings: Union[str, Sequence[str]]) -> None:
        if isinstance(strings, str):
            strings = _split_character_strings(strings)
        parts = tuple(strings)
        if not parts:
            raise ValueError("TXT record needs at least one character-string")
        for part in parts:
            if len(part.encode("utf-8")) > 255:
                raise ValueError("TXT character-string exceeds 255 octets")
        self.strings: Tuple[str, ...] = parts

    @property
    def text(self) -> str:
        """All character-strings concatenated, per SPF/DKIM record rules."""
        return "".join(self.strings)

    def to_text(self) -> str:
        return " ".join('"%s"' % part.replace('"', '\\"') for part in self.strings)

    def _fields(self) -> tuple:
        return (self.strings,)


def _split_character_strings(text: str, limit: int = 255) -> Tuple[str, ...]:
    """Split ``text`` into <=255-octet chunks, as publishers of long TXT
    records (DKIM public keys, big SPF policies) must."""
    if not text:
        return ("",)
    return tuple(text[i : i + limit] for i in range(0, len(text), limit))


class SoaRecord(Rdata):
    """Start-of-authority.

    The RNAME field is where the paper published a contact address
    (Section 5.3), so it is a first-class field here.
    """

    rdtype = RdataType.SOA
    __slots__ = ("mname", "rname", "serial", "refresh", "retry", "expire", "minimum")

    def __init__(
        self,
        mname: Union[str, Name],
        rname: Union[str, Name],
        serial: int = 1,
        refresh: int = 7200,
        retry: int = 3600,
        expire: int = 1209600,
        minimum: int = 300,
    ) -> None:
        self.mname = as_name(mname)
        self.rname = as_name(rname)
        self.serial = int(serial)
        self.refresh = int(refresh)
        self.retry = int(retry)
        self.expire = int(expire)
        self.minimum = int(minimum)

    def to_text(self) -> str:
        return "%s %s %d %d %d %d %d" % (
            self.mname,
            self.rname,
            self.serial,
            self.refresh,
            self.retry,
            self.expire,
            self.minimum,
        )

    def _fields(self) -> tuple:
        return (
            self.mname.key,
            self.rname.key,
            self.serial,
            self.refresh,
            self.retry,
            self.expire,
            self.minimum,
        )


class ResourceRecord:
    """A complete RR: owner name, class, TTL and typed rdata."""

    __slots__ = ("name", "ttl", "rdata")

    def __init__(self, name: Union[str, Name], ttl: int, rdata: Rdata) -> None:
        self.name = as_name(name)
        if ttl < 0:
            raise ValueError("negative TTL")
        self.ttl = int(ttl)
        self.rdata = rdata

    @property
    def rdtype(self) -> RdataType:
        return self.rdata.rdtype

    def to_text(self) -> str:
        return "%s %d IN %s %s" % (self.name, self.ttl, self.rdtype.name, self.rdata.to_text())

    def __repr__(self) -> str:
        return "ResourceRecord(%s)" % self.to_text()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceRecord):
            return NotImplemented
        return (self.name, self.ttl, self.rdata) == (other.name, other.ttl, other.rdata)

    def __hash__(self) -> int:
        return hash((self.name, self.ttl, self.rdata))
