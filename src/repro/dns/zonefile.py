"""Master-file (zone file) parsing — RFC 1035 section 5, pragmatically.

Supports the constructs operational zones actually use: ``$ORIGIN`` and
``$TTL`` directives, relative and absolute owner names, ``@`` for the
origin, owner inheritance from the previous record, per-record TTLs,
parenthesised multi-line records (SOA, long TXT), quoted character-strings
with ``\\"`` escapes, and ``;`` comments.

Only the record types the package implements are accepted; an unknown
type is a :class:`ZoneFileError`, not a silent skip — mystery records in
a measurement study's configuration are exactly the kind of thing one
wants to hear about.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from repro.dns.errors import DnsError
from repro.dns.name import Name
from repro.dns.rdata import (
    AAAARecord,
    ARecord,
    CnameRecord,
    MxRecord,
    NsRecord,
    PtrRecord,
    Rdata,
    SoaRecord,
    TxtRecord,
)
from repro.dns.zone import Zone


class ZoneFileError(DnsError):
    """Malformed zone file content; carries the offending line number
    (0 for an error no one line holds, such as a bad ``origin``)."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__("line %d: %s" % (line, message) if line else message)
        self.line = line


def parse_zone(text: str, origin: Optional[Union[str, Name]] = None, default_ttl: int = 300) -> Zone:
    """Parse ``text`` into a :class:`~repro.dns.zone.Zone`.

    ``origin`` seeds ``$ORIGIN``; the file may override it.  The zone's
    origin is the first ``$ORIGIN`` in effect when the first record is
    read (the usual layout for hand-written zones).
    """
    parser = _ZoneFileParser(origin, default_ttl)
    return parser.parse(text)


class _ZoneFileParser:
    def __init__(self, origin: Optional[Union[str, Name]], default_ttl: int) -> None:
        self.origin: Optional[Name] = _origin(origin, 0) if origin is not None else None
        self.default_ttl = default_ttl
        self.previous_owner: Optional[Name] = None
        self.zone: Optional[Zone] = None
        self.pending: List[Tuple[Name, int, Rdata]] = []

    def parse(self, text: str) -> Zone:
        for line_number, tokens in _logical_lines(text):
            self._line(tokens, line_number)
        if self.zone is None:
            if self.origin is None:
                raise ZoneFileError("no records and no $ORIGIN", 0)
            self.zone = Zone(self.origin, default_ttl=self.default_ttl)
        return self.zone

    # -- line handling -----------------------------------------------------

    def _line(self, tokens: List[str], line: int) -> None:
        if tokens[0] == "$ORIGIN":
            if len(tokens) != 2:
                raise ZoneFileError("$ORIGIN takes one argument", line)
            self.origin = _origin(tokens[1], line)
            return
        if tokens[0] == "$TTL":
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ZoneFileError("$TTL takes one numeric argument", line)
            self.default_ttl = int(tokens[1])
            if self.zone is not None:
                self.zone.default_ttl = self.default_ttl
            return
        if tokens[0].startswith("$"):
            raise ZoneFileError("unsupported directive %s" % tokens[0], line)
        self._record(tokens, line)

    def _record(self, tokens: List[str], line: int) -> None:
        if self.origin is None:
            raise ZoneFileError("record before any $ORIGIN", line)
        index = 0
        if tokens[0] == "\0INDENT":
            # Continuation of the previous owner.
            if self.previous_owner is None:
                raise ZoneFileError("owner-less record with no previous owner", line)
            owner = self.previous_owner
            index = 1
        else:
            owner = self._absolute(tokens[0], line)
            index = 1
        self.previous_owner = owner

        ttl = self.default_ttl
        if index < len(tokens) and tokens[index].isdecimal():
            ttl = int(tokens[index])
            index += 1
        if index < len(tokens) and tokens[index].upper() == "IN":
            index += 1
        # TTL may also follow the class.
        if index < len(tokens) and tokens[index].isdecimal():
            ttl = int(tokens[index])
            index += 1
        if index >= len(tokens):
            raise ZoneFileError("record without a type", line)
        rtype = tokens[index].upper()
        rdata_tokens = tokens[index + 1 :]
        rdata = self._rdata(rtype, rdata_tokens, line)

        if self.zone is None:
            self.zone = Zone(self.origin, default_ttl=self.default_ttl)
        try:
            self.zone.add(owner, rdata, ttl)
        except ValueError as exc:
            raise ZoneFileError(str(exc), line) from exc

    def _absolute(self, token: str, line: int) -> Name:
        if token == "@":
            return self.origin  # type: ignore[return-value]
        try:
            if token.endswith("."):
                return Name(token)
            # Relative names hang off the current origin.
            relative = Name(token)
            return Name(relative.labels + self.origin.labels)  # type: ignore[union-attr]
        except Exception as exc:
            raise ZoneFileError("bad owner name %r: %s" % (token, exc), line) from exc

    def _rdata(self, rtype: str, tokens: List[str], line: int) -> Rdata:
        def need(count: int) -> None:
            if len(tokens) < count:
                raise ZoneFileError("%s needs %d field(s)" % (rtype, count), line)

        try:
            if rtype == "A":
                need(1)
                return ARecord(tokens[0])
            if rtype == "AAAA":
                need(1)
                return AAAARecord(tokens[0])
            if rtype == "NS":
                need(1)
                return NsRecord(self._absolute(tokens[0], line))
            if rtype == "CNAME":
                need(1)
                return CnameRecord(self._absolute(tokens[0], line))
            if rtype == "PTR":
                need(1)
                return PtrRecord(self._absolute(tokens[0], line))
            if rtype == "MX":
                need(2)
                return MxRecord(int(tokens[0]), self._absolute(tokens[1], line))
            if rtype == "TXT":
                need(1)
                return TxtRecord(tokens)
            if rtype == "SOA":
                need(7)
                return SoaRecord(
                    self._absolute(tokens[0], line),
                    self._absolute(tokens[1], line),
                    *(int(value) for value in tokens[2:7])
                )
        except ZoneFileError:
            raise
        except Exception as exc:
            raise ZoneFileError("bad %s rdata: %s" % (rtype, exc), line) from exc
        raise ZoneFileError("unsupported record type %r" % rtype, line)


def _origin(value: Union[str, Name], line: int) -> Name:
    try:
        return Name(value)
    except DnsError as exc:
        raise ZoneFileError("bad origin %r: %s" % (str(value), exc), line) from exc


# -- tokenizer ---------------------------------------------------------------


def _logical_lines(text: str) -> Iterable[Tuple[int, List[str]]]:
    """Yield (line_number, tokens) per logical line.

    Handles parentheses continuation, quoted strings, comments, and marks
    indented owner-inheriting lines with a ``\\0INDENT`` pseudo-token.
    """
    tokens: List[str] = []
    start_line = 0
    depth = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line_tokens, opened, closed = _tokenize(raw, line_number)
        if not tokens and (line_tokens or depth):
            start_line = line_number
            if raw[:1] in (" ", "\t") and line_tokens:
                line_tokens.insert(0, "\0INDENT")
        tokens.extend(line_tokens)
        depth += opened - closed
        if depth < 0:
            raise ZoneFileError("unbalanced ')'", line_number)
        if depth == 0 and tokens:
            yield start_line, tokens
            tokens = []
    if depth != 0:
        raise ZoneFileError("unclosed '('", start_line)
    if tokens:
        yield start_line, tokens


def _tokenize(raw: str, line_number: int) -> Tuple[List[str], int, int]:
    tokens: List[str] = []
    current: List[str] = []
    opened = closed = 0
    in_quote = False
    index = 0
    while index < len(raw):
        char = raw[index]
        if in_quote:
            if char == "\\" and index + 1 < len(raw):
                current.append(raw[index + 1])
                index += 2
                continue
            if char == '"':
                tokens.append("".join(current))
                current = []
                in_quote = False
                index += 1
                continue
            current.append(char)
            index += 1
            continue
        if char == '"':
            if current:
                tokens.append("".join(current))
                current = []
            in_quote = True
            index += 1
            continue
        if char == ";":
            break  # comment to end of line
        if char == "(":
            opened += 1
            index += 1
            continue
        if char == ")":
            closed += 1
            index += 1
            continue
        if char in " \t":
            if current:
                tokens.append("".join(current))
                current = []
            index += 1
            continue
        current.append(char)
        index += 1
    if in_quote:
        raise ZoneFileError("unterminated quoted string", line_number)
    if current:
        tokens.append("".join(current))
    return tokens, opened, closed
