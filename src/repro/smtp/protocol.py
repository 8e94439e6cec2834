"""SMTP grammar: commands, replies, and mailbox paths (RFC 5321 s4.1).

The parsers here are deliberately tolerant in what they accept (optional
whitespace after the colon in ``MAIL FROM:``, case-insensitive verbs) and
strict in what they emit, mirroring how interoperable MTAs behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

from repro.smtp.errors import SmtpProtocolError

CRLF = "\r\n"

#: Bound on each LRU reply memo (encode and parse); campaigns repeat a few dozen.
REPLY_MEMO_LIMIT = 2048


class Mailbox:
    """An envelope address: local part plus domain.

    The domain is the input to SPF's ``MAIL FROM`` identity check; the
    measurement harness embeds its test identifiers there.  A value
    object: equal and hashed by its two fields, never mutated.  One is
    parsed per ``MAIL``/``RCPT`` line, so it is a plain slotted class
    rather than a frozen dataclass (whose ``__init__`` pays an
    ``object.__setattr__`` per field).
    """

    __slots__ = ("local", "domain")

    def __init__(self, local: str, domain: str) -> None:
        self.local = local
        self.domain = domain

    def __eq__(self, other: object) -> bool:
        if type(other) is not Mailbox:
            return NotImplemented
        return self.local == other.local and self.domain == other.domain

    def __hash__(self) -> int:
        return hash((self.local, self.domain))

    def __repr__(self) -> str:
        return "Mailbox(local=%r, domain=%r)" % (self.local, self.domain)

    @property
    def address(self) -> str:
        return "%s@%s" % (self.local, self.domain)

    def __str__(self) -> str:
        return self.address

    @classmethod
    def parse(cls, text: str) -> "Mailbox":
        if "@" not in text:
            raise SmtpProtocolError("mailbox without @: %r" % text)
        local, _, domain = text.rpartition("@")
        if not local or not domain:
            raise SmtpProtocolError("malformed mailbox: %r" % text)
        return cls(local, domain)


@dataclass(frozen=True)
class Reply:
    """An SMTP reply: a 3-digit code and one or more text lines."""

    code: int
    lines: Tuple[str, ...]

    def __init__(self, code: int, text: Union[str, Sequence[str]] = ()) -> None:
        if not 200 <= code <= 599:
            raise SmtpProtocolError("reply code out of range: %r" % code)
        if isinstance(text, str):
            lines: Tuple[str, ...] = (text,)
        else:
            lines = tuple(text) or ("",)
        object.__setattr__(self, "code", int(code))
        object.__setattr__(self, "lines", lines)

    @property
    def text(self) -> str:
        return " ".join(self.lines)

    @property
    def is_success(self) -> bool:
        return 200 <= self.code < 300

    @property
    def is_intermediate(self) -> bool:
        return 300 <= self.code < 400

    @property
    def is_transient_failure(self) -> bool:
        return 400 <= self.code < 500

    @property
    def is_permanent_failure(self) -> bool:
        return 500 <= self.code < 600

    def to_bytes(self) -> bytes:
        return _encode_reply(self.code, self.lines)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Reply":
        # Memoised on the exact bytes; malformed input raises every time.
        return _decode_reply(bytes(data))


@lru_cache(maxsize=REPLY_MEMO_LIMIT)
def _encode_reply(code: int, lines: Tuple[str, ...]) -> bytes:
    out: List[str] = []
    for index, line in enumerate(lines):
        separator = " " if index == len(lines) - 1 else "-"
        out.append("%03d%s%s" % (code, separator, line))
    return (CRLF.join(out) + CRLF).encode("utf-8")


@lru_cache(maxsize=REPLY_MEMO_LIMIT)
def _decode_reply(data: bytes) -> Reply:
    text = data.decode("utf-8", "replace")
    lines = [line for line in text.split(CRLF) if line]
    if not lines:
        raise SmtpProtocolError("empty reply")
    code: Optional[int] = None
    parts: List[str] = []
    for line in lines:
        prefix = line[:3]
        if len(prefix) < 3 or not (prefix.isascii() and prefix.isdigit()):
            raise SmtpProtocolError("malformed reply line: %r" % line)
        line_code = int(prefix)
        if code is None:
            code = line_code
        elif line_code != code:
            raise SmtpProtocolError("inconsistent codes in multiline reply")
        parts.append(line[4:] if len(line) > 3 else "")
    assert code is not None
    return Reply(code, parts)


class Command:
    """A parsed SMTP command line: a value object like :class:`Mailbox`,
    and slotted for the same reason (one per line a server reads)."""

    __slots__ = ("verb", "argument")

    def __init__(self, verb: str, argument: str) -> None:
        self.verb = verb
        self.argument = argument

    def __eq__(self, other: object) -> bool:
        if type(other) is not Command:
            return NotImplemented
        return self.verb == other.verb and self.argument == other.argument

    def __hash__(self) -> int:
        return hash((self.verb, self.argument))

    def __repr__(self) -> str:
        return "Command(verb=%r, argument=%r)" % (self.verb, self.argument)

    def to_line(self) -> str:
        return "%s %s" % (self.verb, self.argument) if self.argument else self.verb


def parse_command(line: str) -> Command:
    """Parse one command line into verb (upper-cased) and raw argument."""
    stripped = line.rstrip(CRLF)
    if not stripped:
        raise SmtpProtocolError("empty command line")
    verb, _, argument = stripped.partition(" ")
    return Command(verb.upper(), argument.strip())


def parse_path(argument: str, keyword: str) -> Optional[Mailbox]:
    """Parse a ``FROM:<path>`` / ``TO:<path>`` argument.

    Returns ``None`` for the null reverse-path ``<>`` (used by bounces).
    ESMTP parameters after the path are accepted and ignored.
    """
    text = argument.strip()
    prefix = keyword.upper() + ":"
    if not text.upper().startswith(prefix):
        raise SmtpProtocolError("expected %r in %r" % (prefix, argument))
    rest = text[len(prefix) :].strip()
    if not rest.startswith("<"):
        # Some real clients omit the angle brackets; tolerate it.
        path = rest.split(" ", 1)[0]
    else:
        end = rest.find(">")
        if end < 0:
            raise SmtpProtocolError("unterminated path in %r" % argument)
        path = rest[1:end]
    if not path:
        return None
    if ":" in path and "@" in path:
        # Strip source routes: <@relay:user@dom>
        path = path.rsplit(":", 1)[1]
    return Mailbox.parse(path)


def dot_stuff(body: str) -> str:
    """Apply RFC 5321 section 4.5.2 leading-dot doubling for transmission."""
    lines = body.split(CRLF)
    return CRLF.join("." + line if line.startswith(".") else line for line in lines)


def dot_unstuff(body: str) -> str:
    """Reverse :func:`dot_stuff` on reception."""
    lines = body.split(CRLF)
    return CRLF.join(line[1:] if line.startswith("..") else line for line in lines)
