"""JSON-lines artefacts: one writer and one reader for every raw record.

A run's raw evidence is three JSON-lines files: the attributed query log
and the probe transcripts (:mod:`repro.core.trace`) and the span dump
(:mod:`repro.obs.spans`).  Each starts with a header line naming its
format and version, so a partially written or foreign file fails loudly
on load.  :func:`write_jsonl` writes the header and then streams the
record lines; :func:`read_jsonl` checks the header and yields the
decoded records.

Each format defines its record as the dict ``json.dumps`` writes, and a
line function that formats the same record from a fixed template
without building the dict.  The template path formats values as
``json.dumps`` does:

* strings through ``json.encoder.encode_basestring_ascii``, the C
  escaper ``json.dumps`` itself uses;
* floats with ``float.__repr__``; NaN and ±Infinity, which
  ``json.dumps`` spells ``NaN``/``Infinity``/``-Infinity``, are left to
  ``json.dumps``;
* ``bool`` is told from ``int`` by exact type (``True`` is an ``int``
  too, and ``int.__repr__(True)`` is ``"True"``).

A value of any other type makes the line function return None or raise
one of :data:`ILL_TYPED`, and that one record is written by
``json.dumps`` instead, so every line is byte-identical to
``json.dumps(record)`` whatever the record holds.

:class:`Fragments` memoises, within one call, the fragments that repeat
thousands of times in one file — SMTP reply triples, span attribute key
prefixes, and int/bool/None span attributes — in a bounded table.
Equal values may have different JSON (``True == 1``), so a memo key
always carries the value's type.  Name-valued attributes are written
from their text every time: a run's names are many, so memoising them
would only churn the table (and ``Name("Foo.") == Name("foo.")``, so
the key would need the exact labels).
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple, Type, TypeVar, Union

#: The JSON text of a string, exactly as ``json.dumps`` writes it.
string = encode_basestring_ascii

#: Lines joined into one write call; the file is streamed in chunks of
#: this many lines and never held whole.
CHUNK_LINES = 64

#: Bound on one :class:`Fragments` table; it is cleared when full.
FRAGMENT_LIMIT = 4096

#: What a line function may raise on a value the template path cannot
#: format (a non-string where a string was expected, and so on).
ILL_TYPED = (AttributeError, IndexError, TypeError)

_NONE = type(None)

Record = TypeVar("Record")


class Fragments:
    """Memoised JSON fragments for one write call, in a bounded table.

    Key shapes never overlap: a reply is its own ``(str, int, str)``
    tuple, an attribute's key prefix is the key string, and an int, bool
    or None attribute is ``(key, type, value)``.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: Dict[object, str] = {}

    def _keep(self, key: object, text: str) -> str:
        table = self._table
        if len(table) >= FRAGMENT_LIMIT:
            table.clear()
        table[key] = text
        return text

    def replies(self, replies: Sequence[Tuple[str, int, str]]) -> str:
        """The items of the JSON array of ``(stage, code, text)`` replies.

        A reply whose code is not exactly an ``int`` raises TypeError.
        A memo hit is exact: the stored reply has exactly the types
        ``(str, int, str)``, and only a string can equal a string.
        """
        count = len(replies)  # an iterator raises here, before it is consumed
        get = self._table.get
        texts = [get(reply) for reply in replies if type(reply[1]) is int]
        if len(texts) != count:
            raise TypeError("reply code is not an int")
        if None in texts:
            texts = [get(reply) or self._reply(reply) for reply in replies]
        return ", ".join(texts)

    def _reply(self, reply: Tuple[str, int, str]) -> str:
        stage, code, text = reply
        fragment = "[%s, %s, %s]" % (string(stage), int.__repr__(code), string(text))
        if type(stage) is str and type(text) is str:
            self._keep(reply, fragment)
        return fragment

    def attrs(self, attrs: Dict[str, object]) -> str:
        """The JSON object of span attributes, as ``json.dumps`` writes
        them after ``repro.obs.spans`` passes every value that is not a
        JSON scalar (a :class:`~repro.dns.name.Name`, say) through
        ``str()``.  A non-string key, a non-finite float or a subclass
        of ``str``, ``int`` or ``float`` raises TypeError."""
        table = self._table
        parts = []
        for key, obj in attrs.items():
            if type(key) is not str:
                raise TypeError("attribute key %r" % (key,))
            cls = type(obj)
            if cls is int or cls is bool or cls is _NONE:
                memo_key = (key, cls, obj)
                fragment = table.get(memo_key)
                if fragment is None:
                    fragment = self._keep(memo_key, "%s: %s" % (string(key), _scalar(obj)))
                parts.append(fragment)
                continue
            if cls is str:
                text = string(obj)
            elif cls is float and not obj - obj:  # type: ignore[operator]
                text = float.__repr__(obj)
            elif isinstance(obj, (str, int, float)):
                raise TypeError("attribute %s=%r" % (key, obj))
            else:
                text = string(str(obj))
            prefix = table.get(key)
            if prefix is None:
                prefix = self._keep(key, string(key) + ": ")
            parts.append(prefix + text)
        return "{%s}" % ", ".join(parts)


def _scalar(obj: object) -> str:
    # The attribute values Fragments.attrs memoises: None, bools, ints.
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    return int.__repr__(obj)


# -- files ---------------------------------------------------------------


def write_jsonl(
    path: Union[str, Path],
    fmt: str,
    version: int,
    records: Iterable[Record],
    line: Callable[[Record, Fragments], Optional[str]],
    record: Callable[[Record], dict],
) -> int:
    """Write the ``fmt``/``version`` header, then one line per record;
    returns the record count.

    ``line(item, fragments)`` must return exactly
    ``json.dumps(record(item)) + "\\n"``, or None (or raise one of
    :data:`ILL_TYPED`) when its template cannot; ``json.dumps`` then
    writes that record.
    """
    lines = _lines(records, line, record)
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": fmt, "version": version}) + "\n")
        while True:
            chunk = list(islice(lines, CHUNK_LINES))
            if not chunk:
                return count
            count += len(chunk)
            handle.write("".join(chunk))


def _lines(
    records: Iterable[Record],
    line: Callable[[Record, Fragments], Optional[str]],
    record: Callable[[Record], dict],
) -> Iterator[str]:
    fragments = Fragments()
    for item in records:
        try:
            text = line(item, fragments)
        except ILL_TYPED:
            text = None
        yield text if text is not None else json.dumps(record(item)) + "\n"


def read_jsonl(
    path: Union[str, Path], fmt: str, version: int, error: Type[Exception], noun: str
) -> Iterator[Tuple[int, dict]]:
    """Check a file's header, then yield ``(line number, record)`` for
    every non-blank line; an unreadable header or line raises ``error``
    (``noun`` names the file kind in its message)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise error("%s: missing %s header" % (path, noun)) from exc
        if not isinstance(header, dict) or header.get("format") != fmt:
            raise error("%s: expected %s %s, found %r" % (path, fmt, noun, header))
        if header.get("version") != version:
            raise error("%s: unsupported %s version %r" % (path, noun, header.get("version")))
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise error("%s:%d: bad record: %s" % (path, line_number, exc)) from exc
            yield line_number, record
