"""Domain names.

A :class:`Name` is an immutable sequence of labels, always stored fully
qualified (the empty root label is implicit, not stored).  Comparison and
hashing are case-insensitive, per RFC 1034 section 3.1; the original casing
is preserved for presentation.

Names are used as dictionary keys throughout the zone and cache layers, and
the measurement harness leans on :meth:`Name.is_subdomain_of` and
:meth:`Name.relativize` to attribute observed queries back to test
policies.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

from repro.dns.errors import EmptyLabel, NameError_, NameTooLong, NonAsciiLabel

_MAX_LABEL = 63
_MAX_NAME = 255


def _validate_label(label: str) -> str:
    if not label:
        raise EmptyLabel("empty label")
    if not label.isascii():
        raise NonAsciiLabel("label is not ASCII: %r" % label)
    if len(label) > _MAX_LABEL:
        raise NameTooLong("label exceeds 63 octets: %r" % label)
    return label


def _check_length(labels: Tuple[str, ...]) -> None:
    # +1 per label length octet, +1 for the root label.
    if sum(map(len, labels)) + len(labels) + 1 > _MAX_NAME:
        raise NameTooLong("name exceeds 255 octets: %s" % ".".join(labels))


class Name:
    """A fully-qualified domain name.

    Construct from a dotted string (``Name("Foo.Example.COM")``) or from an
    iterable of labels (``Name(("foo", "example", "com"))``).  A trailing
    dot is accepted and ignored; ``Name(".")`` and ``Name("")`` both denote
    the root.
    """

    __slots__ = ("_labels", "_key")

    def __init__(self, value: Union[str, Iterable[str], "Name"] = ()) -> None:
        if isinstance(value, Name):
            # Already validated, and both tuples are immutable: share them.
            self._labels, self._key = value._labels, value._key
            return
        if isinstance(value, str):
            text = value.rstrip(".")
            labels = tuple(_validate_label(p) for p in text.split(".")) if text else ()
        else:
            labels = tuple(_validate_label(str(p)) for p in value)
        _check_length(labels)
        self._labels = labels
        self._key = tuple(label.lower() for label in labels)

    @classmethod
    def trusted(cls, labels: Tuple[str, ...]) -> "Name":
        """A name from labels a decoder has already bounded to 1–63 ASCII
        octets each: only the 255-octet total is checked, once."""
        _check_length(labels)
        name = object.__new__(cls)
        name._labels = labels
        name._key = tuple([label.lower() for label in labels])
        return name

    def __reduce__(self):
        # The labels alone: the key is derived again on load, and a name
        # pickles as one tuple instead of a slots-state dict.
        return _name_from_labels, (self._labels,)

    # -- structure ------------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        """The labels, most-specific first, original casing preserved."""
        return self._labels

    @property
    def key(self) -> Tuple[str, ...]:
        """Lower-cased labels — the canonical comparison key."""
        return self._key

    def is_root(self) -> bool:
        return not self._labels

    def parent(self) -> "Name":
        """The name with its leftmost label removed."""
        if not self._labels:
            raise ValueError("the root name has no parent")
        return Name(self._labels[1:])

    def child(self, *labels: str) -> "Name":
        """A new name with ``labels`` prepended (leftmost first)."""
        return Name(tuple(labels) + self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    # -- relations --------------------------------------------------------

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals ``other`` or sits beneath it."""
        if len(other._key) > len(self._key):
            return False
        offset = len(self._key) - len(other._key)
        return self._key[offset:] == other._key

    def relativize(self, suffix: "Name") -> Tuple[str, ...]:
        """Labels of ``self`` with ``suffix`` stripped from the right.

        Raises ``ValueError`` if ``self`` is not a subdomain of ``suffix``.
        """
        if not self.is_subdomain_of(suffix):
            raise ValueError("%s is not under %s" % (self, suffix))
        return self._labels[: len(self._labels) - len(suffix._labels)]

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Name):
            return self._key == other._key
        if isinstance(other, str):
            try:
                return self._key == Name(other)._key
            except NameError_:
                return False  # not a valid name, so equal to none
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering compares labels right to left.
        return tuple(reversed(self._key)) < tuple(reversed(other._key))

    def __str__(self) -> str:
        return ".".join(self._labels) + "." if self._labels else "."

    def __repr__(self) -> str:
        return "Name(%r)" % str(self)

    def to_text(self, omit_final_dot: bool = False) -> str:
        """Dotted textual form; optionally without the trailing dot."""
        text = str(self)
        if omit_final_dot and text != ".":
            text = text[:-1]
        return text


def _name_from_labels(labels: Tuple[str, ...]) -> Name:
    """Unpickle a :class:`Name` (its labels were validated when it was built)."""
    return Name.trusted(labels)


def as_name(value: Union[str, Iterable[str], Name]) -> Name:
    """``value`` itself when it is already a :class:`Name` (names are
    immutable, so there is nothing to copy), else ``Name(value)``."""
    return value if type(value) is Name else Name(value)


#: The DNS root name.
root = Name(())
