"""DNS error types."""


class DnsError(Exception):
    """Base class for DNS errors."""


class NameError_(DnsError):
    """Base class for malformed-name errors."""


class NameTooLong(NameError_):
    """A name exceeded 255 octets or a label exceeded 63 octets."""


class EmptyLabel(NameError_):
    """A name contained an empty interior label (``a..b``)."""


class NonAsciiLabel(NameError_, ValueError):
    """A non-ASCII label; a ``ValueError`` too, as ``UnicodeEncodeError`` was."""


class WireError(DnsError):
    """Malformed wire-format data (bad pointer, short buffer, ...)."""


class FormError(DnsError):
    """A peer sent a structurally invalid message."""


class NxDomain(DnsError):
    """The queried name does not exist (RCODE 3)."""


class NoNameservers(DnsError):
    """No authoritative server could be found or reached for the name."""


class ResolutionTimeout(DnsError):
    """The resolver gave up waiting for a response."""
