"""SPF results (RFC 7208 section 2.6)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class SpfResult(enum.Enum):
    """The seven possible outcomes of ``check_host``."""

    NONE = "none"
    NEUTRAL = "neutral"
    PASS = "pass"
    FAIL = "fail"
    SOFTFAIL = "softfail"
    TEMPERROR = "temperror"
    PERMERROR = "permerror"

    @property
    def is_error(self) -> bool:
        return self in (SpfResult.TEMPERROR, SpfResult.PERMERROR)


#: Qualifier-character to result mapping for a matched mechanism.
QUALIFIER_RESULTS = {
    "+": SpfResult.PASS,
    "-": SpfResult.FAIL,
    "~": SpfResult.SOFTFAIL,
    "?": SpfResult.NEUTRAL,
}


@dataclass
class DnsLookupRecord:
    """One DNS lookup the evaluator performed, for tracing/assertions."""

    qname: str
    qtype: str
    status: str
    t_issued: float
    t_completed: float
    term: Optional[str] = None


@dataclass
class SpfCheckOutcome:
    """Everything ``check_host`` learned.

    ``lookups`` records the evaluator-side view of its DNS activity; the
    measurement harness itself never reads it (it watches the authoritative
    server's query log, exactly like the paper), but tests assert against
    it and operators find it invaluable.
    """

    result: SpfResult
    domain: str
    explanation: Optional[str] = None
    matched_term: Optional[str] = None
    mechanism_lookups: int = 0
    void_lookups: int = 0
    lookups: List[DnsLookupRecord] = field(default_factory=list)
    t_started: float = 0.0
    t_completed: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.t_completed - self.t_started

    def __str__(self) -> str:
        return "%s (domain=%s, %d lookups, %.3fs)" % (
            self.result.value,
            self.domain,
            len(self.lookups),
            self.elapsed,
        )
