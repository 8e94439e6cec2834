"""The diagnostic model of the static auditor.

Every rule the :mod:`repro.lint` analyzers can fire is registered here
with a stable code (``SPF010``, ``DMARC002``, ``AST001``, ...), a default
severity, and a one-line title.  A :class:`Diagnostic` is one finding: the
rule, the subject (a domain, a record, a file), an optional character
span into the raw record text, and a fix hint.  :class:`LintReport`
aggregates findings and renders them as text or JSON — the two output
modes of ``python -m repro.lint``.

Severities follow the compiler convention: an ERROR is a condition that
makes a strict RFC 7208/7489 validator return ``permerror`` (or, for AST
rules, breaks a reproduction invariant); a WARNING degrades protection or
wastes validator budget; INFO is advisory.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Finding severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2


#: code -> (default severity, one-line title).  The README's rule table is
#: generated from this registry (see ``python -m repro.lint rules``).
RULES: Dict[str, Tuple[Severity, str]] = {
    # -- SPF record syntax and shape --------------------------------------
    "SPF001": (Severity.ERROR, "syntax error in term (strict validators permerror)"),
    "SPF002": (Severity.ERROR, "record is not parseable SPF"),
    "SPF003": (Severity.ERROR, "multiple SPF records at one name (permerror)"),
    "SPF004": (Severity.ERROR, "duplicate redirect=/exp= modifier (RFC 7208 s6 permerror)"),
    "SPF005": (Severity.WARNING, "record risks UDP truncation (over 450 octets)"),
    "SPF006": (Severity.WARNING, "no SPF record published"),
    # -- RFC 7208 processing limits (section 4.6.4) -----------------------
    "SPF010": (Severity.ERROR, "worst-case DNS-lookup terms exceed the limit of 10 (permerror)"),
    "SPF011": (Severity.WARNING, "worst-case DNS-lookup terms near the limit of 10"),
    "SPF012": (Severity.ERROR, "worst-case void lookups exceed the limit of 2 (permerror)"),
    "SPF013": (Severity.ERROR, "include cycle (evaluation spins until the lookup limit)"),
    "SPF014": (Severity.ERROR, "redirect cycle (evaluation spins until the lookup limit)"),
    "SPF015": (Severity.ERROR, "include target publishes no SPF record (permerror)"),
    "SPF016": (Severity.ERROR, "redirect target publishes no SPF record (permerror)"),
    "SPF017": (Severity.WARNING, "mechanism target does not resolve (void lookup)"),
    "SPF018": (Severity.ERROR, "mx target yields more than 10 exchanges (permerror)"),
    "SPF019": (Severity.INFO, "mx target publishes a null MX (RFC 7505)"),
    # -- policy hygiene ----------------------------------------------------
    "SPF020": (Severity.WARNING, "terms after 'all' are never evaluated"),
    "SPF021": (Severity.WARNING, "redirect= is ignored when 'all' is present"),
    "SPF022": (Severity.ERROR, "'+all' authorizes the entire Internet"),
    "SPF023": (Severity.WARNING, "terminal '?all' asserts nothing"),
    "SPF024": (Severity.WARNING, "no terminal 'all' or redirect=; unmatched senders are neutral"),
    "SPF025": (Severity.WARNING, "'ptr' is slow and unreliable; RFC 7208 says do not use"),
    "SPF026": (Severity.INFO, "macro target cannot be followed statically"),
    "SPF027": (Severity.INFO, "unknown modifier is ignored by validators"),
    "SPF028": (Severity.INFO, "target outside the audited data; counts are lower bounds"),
    "SPF029": (Severity.INFO, "include chain deeper than the analyzer follows"),
    # -- DMARC / DKIM cross-checks ----------------------------------------
    "DMARC001": (Severity.WARNING, "domain publishes SPF but no DMARC record"),
    "DMARC002": (Severity.WARNING, "p=none monitors but never protects"),
    "DMARC003": (Severity.ERROR, "DMARC record is not parseable"),
    "DMARC004": (Severity.ERROR, "multiple DMARC records (validators ignore all of them)"),
    "DMARC005": (Severity.WARNING, "pct<100 leaves some spoofed mail unfiltered"),
    "DMARC006": (Severity.WARNING, "sp= subdomain policy weaker than p="),
    "DMARC007": (Severity.ERROR, "alignment impossible: neither SPF nor DKIM identity exists"),
    "DMARC008": (Severity.INFO, "unknown DMARC tag is ignored by validators"),
    "DMARC009": (Severity.WARNING, "no DMARC record published"),
    "DMARC010": (Severity.INFO, "no rua= address; aggregate reports go nowhere"),
    # -- DKIM key records and signature headers (repro.lint.dkimlint) ------
    "DKIM001": (Severity.ERROR, "DKIM key record is not parseable"),
    "DKIM002": (Severity.WARNING, "key is revoked (empty p=); signatures can never verify"),
    "DKIM003": (Severity.ERROR, "RSA key shorter than 1024 bits is trivially factorable"),
    "DKIM004": (Severity.WARNING, "RSA key shorter than 2048 bits (RFC 8301 recommends 2048)"),
    "DKIM005": (Severity.ERROR, "rsa-sha1 must not be used for signing or verifying (RFC 8301)"),
    "DKIM006": (Severity.WARNING, "l= signs only part of the body; appended content still passes"),
    "DKIM007": (Severity.INFO, "t=y testing flag: verifiers treat the domain as unsigned"),
    "DKIM008": (Severity.ERROR, "signature expired (x= is in the past)"),
    "DKIM009": (Severity.WARNING, "signature expires soon"),
    "DKIM010": (Severity.ERROR, "x= expiration is not later than t= timestamp"),
    "DKIM011": (Severity.ERROR, "missing required tag"),
    "DKIM012": (Severity.ERROR, "duplicate tag in tag=value list"),
    "DKIM013": (Severity.WARNING, "simple body canonicalization breaks on whitespace changes"),
    "DKIM014": (Severity.ERROR, "i= identity is outside the d= signing domain"),
    "DKIM015": (Severity.WARNING, "selector is not a valid DNS label"),
    "DKIM016": (Severity.INFO, "unknown tag is ignored by verifiers"),
    "DKIM017": (Severity.WARNING, "no usable DKIM key under any probed selector"),
    # -- trace conformance (repro.lint.tracecheck) -------------------------
    "TRACE001": (Severity.ERROR, "query name impossible under the policy's derived DNS footprint"),
    "TRACE002": (Severity.ERROR, "query type not permitted for this name in the policy footprint"),
    "TRACE003": (Severity.ERROR, "timestamp anomaly in the attributed query stream"),
    "TRACE004": (Severity.ERROR, "query under the IPv6-only suffix arrived over IPv4"),
    "TRACE005": (Severity.ERROR, "SPF-walk queries observed without the walk's root TXT fetch"),
    "TRACE006": (Severity.ERROR, "observed footprint exceeds the static worst-case prediction"),
    "TRACE007": (Severity.WARNING, "in-suffix traffic could not be attributed"),
    "TRACE008": (Severity.ERROR, "query attributed to a testid not in the policy catalogue"),
    # -- repository invariants (repro.lint.astcheck) ----------------------
    "AST000": (Severity.ERROR, "file does not parse"),
    "AST001": (Severity.ERROR, "wall-clock read outside net/clock.py breaks determinism"),
    "AST002": (Severity.ERROR, "real socket use outside net/ breaks the simulation boundary"),
    "AST003": (Severity.ERROR, "bare 'except:' swallows control-flow exceptions"),
    "AST004": (Severity.ERROR, "blocking call inside 'async def' stalls the event loop"),
    "AST005": (Severity.WARNING, "mutable default argument is shared across calls"),
    "AST006": (Severity.WARNING, "naive datetime construction has no timezone"),
    "AST007": (Severity.ERROR, "wall_now() escape hatch used outside its sanctioned homes"),
}


@dataclass(frozen=True)
class Span:
    """Half-open character range ``[start, end)`` into a raw record."""

    start: int
    end: int

    def slice(self, text: str) -> str:
        return text[self.start : self.end]


@dataclass
class Diagnostic:
    """One finding of the static auditor."""

    code: str
    message: str
    subject: str = ""  # domain, owner name, or file path
    span: Optional[Span] = None
    hint: Optional[str] = None
    severity: Severity = field(default=Severity.INFO)

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError("unregistered rule code %r" % self.code)
        # The registry's severity is authoritative unless explicitly overridden.
        if self.severity is Severity.INFO and RULES[self.code][0] is not Severity.INFO:
            self.severity = RULES[self.code][0]

    @property
    def title(self) -> str:
        return RULES[self.code][1]

    def format(self) -> str:
        location = self.subject
        if self.span is not None:
            location += "[%d:%d]" % (self.span.start, self.span.end)
        parts = ["%s %s" % (self.code, self.severity.name.lower())]
        if location:
            parts.append(location)
        line = " ".join(parts) + ": " + self.message
        if self.hint:
            line += "  (fix: %s)" % self.hint
        return line

    def to_dict(self) -> dict:
        payload = {
            "code": self.code,
            "severity": self.severity.name.lower(),
            "subject": self.subject,
            "message": self.message,
        }
        if self.span is not None:
            payload["span"] = [self.span.start, self.span.end]
        if self.hint:
            payload["hint"] = self.hint
        return payload


@dataclass
class LintReport:
    """An ordered collection of diagnostics plus rendering helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        message: str,
        subject: str = "",
        span: Optional[Span] = None,
        hint: Optional[str] = None,
    ) -> Diagnostic:
        diagnostic = Diagnostic(code=code, message=message, subject=subject, span=span, hint=hint)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def render_text(self, header: Optional[str] = None) -> str:
        lines: List[str] = []
        if header:
            lines.append(header)
        if not self.diagnostics:
            lines.append("clean: no findings")
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.format())
        if self.diagnostics:
            lines.append(
                "%d error(s), %d warning(s), %d info"
                % (
                    len(self.errors),
                    len(self.warnings),
                    len(self.by_severity(Severity.INFO)),
                )
            )
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "findings": [d.to_dict() for d in self.diagnostics],
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.by_severity(Severity.INFO)),
            },
        }
        return json.dumps(payload, indent=indent, sort_keys=True)
