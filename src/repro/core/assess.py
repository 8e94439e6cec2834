"""Sender-deployment assessment (the paper's Section 8 suggestion).

    "An idea for strengthening the methodology would be to make a
    Web-based tool available for comprehensively assessing SPF, DKIM, and
    DMARC and invite users with legitimate addresses to try the tool."

This module is that assessor: point it at a domain (through any resolver
in the simulated world) and it audits the *sender side* of the three
mechanisms — the SPF term graph and the RFC 7208 limits it will cost
validators, each probed DKIM selector's key, and the DMARC record — then
grades the deployment.  Every rule is a :mod:`repro.lint` rule; this
module supplies only a record source that resolves each lookup, so
virtual time advances with every query the audit makes.

Complementary to the measurement system: campaigns measure *validators*,
the assessor audits *publishers*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.dmarc.record import DmarcPolicy, DmarcRecord
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.resolver import AnswerStatus, Resolver
from repro.lint.diagnostics import LintReport
from repro.lint.dkimlint import audit_key_record, key_is_usable
from repro.lint.source import RecordSource, SourceAnswer, SourceStatus
from repro.lint.spfgraph import SpfAudit, audit_spf_domain
from repro.lint.zonelint import _check_dmarc

#: Resolver outcomes as record-source outcomes.  SERVFAIL, TIMEOUT and
#: UNREACHABLE are absent: a failed lookup says nothing about the name.
_SOURCE_STATUS = {
    AnswerStatus.SUCCESS: SourceStatus.FOUND,
    AnswerStatus.NODATA: SourceStatus.NODATA,
    AnswerStatus.NXDOMAIN: SourceStatus.NXDOMAIN,
}


class ResolverRecordSource(RecordSource):
    """A record source that resolves every lookup, starting at time ``t``.

    ``t`` advances to each query's completion; ``last_status`` keeps the
    resolver's verdict on the latest query, so a caller can tell "no
    record" from "lookup failed".
    """

    def __init__(self, resolver: Resolver, t: float) -> None:
        self.resolver = resolver
        self.t = t
        self.last_status: Optional[AnswerStatus] = None

    def fetch(self, name: Union[str, Name], rdtype: RdataType) -> SourceAnswer:
        answer, self.t = self.resolver.query_at(name, rdtype, self.t)
        self.last_status = answer.status
        status = _SOURCE_STATUS.get(answer.status, SourceStatus.UNKNOWN)
        return SourceAnswer(status, [rr.rdata for rr in answer.records])


@dataclass
class DomainAssessment:
    """The full audit of one sender domain."""

    domain: str
    report: LintReport
    spf: Optional[SpfAudit]
    #: Probed selectors that publish a key record, usable or not.
    dkim_selectors: List[str]
    usable_keys: int
    dmarc: Optional[DmarcRecord]

    @property
    def grade(self) -> str:
        """A-F: A = all three deployed cleanly with an enforcing DMARC."""
        has_spf = self.spf is not None and not self.spf.report.errors
        policy = self.dmarc.policy if self.dmarc is not None else None
        deployed = sum([has_spf, self.usable_keys > 0, policy is not None])
        enforcing = policy in (DmarcPolicy.REJECT, DmarcPolicy.QUARANTINE)
        if deployed == 3 and enforcing and not self.report.errors:
            return "A"
        return {3: "B", 2: "C", 1: "D"}.get(deployed, "F")

    def to_text(self) -> str:
        lines = ["Assessment for %s — grade %s" % (self.domain, self.grade)]
        if self.spf is None:
            lines.append("  SPF   : (no record)")
        else:
            lines.append("  SPF   : %s" % self.spf.record_text)
            lines.append(
                "          worst case %d DNS-lookup terms, %d void lookups"
                % (self.spf.prediction.lookup_terms, self.spf.prediction.void_lookups)
            )
        lines.append("  DKIM  : %s" % (", ".join(self.dkim_selectors) or "(no keys found)"))
        lines.append("  DMARC : %s" % (self.dmarc.to_text() if self.dmarc else "(no record)"))
        lines.extend("  %s" % diagnostic.format() for diagnostic in self.report.diagnostics)
        return "\n".join(lines)


#: Selectors the assessor tries when the caller does not supply any —
#: the usual suspects across large mail platforms.
DEFAULT_SELECTORS = ("default", "mail", "selector1", "selector2", "sel", "s1", "dkim", "google", "k1")


def assess_domain(
    resolver: Resolver,
    domain: str,
    t: float = 0.0,
    selectors: Tuple[str, ...] = DEFAULT_SELECTORS,
) -> Tuple[DomainAssessment, float]:
    """Audit ``domain``'s sender-side deployment through ``resolver``."""
    source = ResolverRecordSource(resolver, t)
    report = LintReport()
    spf = audit_spf_domain(domain, source)
    if spf is not None:
        report.extend(spf.report)
    else:
        failed = source.last_status
        report.add(
            "SPF006",
            "no SPF record at %s%s"
            % (domain, " (TXT lookup %s)" % failed.value if failed and failed.is_error else ""),
            subject=domain,
            hint="publish 'v=spf1 ... -all' listing the hosts that send for the domain",
        )

    dkim_selectors: List[str] = []
    usable_keys = 0
    for selector in selectors:
        qname = "%s._domainkey.%s" % (selector, domain)
        texts = source.lookup(qname, RdataType.TXT).texts()
        if not texts:
            continue
        dkim_selectors.append(selector)
        audit_key_record(texts[0], subject=qname, report=report)
        usable_keys += key_is_usable(texts[0])
    if not usable_keys:
        report.add(
            "DKIM017",
            "no usable key under selector(s) %s" % ", ".join(selectors),
            subject=domain,
        )

    owner = Name(domain)
    dmarc = _check_dmarc(
        {owner.key} if usable_keys else set(),
        source,
        owner.child("_dmarc"),
        owner,
        report,
        spf_published=spf is not None,
    )
    assessment = DomainAssessment(
        domain=domain,
        report=report,
        spf=spf,
        dkim_selectors=dkim_selectors,
        usable_keys=usable_keys,
        dmarc=dmarc,
    )
    return assessment, source.t
