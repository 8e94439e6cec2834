"""Whole-zone static auditing.

``audit_zone`` sweeps every TXT rrset in a :class:`~repro.dns.zone.Zone`,
runs the SPF term-graph analysis (:mod:`repro.lint.spfgraph`) on each SPF
publisher with the zone itself as the record source, and cross-checks the
sender-authentication posture the paper measures end to end:

* a domain that publishes SPF but no ``_dmarc`` record gets DMARC001 —
  SPF alone never tells receivers what to do with failures;
* published DMARC records are parsed and checked for the configurations
  that monitor without protecting (``p=none``, ``pct<100``, weak ``sp=``,
  no ``rua=`` to report to) or that can never produce an aligned pass
  (strict alignment with no in-zone identity to align against).

The DMARC check takes any record source, so the sender assessor
(:mod:`repro.core.assess`) runs the same rules over resolved data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.dmarc.record import DmarcPolicy, DmarcRecord, DmarcRecordError, looks_like_dmarc
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.zone import Zone
from repro.lint.diagnostics import LintReport
from repro.lint.dkimlint import audit_zone_dkim
from repro.lint.source import RecordSource, ZoneRecordSource
from repro.lint.spfgraph import SpfAudit, SpfLimits, audit_spf_domain
from repro.spf.terms import looks_like_spf

#: Ordering for "is sp= weaker than p=" (DMARC006).
_POLICY_STRENGTH = {
    DmarcPolicy.NONE: 0,
    DmarcPolicy.QUARANTINE: 1,
    DmarcPolicy.REJECT: 2,
}


@dataclass
class ZoneAudit:
    """Everything the static auditor found in one zone."""

    origin: str
    report: LintReport = field(default_factory=LintReport)
    #: Per-publisher SPF audits, keyed by domain (no trailing dot).
    spf_audits: Dict[str, SpfAudit] = field(default_factory=dict)
    #: Domain name-keys (lowercased label tuples) with a usable DKIM key.
    dkim_domains: Set[tuple] = field(default_factory=set)

    @property
    def clean(self) -> bool:
        return not self.report.errors


def audit_zone(zone: Zone, limits: Optional[SpfLimits] = None) -> ZoneAudit:
    """Statically audit every SPF/DMARC publisher in ``zone``."""
    source = ZoneRecordSource(zone)
    audit = ZoneAudit(origin=zone.origin.to_text(omit_final_dot=True))
    dkim_report, audit.dkim_domains = audit_zone_dkim(zone)
    audit.report.extend(dkim_report)

    spf_publishers: List[Name] = []
    dmarc_owners: List[Name] = []
    for owner, rdtype, records in zone.rrsets():
        if rdtype != RdataType.TXT:
            continue
        if "_domainkey" in (label.lower() for label in owner.labels):
            continue  # audited by audit_zone_dkim above
        texts = [rr.rdata.text for rr in records]
        if owner.labels and owner.labels[0].lower() == "_dmarc":
            if any(looks_like_dmarc(t) for t in texts):
                dmarc_owners.append(owner)
            continue
        if any(looks_like_spf(t) for t in texts):
            spf_publishers.append(owner)

    for owner in spf_publishers:
        domain = owner.to_text(omit_final_dot=True)
        spf_audit = audit_spf_domain(domain, source, limits)
        if spf_audit is None:  # pragma: no cover - publisher list guarantees a record
            continue
        audit.spf_audits[domain] = spf_audit
        audit.report.extend(spf_audit.report)

    checked: set = set()
    for owner in spf_publishers:
        dmarc_name = owner.child("_dmarc")
        checked.add(dmarc_name.key)
        _check_dmarc(audit.dkim_domains, source, dmarc_name, owner, audit.report, spf_published=True)
    # DMARC records whose parent publishes no SPF still deserve a parse check.
    for owner in dmarc_owners:
        if owner.key in checked:
            continue
        _check_dmarc(
            audit.dkim_domains, source, owner, owner.parent(), audit.report, spf_published=False
        )

    return audit


def _check_dmarc(
    dkim_domains: Set[tuple],
    source: RecordSource,
    dmarc_name: Name,
    domain: Name,
    report: LintReport,
    spf_published: bool,
) -> Optional[DmarcRecord]:
    """Audit the DMARC record at ``dmarc_name``; returns it when it parses."""
    subject = domain.to_text(omit_final_dot=True)
    answer = source.lookup(dmarc_name, RdataType.TXT)
    dmarc_texts = [t for t in answer.texts() if looks_like_dmarc(t)]
    hint = "publish at least 'v=DMARC1; p=none' to see failure reports"
    if not dmarc_texts:
        if spf_published:
            report.add(
                "DMARC001",
                "%s publishes SPF but no record at %s" % (subject, dmarc_name),
                subject=subject,
                hint=hint,
            )
        else:
            report.add("DMARC009", "no record at %s" % dmarc_name, subject=subject, hint=hint)
        return None
    if len(dmarc_texts) > 1:
        report.add(
            "DMARC004",
            "%d DMARC records at %s" % (len(dmarc_texts), dmarc_name),
            subject=subject,
            hint="keep exactly one",
        )
        return None
    try:
        record = DmarcRecord.from_text(dmarc_texts[0])
    except DmarcRecordError as exc:
        report.add("DMARC003", str(exc), subject=subject)
        return None
    _check_dmarc_record(dkim_domains, record, domain, subject, report, spf_published)
    return record


def _check_dmarc_record(
    dkim_domains: Set[tuple],
    record: DmarcRecord,
    domain: Name,
    subject: str,
    report: LintReport,
    spf_published: bool,
) -> None:
    if record.policy is DmarcPolicy.NONE:
        report.add(
            "DMARC002",
            "p=none requests no action against spoofed mail",
            subject=subject,
            hint="move to p=quarantine once reports look clean",
        )
    if record.percent < 100:
        report.add(
            "DMARC005",
            "pct=%d applies the policy to a sample only" % record.percent,
            subject=subject,
        )
    if (
        record.subdomain_policy is not None
        and _POLICY_STRENGTH[record.subdomain_policy] < _POLICY_STRENGTH[record.policy]
    ):
        report.add(
            "DMARC006",
            "sp=%s undercuts p=%s for subdomains — the paper's spoofing "
            "target of choice" % (record.subdomain_policy.value, record.policy.value),
            subject=subject,
        )
    if not record.rua:
        report.add(
            "DMARC010",
            "no rua= aggregate-report address; failures go unseen",
            subject=subject,
            hint="add rua=mailto:<address>",
        )
    for tag, value in sorted(record.unknown_tags.items()):
        report.add(
            "DMARC008",
            "unknown tag %s=%s is ignored by validators" % (tag, value),
            subject=subject,
        )
    # Alignment feasibility from zone data alone: an aligned SPF pass needs
    # an SPF record at the domain; an aligned DKIM pass needs a *usable*
    # key under _domainkey.<domain> — parsed by repro.lint.dkimlint, so a
    # name that exists but holds only revoked or undecodable keys no
    # longer counts.  Neither being possible means every message fails
    # DMARC no matter how it is sent.
    dkim_possible = domain.key in dkim_domains
    if not spf_published and not dkim_possible:
        report.add(
            "DMARC007",
            "no SPF record and no usable _domainkey.%s keys: no identity can ever align"
            % subject,
            subject=subject,
            hint="publish SPF or a valid DKIM key for the domain",
        )
