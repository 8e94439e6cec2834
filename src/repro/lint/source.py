"""Record sources: how the static analyzer sees DNS data.

The analyzer never performs a (simulated or real) DNS round-trip.  It
reads records through a :class:`RecordSource`, which answers "what does
``name``/``rdtype`` hold?" from data it already has — a
:class:`~repro.dns.zone.Zone`, a plain dict, or (in
:mod:`repro.core.preflight`) a test policy's declarative record map.
The exception lives in ``core``: the sender assessor's source
(:mod:`repro.core.assess`) resolves every lookup through a resolver.

A source distinguishes the same outcomes a resolver would, because the
SPF limit math depends on them: FOUND, NODATA and NXDOMAIN (the two void
flavours), and UNKNOWN for names outside the audited data — the honest
answer a zone file cannot give about the rest of the Internet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.dns.name import Name
from repro.dns.rdata import Rdata, RdataType
from repro.dns.zone import LookupStatus, Zone


class SourceStatus(enum.Enum):
    """Outcome of a static lookup."""

    FOUND = "found"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    UNKNOWN = "unknown"


@dataclass
class SourceAnswer:
    """What a record source knows about one (name, type) pair."""

    status: SourceStatus
    records: List[Rdata] = field(default_factory=list)

    def texts(self) -> List[str]:
        return [r.text for r in self.records if r.rdtype == RdataType.TXT]


_UNKNOWN = SourceAnswer(SourceStatus.UNKNOWN)


def _normalize(name: Union[str, Name]) -> Tuple[str, ...]:
    return Name(name).key


class RecordSource:
    """Base class.  Subclasses implement :meth:`fetch`; callers use
    :meth:`lookup`, which adds bounded CNAME chasing on top."""

    #: How many CNAME links :meth:`lookup` follows before giving up.
    max_cname_chain = 8

    def fetch(self, name: Union[str, Name], rdtype: RdataType) -> SourceAnswer:
        raise NotImplementedError

    def lookup(self, name: Union[str, Name], rdtype: RdataType) -> SourceAnswer:
        """Like :meth:`fetch`, but follows CNAMEs the way a resolver would."""
        answer = self.fetch(name, rdtype)
        chain = 0
        while (
            answer.status is SourceStatus.FOUND
            and rdtype != RdataType.CNAME
            and not any(r.rdtype == rdtype for r in answer.records)
            and any(r.rdtype == RdataType.CNAME for r in answer.records)
        ):
            chain += 1
            if chain > self.max_cname_chain:
                return _UNKNOWN
            target = next(r for r in answer.records if r.rdtype == RdataType.CNAME).target
            answer = self.fetch(target, rdtype)
        return answer


class ZoneRecordSource(RecordSource):
    """Reads straight out of a :class:`~repro.dns.zone.Zone`.

    Names outside the zone's origin are UNKNOWN — the zone genuinely has
    no opinion about them — which the analyzer reports as lower-bound
    coverage rather than inventing voids.
    """

    def __init__(self, zone: Zone) -> None:
        self.zone = zone

    def fetch(self, name: Union[str, Name], rdtype: RdataType) -> SourceAnswer:
        owner = Name(name)
        if not owner.is_subdomain_of(self.zone.origin):
            return _UNKNOWN
        status, records = self.zone.lookup(owner, rdtype)
        rdatas = [rr.rdata for rr in records]
        if status is LookupStatus.SUCCESS or status is LookupStatus.CNAME:
            return SourceAnswer(SourceStatus.FOUND, rdatas)
        if status is LookupStatus.NODATA:
            return SourceAnswer(SourceStatus.NODATA)
        return SourceAnswer(SourceStatus.NXDOMAIN)


class DictRecordSource(RecordSource):
    """A source backed by a plain ``{name: [Rdata, ...]}`` mapping.

    Convenient for tests and for auditing ad-hoc record sets that never
    lived in a zone.  Empty non-terminals are registered automatically so
    NODATA/NXDOMAIN come out the same way a zone would report them.
    ``origin`` bounds what the source claims to know: names outside it are
    UNKNOWN (default: knows everything it was given, NXDOMAIN elsewhere).
    """

    def __init__(
        self,
        records: Dict[str, Iterable[Rdata]],
        origin: Optional[Union[str, Name]] = None,
    ) -> None:
        self.origin = Name(origin) if origin is not None else None
        self._records: Dict[Tuple[str, ...], List[Rdata]] = {}
        self._nodes: Set[Tuple[str, ...]] = set()
        for name, rdatas in records.items():
            key = _normalize(name)
            self._records.setdefault(key, []).extend(rdatas)
            node = Name(name)
            while node.key not in self._nodes and len(node.key) > 0:
                self._nodes.add(node.key)
                node = node.parent()

    def fetch(self, name: Union[str, Name], rdtype: RdataType) -> SourceAnswer:
        owner = Name(name)
        if self.origin is not None and not owner.is_subdomain_of(self.origin):
            return _UNKNOWN
        rdatas = self._records.get(owner.key)
        if rdatas:
            matching = [r for r in rdatas if r.rdtype == rdtype]
            if matching:
                return SourceAnswer(SourceStatus.FOUND, matching)
            cname = [r for r in rdatas if r.rdtype == RdataType.CNAME]
            if cname:
                return SourceAnswer(SourceStatus.FOUND, cname)
            return SourceAnswer(SourceStatus.NODATA)
        if owner.key in self._nodes:
            return SourceAnswer(SourceStatus.NODATA)
        return SourceAnswer(SourceStatus.NXDOMAIN)


class EmptySource(RecordSource):
    """Knows nothing; every lookup is UNKNOWN.  Used when auditing a bare
    record text with no surrounding data."""

    def fetch(self, name: Union[str, Name], rdtype: RdataType) -> SourceAnswer:
        return _UNKNOWN
