"""Zone storage.

A :class:`Zone` maps owner names to record sets under one origin.  Lookup
distinguishes the three outcomes an SPF evaluator must tell apart:

* records found,
* NODATA (name exists, no records of the queried type), and
* NXDOMAIN (name does not exist) — these last two are both "void lookups"
  in RFC 7208 terms but are signalled differently on the wire.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.dns.name import Name
from repro.dns.rdata import Rdata, RdataType, ResourceRecord, SoaRecord


class LookupStatus(enum.Enum):
    """Outcome of a zone lookup."""

    SUCCESS = "success"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    CNAME = "cname"


class Zone:
    """All records under one origin name.

    Records added outside the origin are rejected; that catch has saved
    every test-policy author at least once.
    """

    def __init__(self, origin: Union[str, Name], soa: Optional[SoaRecord] = None, default_ttl: int = 300) -> None:
        self.origin = Name(origin)
        self.default_ttl = int(default_ttl)
        self._records: Dict[Tuple[Tuple[str, ...], RdataType], List[ResourceRecord]] = {}
        self._nodes: set = {self.origin.key}
        if soa is not None:
            self.add(self.origin, soa)

    # -- building -----------------------------------------------------

    def add(self, name: Union[str, Name], rdata: Rdata, ttl: Optional[int] = None) -> ResourceRecord:
        """Add one record; returns the stored :class:`ResourceRecord`."""
        owner = Name(name)
        if not owner.is_subdomain_of(self.origin):
            raise ValueError("%s is outside zone %s" % (owner, self.origin))
        rr = ResourceRecord(owner, self.default_ttl if ttl is None else ttl, rdata)
        self._records.setdefault((owner.key, rdata.rdtype), []).append(rr)
        # Register the node and every empty non-terminal above it.
        node = owner
        while node.key not in self._nodes:
            self._nodes.add(node.key)
            node = node.parent()
        return rr

    def remove(self, name: Union[str, Name], rdtype: RdataType) -> None:
        """Remove an entire rrset (no-op if absent)."""
        self._records.pop((Name(name).key, rdtype), None)

    # -- lookup --------------------------------------------------------

    def lookup(self, name: Union[str, Name], rdtype: RdataType) -> Tuple[LookupStatus, List[ResourceRecord]]:
        """Resolve ``name``/``rdtype`` within the zone.

        Returns ``(status, records)``.  For ``CNAME`` status the records are
        the CNAME rrset (callers chase the target themselves).
        """
        owner = Name(name)
        if not owner.is_subdomain_of(self.origin):
            return LookupStatus.NXDOMAIN, []
        records = self._records.get((owner.key, rdtype))
        if records:
            return LookupStatus.SUCCESS, list(records)
        if rdtype != RdataType.CNAME:
            cname = self._records.get((owner.key, RdataType.CNAME))
            if cname:
                return LookupStatus.CNAME, list(cname)
        if owner.key in self._nodes:
            return LookupStatus.NODATA, []
        return LookupStatus.NXDOMAIN, []

    def rrsets(self) -> Iterable[Tuple[Name, RdataType, List[ResourceRecord]]]:
        """Iterate every rrset as ``(owner, rdtype, records)``.

        Order is deterministic (hierarchical owner order, then rdtype), so
        auditors and serializers built on it produce stable output.
        """
        items = sorted(
            self._records.items(),
            key=lambda item: (tuple(reversed(item[0][0])), item[0][1].value),
        )
        for (_, rdtype), records in items:
            yield records[0].name, rdtype, list(records)

    @property
    def soa(self) -> Optional[ResourceRecord]:
        records = self._records.get((self.origin.key, RdataType.SOA))
        return records[0] if records else None

    def record_count(self) -> int:
        return sum(len(records) for records in self._records.values())

    def __repr__(self) -> str:
        return "Zone(%s, %d records)" % (self.origin, self.record_count())
