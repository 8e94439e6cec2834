"""DMARC (RFC 7489).

Policy discovery (``_dmarc.<domain>`` with organizational-domain fallback),
SPF/DKIM identifier alignment in strict and relaxed modes, and disposition
computation — all through the same resolver/virtual-time machinery, so
DMARC validation emits the ``_dmarc.*`` TXT queries the paper counts.
"""

from repro.dmarc.evaluate import DmarcDisposition, DmarcEvaluator, DmarcOutcome, DmarcResult
from repro.dmarc.psl import PublicSuffixList, organizational_domain
from repro.dmarc.record import AlignmentMode, DmarcPolicy, DmarcRecord

__all__ = [
    "AlignmentMode",
    "DmarcDisposition",
    "DmarcEvaluator",
    "DmarcOutcome",
    "DmarcPolicy",
    "DmarcRecord",
    "DmarcResult",
    "PublicSuffixList",
    "organizational_domain",
]
