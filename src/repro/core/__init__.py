"""The paper's measurement system.

Everything specific to "Measuring Email Sender Validation in the Wild"
lives here: the synthetic domain universes (Section 4.1/4.2), the
synthesizing authoritative DNS server (Section 4.5), the SMTP probe
(Section 4.6), the 39 SPF test policies (Section 4.3.2), the three
campaign runners, and the analyses that regenerate every table and figure.
"""

from repro.core import trace
from repro.core.asmap import AsInfo, AsMap
from repro.core.assess import DomainAssessment, assess_domain
from repro.core.compare import PAPER_REFERENCE, Scorecard, build_scorecard
from repro.core.campaign import (
    NotifyEmailCampaign,
    ProbeCampaign,
    Testbed,
)
from repro.core.datasets import (
    DatasetSpec,
    Domain,
    MtaHost,
    Provider,
    Universe,
    generate_universe,
)
from repro.core.fingerprint import BehaviorVector, FingerprintReport, fingerprint_fleet
from repro.core.policies import POLICIES, TestPolicy, policy_by_id
from repro.core.probe import ProbeClient, ProbeResult
from repro.core.querylog import AttributedQuery, QueryIndex, attribute_queries
from repro.core.synth import SynthConfig, SynthesizingAuthority

__all__ = [
    "AsInfo",
    "AsMap",
    "AttributedQuery",
    "BehaviorVector",
    "DatasetSpec",
    "DomainAssessment",
    "FingerprintReport",
    "PAPER_REFERENCE",
    "Scorecard",
    "Domain",
    "MtaHost",
    "NotifyEmailCampaign",
    "POLICIES",
    "ProbeCampaign",
    "ProbeClient",
    "ProbeResult",
    "Provider",
    "QueryIndex",
    "SynthConfig",
    "SynthesizingAuthority",
    "Testbed",
    "TestPolicy",
    "Universe",
    "assess_domain",
    "attribute_queries",
    "build_scorecard",
    "trace",
    "fingerprint_fleet",
    "generate_universe",
    "policy_by_id",
]
