"""Differential trace-conformance checking.

The static analyzer predicts what a policy's DNS footprint *can* look
like; the measurement harness records what validators *actually* query.
This module closes the loop: :func:`build_footprint` derives, from a
test policy's declarative record map alone, every query name and type
any validator could legitimately emit against it, and
:func:`check_index` diffs an observed :class:`~repro.core.querylog.QueryIndex`
against those footprints, per ``(mtaid, testid)`` pair.

The MTA fleet is *deliberately* diverse — the paper's whole point is
that validators disagree, exceed limits, or skip validation entirely —
so the rules here are behavior-universal invariants, not RFC-compliance
checks.  Whatever subset of the footprint a validator chooses to fetch
is fine; a query *outside* the footprint (TRACE001/002), an IPv4 arrival
under the IPv6-only suffix (TRACE004), walk queries with no record fetch
to induce them (TRACE005), or more mechanism roots than the static
worst-case prediction allows (TRACE006) can only mean the harness — or
the attribution pipeline — is broken.  A clean run reports nothing.

Footprint derivation is maximally permissive: every SPF-looking TXT is
walked tolerantly, ``a``/``mx`` targets admit both address families,
CNAME chains are chased, macro targets become wildcard patterns, and
per-base DMARC/DKIM discovery names are always allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclasses_field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.policies import NOTIFY_POLICY, POLICIES, PolicyContext, TestPolicy
from repro.core.preflight import PolicyRecordSource
from repro.core.querylog import AttributedQuery, QueryIndex
from repro.core.synth import SynthConfig
from repro.dns.name import Name
from repro.dns.rdata import CnameRecord, RdataType
from repro.lint.diagnostics import LintReport
from repro.lint.spfgraph import StaticPrediction
from repro.spf.errors import SpfSyntaxError
from repro.spf.parser import parse_record
from repro.spf.terms import MechanismKind, Modifier, looks_like_spf

#: CNAME chains longer than this are abandoned (mirrors the resolver).
_MAX_CNAME_CHAIN = 8

#: A walk name key: (experiment, sublabels).
NameKey = Tuple[str, Tuple[str, ...]]

_ADDR = frozenset((RdataType.A, RdataType.AAAA))


@dataclass(frozen=True)
class NamePattern:
    """One permissible name in a policy's footprint.

    ``labels`` may contain ``"*"`` (one label) or lead with ``"**"``
    (any number of labels, for macro targets); ``concrete`` is True when
    they do not.  ``root`` is the walk this name belongs to — a query
    matching only rooted patterns is legitimate only alongside the
    walk's own root TXT fetch (TRACE005); ``None`` marks always-allowed
    extras (DMARC/DKIM discovery).
    """

    experiment: str  # "probe" | "v6" | "notify"
    labels: Tuple[str, ...]
    qtypes: frozenset
    role: str  # "root" | "mechanism" | "exchange" | "extra" | "helo-*"
    root: Optional[NameKey]
    concrete: bool


def _labels_match(pattern: Tuple[str, ...], sub: Tuple[str, ...]) -> bool:
    """Right-aligned wildcard match, same semantics as the policy maps."""
    if pattern and pattern[0] == "**":
        tail = pattern[1:]
        if len(sub) < len(tail):
            return False
        sub = sub[len(sub) - len(tail) :]
        pattern = tail
    if len(pattern) != len(sub):
        return False
    return all(p == "*" or p == s for p, s in zip(pattern, sub))


class PolicyFootprint:
    """Every query name/type one policy can legitimately induce."""

    def __init__(self, testid: str, patterns: Iterable[NamePattern]) -> None:
        self.testid = testid
        self.patterns: List[NamePattern] = list(patterns)
        self._exact: Dict[NameKey, List[NamePattern]] = {}
        self._wild: List[NamePattern] = []
        for pattern in self.patterns:
            if pattern.concrete:
                self._exact.setdefault((pattern.experiment, pattern.labels), []).append(pattern)
            else:
                self._wild.append(pattern)

    def match(self, experiment: str, sub: Tuple[str, ...]) -> List[NamePattern]:
        """All patterns this (experiment, sublabels) name satisfies."""
        matched = list(self._exact.get((experiment, sub), ()))
        for pattern in self._wild:
            if pattern.experiment == experiment and _labels_match(pattern.labels, sub):
                matched.append(pattern)
        return matched


class _FootprintBuilder:
    """Derives a :class:`PolicyFootprint` by walking the policy's own
    records through the same :class:`PolicyRecordSource` preflight uses."""

    def __init__(self, policy: TestPolicy, config: SynthConfig) -> None:
        self.policy = policy
        self.config = config
        self.ctx = _placeholder_context(policy, config)
        self.source = PolicyRecordSource(policy, self.ctx)
        self._bases: List[Tuple[str, Name]] = []
        if policy.testid == "notify":
            self._bases.append(("notify", Name(self.ctx.base)))
        else:
            self._bases.append(("probe", Name(self.ctx.base)))
            self._bases.append(("v6", Name(self.ctx.v6_base)))
        #: (experiment, labels) -> [qtypes, roles, roots, concrete]
        self._acc: Dict[Tuple[str, Tuple[str, ...]], list] = {}

    # -- accumulation ----------------------------------------------------

    def _classify(self, name: Name) -> Optional[NameKey]:
        for experiment, base in self._bases:
            if name.is_subdomain_of(base):
                sub = tuple(label.lower() for label in name.relativize(base))
                return experiment, sub
        return None

    def _add(
        self,
        key: NameKey,
        qtypes: Iterable[RdataType],
        role: str,
        root: Optional[NameKey],
    ) -> None:
        concrete = not any(label in ("*", "**") or "*" in label for label in key[1])
        entry = self._acc.setdefault(key, [set(), set(), set(), concrete])
        entry[0].update(qtypes)
        entry[1].add(role)
        entry[2].add(root)

    # -- record access ---------------------------------------------------

    def _chase(
        self, name: Name, qtype: RdataType, role: str, root: Optional[NameKey]
    ) -> List:
        """Fetch ``qtype`` at ``name``, registering every CNAME-chain hop
        (each is a name the stub re-queries); returns final records."""
        for _ in range(_MAX_CNAME_CHAIN):
            key = self._classify(name)
            if key is None:
                return []
            self._add(key, (qtype,), role, root)
            answer = self.source.fetch(name, qtype)
            records = [r for r in answer.records if r.rdtype == qtype]
            if records:
                return records
            cnames = [r for r in answer.records if isinstance(r, CnameRecord)]
            if not cnames:
                return []
            name = Name(cnames[0].target)
        return []

    def _spf_texts(self, name: Name, role: str, root: Optional[NameKey]) -> List[str]:
        records = self._chase(name, RdataType.TXT, role, root)
        return [r.text for r in records if looks_like_spf(r.text)]

    # -- the walk --------------------------------------------------------

    def build(self) -> PolicyFootprint:
        experiment = self._bases[0][0]
        main_root: NameKey = (experiment, ())
        self._walk(Name(self.ctx.base), main_root, prefix="")
        if self.ctx.helo_base:
            helo_root = self._classify(Name(self.ctx.helo_base))
            if helo_root is not None:
                self._walk(Name(self.ctx.helo_base), helo_root, prefix="helo-")
        # DMARC and DKIM discovery: receivers of the notify mail (and any
        # validator curious about a probe identity) may look these up with
        # no SPF walk to anchor them.
        for _, base in self._bases:
            for labels, qtypes in ((("_dmarc",), (RdataType.TXT,)), (("*", "_domainkey"), (RdataType.TXT,))):
                key = self._classify(base)
                assert key is not None
                self._add((key[0], labels + key[1]), qtypes, "extra", None)
        patterns = [
            NamePattern(
                experiment=key[0],
                labels=key[1],
                qtypes=frozenset(entry[0]),
                role=min(entry[1]),  # deterministic representative
                root=next((r for r in sorted(entry[2], key=repr) if r is not None), None)
                if entry[2] != {None}
                else None,
                concrete=entry[3],
            )
            for key, entry in sorted(self._acc.items())
        ]
        return PolicyFootprint(self.policy.testid, patterns)

    def _walk(self, start: Name, root: NameKey, prefix: str) -> None:
        visited: Set[Tuple[str, ...]] = set()
        stack = [(start, prefix + "root")]
        while stack:
            name, role = stack.pop()
            if name.key in visited:
                continue
            visited.add(name.key)
            for text in self._spf_texts(name, role, root):
                try:
                    record = parse_record(text, tolerant=True)
                except SpfSyntaxError:
                    continue
                for directive in record.directives:
                    self._walk_directive(name, directive, root, prefix, stack)
                for term in record.terms:
                    if isinstance(term, Modifier) and term.name in ("redirect", "exp"):
                        target = self._target(name, term.value, root, prefix, term.name)
                        if term.name == "redirect" and target is not None:
                            stack.append((target, prefix + "mechanism"))

    def _walk_directive(self, name: Name, directive, root, prefix, stack) -> None:
        mechanism = directive.mechanism
        kind = mechanism.kind
        if kind in (MechanismKind.ALL, MechanismKind.IP4, MechanismKind.IP6, MechanismKind.PTR):
            return  # ptr walks the sender's reverse tree: out of suffix
        spec = mechanism.domain_spec
        if kind is MechanismKind.INCLUDE:
            target = self._target(name, spec, root, prefix, "include")
            if target is not None:
                stack.append((target, prefix + "mechanism"))
            return
        if kind is MechanismKind.EXISTS:
            self._target(name, spec, root, prefix, "exists")
            return
        target = Name(spec) if spec else name
        if kind is MechanismKind.A:
            key = self._classify(target)
            if spec and "%" in spec:
                self._macro(spec, _ADDR, root, prefix)
            elif key is not None:
                self._add(key, _ADDR, prefix + "mechanism", root)
        elif kind is MechanismKind.MX:
            if spec and "%" in spec:
                self._macro(spec, _ADDR | {RdataType.MX}, root, prefix)
                return
            key = self._classify(target)
            if key is None:
                return
            # Target gets MX plus both address types: some validators
            # fall back to the implicit-MX A lookup when no MX exists.
            self._add(key, _ADDR | {RdataType.MX}, prefix + "mechanism", root)
            for rec in self._chase(target, RdataType.MX, prefix + "mechanism", root):
                exchange_key = self._classify(Name(rec.exchange))
                if exchange_key is not None:
                    self._add(exchange_key, _ADDR, prefix + "exchange", root)

    def _target(
        self, name: Name, spec: Optional[str], root, prefix: str, what: str
    ) -> Optional[Name]:
        """Register a TXT-bearing target (include/redirect/exp/exists)."""
        if spec is None or not spec:
            return None
        qtypes = (RdataType.A,) if what == "exists" else (RdataType.TXT,)
        role = prefix + ("extra" if what == "exp" else "mechanism")
        if "%" in spec:
            self._macro(spec, qtypes, root, prefix, role=role)
            return None
        target = Name(spec)
        key = self._classify(target)
        if key is None:
            return None
        self._add(key, qtypes, role, root)
        return target if what in ("include", "redirect") else None

    def _macro(
        self,
        spec: str,
        qtypes: Iterable[RdataType],
        root,
        prefix: str,
        role: Optional[str] = None,
    ) -> None:
        """A macro target expands per-message: admit any labels in front
        of the static tail that follows the last macro-bearing label."""
        labels = spec.rstrip(".").split(".")
        last_macro = max(i for i, label in enumerate(labels) if "%" in label)
        tail = ".".join(labels[last_macro + 1 :])
        if not tail:
            return
        key = self._classify(Name(tail))
        if key is None:
            return
        self._add((key[0], ("**",) + key[1]), qtypes, role or (prefix + "mechanism"), root)


def _placeholder_context(policy: TestPolicy, config: SynthConfig) -> PolicyContext:
    """The context :meth:`SynthesizingAuthority._parse` would build, with a
    placeholder MTA identity (footprints are identical across MTAs)."""
    if policy.testid == "notify":
        return PolicyContext(
            base="d0.%s" % config.notify_suffix,
            mtaid="d0",
            testid="notify",
            probe_ipv4=config.probe_ipv4,
            probe_ipv6=config.probe_ipv6,
            valid_sender_ips=config.sender_ips,
            dkim_key_b64=config.dkim_key(),
        )
    base = "%s.mta0.%s" % (policy.testid, config.probe_suffix)
    return PolicyContext(
        base=base,
        mtaid="mta0",
        testid=policy.testid,
        v6_base="%s.mta0.%s" % (policy.testid, config.v6_suffix),
        helo_base="h.%s" % base,
        probe_ipv4=config.probe_ipv4,
        probe_ipv6=config.probe_ipv6,
        valid_sender_ips=config.sender_ips,
    )


def build_footprint(policy: TestPolicy, config: Optional[SynthConfig] = None) -> PolicyFootprint:
    """Derive the full permissible footprint of one test policy."""
    if config is None:
        config = SynthConfig()
    return _FootprintBuilder(policy, config).build()


# -- the checker ---------------------------------------------------------


@dataclass
class TraceCheckResult:
    """Outcome of one differential conformance pass."""

    report: LintReport = dataclasses_field(default_factory=LintReport)
    pairs_checked: int = 0
    queries_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.report.diagnostics


def check_index(
    index: QueryIndex,
    policies: Optional[Iterable[TestPolicy]] = None,
    config: Optional[SynthConfig] = None,
    predictions: Optional[Dict[str, StaticPrediction]] = None,
) -> TraceCheckResult:
    """Diff every attributed query stream against its policy footprint.

    The stats of the attribution that built ``index``
    (:attr:`~repro.core.querylog.QueryIndex.stats`, carried by every
    index an attribution builds) enable the unattributable-traffic
    check; ``predictions`` (testid ->
    :class:`~repro.lint.spfgraph.StaticPrediction`, e.g. from preflight)
    enables the footprint-vs-prediction bound.  On output from an intact
    harness every rule is silent — each one firing means a layer between
    the policy catalogue and the query log disagrees with the others.
    """
    if config is None:
        config = SynthConfig()
    catalogue = {p.testid: p for p in (policies if policies is not None else list(POLICIES) + [NOTIFY_POLICY])}
    footprints: Dict[str, PolicyFootprint] = {}
    result = TraceCheckResult()
    report = result.report

    stats = index.stats
    if stats is not None and stats.dropped_short:
        report.add(
            "TRACE007",
            "%d in-suffix quer%s could not be attributed to any (mtaid, testid)"
            % (stats.dropped_short, "y" if stats.dropped_short == 1 else "ies"),
            subject=config.probe_suffix,
            hint="inspect AttributionStats.short_entries",
        )

    for mtaid, testid in sorted(index.pairs()):
        result.pairs_checked += 1
        subject = "%s/%s" % (mtaid, testid)
        queries = index.for_pair(mtaid, testid)
        policy = catalogue.get(testid)
        if policy is None:
            report.add(
                "TRACE008",
                "%d quer%s attributed to unknown testid %r"
                % (len(queries), "y" if len(queries) == 1 else "ies", testid),
                subject=subject,
            )
            result.queries_checked += len(queries)
            continue
        if testid not in footprints:
            footprints[testid] = build_footprint(policy, config)
        _check_pair(footprints[testid], queries, subject, report, result)
        _check_prediction(
            footprints[testid], queries, subject, report, predictions, testid
        )
    return result


def _check_pair(
    footprint: PolicyFootprint,
    queries: List[AttributedQuery],
    subject: str,
    report: LintReport,
    result: TraceCheckResult,
) -> None:
    seen: Set[Tuple[str, Tuple[str, ...], RdataType]] = set()
    for query in queries:
        seen.add((query.experiment, query.sub, query.qtype))
    previous = None
    for query in queries:
        result.queries_checked += 1
        qname = query.entry.qname.to_text(omit_final_dot=True)
        timestamp = query.timestamp
        if not math.isfinite(timestamp) or timestamp < 0:
            report.add(
                "TRACE003",
                "query for %s carries timestamp %r" % (qname, timestamp),
                subject=subject,
            )
        elif previous is not None and timestamp < previous:
            report.add(
                "TRACE003",
                "query for %s at %.3f precedes the previous query at %.3f "
                "in an index stream contracted to be time-ordered"
                % (qname, timestamp, previous),
                subject=subject,
            )
        if math.isfinite(timestamp):
            previous = timestamp
        if query.experiment == "v6" and not query.over_ipv6:
            report.add(
                "TRACE004",
                "query for %s under the IPv6-only suffix arrived from %s over IPv4"
                % (qname, query.entry.client_ip),
                subject=subject,
                hint="the v6 suffix must be delegated to the IPv6 address only",
            )
        matched = footprint.match(query.experiment, query.sub)
        if not matched:
            report.add(
                "TRACE001",
                "no name in the %s footprint admits the %s query for %s"
                % (footprint.testid, query.qtype.name, qname),
                subject=subject,
            )
            continue
        permitted = frozenset().union(*(p.qtypes for p in matched))
        if query.qtype not in permitted:
            report.add(
                "TRACE002",
                "%s query for %s; the footprint permits only %s here"
                % (
                    query.qtype.name,
                    qname,
                    "/".join(sorted(t.name for t in permitted)) or "nothing",
                ),
                subject=subject,
            )
            continue
        roots = [p.root for p in matched]
        if all(
            root is not None
            and root != (query.experiment, query.sub)
            and (root[0], root[1], RdataType.TXT) not in seen
            for root in roots
        ):
            missing = sorted({".".join(root[1]) or "<base>" for root in roots if root})
            report.add(
                "TRACE005",
                "walk query for %s observed without the walk's root TXT fetch (%s)"
                % (qname, ", ".join(missing)),
                subject=subject,
                hint="a validator cannot follow a record it never fetched",
            )


def _check_prediction(
    footprint: PolicyFootprint,
    queries: List[AttributedQuery],
    subject: str,
    report: LintReport,
    predictions: Optional[Dict[str, StaticPrediction]],
    testid: str,
) -> None:
    if not predictions or testid not in predictions:
        return
    prediction = predictions[testid]
    if not prediction.complete or prediction.first_abort is not None:
        return  # the bound only holds when the static walk saw everything
    roots: Set[NameKey] = set()
    for query in queries:
        for pattern in footprint.match(query.experiment, query.sub):
            if pattern.concrete and pattern.role == "mechanism":
                roots.add((query.experiment, query.sub))
    if len(roots) > prediction.lookup_terms:
        report.add(
            "TRACE006",
            "%d distinct mechanism targets observed; the static prediction "
            "bounds the policy at %d lookup term(s)"
            % (len(roots), prediction.lookup_terms),
            subject=subject,
            hint="the deployed policy diverged from the audited catalogue",
        )
