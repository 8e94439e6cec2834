"""The ``check_host`` evaluator (RFC 7208 section 4 and 5).

The evaluator resolves through a :class:`repro.dns.Resolver`, threading
virtual timestamps so that every DNS query it causes arrives at the
authoritative server at a realistic instant — which is precisely what the
paper's measurement apparatus observes.

``SpfConfig()`` is RFC-strict.  Each deviation the paper reports from wild
MTAs (Section 7) is one knob:

===========================  ====================================================
``max_dns_mechanisms=None``  ignores the 10-lookup limit (28% of MTAs ran all 46)
``max_void_lookups=None``    ignores the void-lookup limit (97% exceeded it)
``max_mx_addresses=None``    ignores the per-``mx`` address limit (64% did 20/20)
``tolerant_syntax=True``     keeps evaluating past syntax errors (5.5%)
``ignore_child_permerror``   treats a child policy's permerror as no-match (12.3%)
``on_multiple_records``      "follow one" instead of permerror (23%)
``parallel_lookups=True``    prefetches referenced lookups (3% of MTAs)
``mx_a_fallback=True``       the illegal A/AAAA retry after a failed MX (14%)
``overall_timeout``          wall-clock cut-off, temperror past it
``fetch_only=True``          retrieves the policy but never evaluates mechanisms
                             (the 3.0% "partial validators" of Section 6.1)
===========================  ====================================================
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.resolver import Answer, Resolver
from repro.obs import Observability, ensure_obs
from repro.spf.errors import SpfSyntaxError
from repro.spf.macros import MacroContext, expand_macros
from repro.spf.parser import parse_record
from repro.spf.result import (
    QUALIFIER_RESULTS,
    DnsLookupRecord,
    SpfCheckOutcome,
    SpfResult,
)
from repro.spf.terms import (
    Directive,
    InvalidTerm,
    Mechanism,
    MechanismKind,
    Modifier,
    SpfRecord,
    looks_like_spf,
)


@lru_cache(maxsize=None)
def _result_labels(result_value: str) -> tuple:
    # The seven SPF results form a closed set; memoizing keeps the
    # per-check hot path from rebuilding the same label tuple.
    return (("result", result_value),)


#: Bound on each memo of parsed address and network literals.
ADDRESS_MEMO_LIMIT = 4096

#: Bound on the memo of parsed SPF records.
RECORD_MEMO_LIMIT = 4096


@lru_cache(maxsize=RECORD_MEMO_LIMIT)
def _parse_record(text: str, tolerant: bool) -> SpfRecord:
    """:func:`parse_record`, memoised by text: validators re-fetch the
    same policies all campaign long.  Records are shared, which is safe
    because the evaluator only reads them and none leaves it; a record
    that fails to parse raises on every call (exceptions are not cached).
    """
    return parse_record(text, tolerant=tolerant)


@lru_cache(maxsize=ADDRESS_MEMO_LIMIT)
def _address_key(text: str) -> Tuple[int, int]:
    """``(version, integer value)`` of an IP address literal."""
    address = ipaddress.ip_address(text)
    return address.version, int(address)


@lru_cache(maxsize=ADDRESS_MEMO_LIMIT)
def _network_key(text: str) -> Tuple[int, int, int]:
    """``(version, network integer, netmask integer)`` of a CIDR literal."""
    network = ipaddress.ip_network(text)
    return network.version, int(network.network_address), int(network.netmask)


@lru_cache(maxsize=None)
def _prefix_mask(version: int, prefix: int) -> int:
    """The netmask integer of a ``/prefix`` in the given IP version."""
    zero = "0.0.0.0" if version == 4 else "::"
    return int(ipaddress.ip_network("%s/%d" % (zero, prefix)).netmask)


@dataclass
class SpfConfig:
    """Behavioural configuration of one evaluator; defaults are RFC-strict."""

    max_dns_mechanisms: Optional[int] = 10
    max_void_lookups: Optional[int] = 2
    max_mx_addresses: Optional[int] = 10
    max_ptr_names: int = 10
    tolerant_syntax: bool = False
    ignore_child_permerror: bool = False
    on_multiple_records: str = "permerror"  # or "first" / "last"
    parallel_lookups: bool = False
    mx_a_fallback: bool = False
    overall_timeout: Optional[float] = None
    max_include_depth: int = 20
    fetch_only: bool = False


class _Abort(Exception):
    """Internal: stop the whole check with a definite result."""

    def __init__(self, result: SpfResult, reason: str, t: float) -> None:
        super().__init__(reason)
        self.result = result
        self.reason = reason
        self.t = t


@dataclass
class _CheckState:
    """Mutable counters shared across the recursive evaluation."""

    config: SpfConfig
    t_start: float
    mechanism_lookups: int = 0
    void_lookups: int = 0
    trace: List[DnsLookupRecord] = field(default_factory=list)
    prefetched: Dict[Tuple[Tuple[str, ...], RdataType], Tuple[Answer, float]] = field(
        default_factory=dict
    )


class SpfEvaluator:
    """Evaluates SPF for (client IP, MAIL FROM domain, sender) triples."""

    #: Buckets for the per-check lookup-count histograms (the paper's
    #: distributions cluster under the RFC's 10-lookup limit but stretch
    #: to 46 for limit-ignoring validators).
    LOOKUP_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0)

    def __init__(
        self,
        resolver: Resolver,
        config: Optional[SpfConfig] = None,
        receiving_host: str = "receiver.invalid",
        obs: Optional[Observability] = None,
    ) -> None:
        self.resolver = resolver
        self.config = config if config is not None else SpfConfig()
        self.receiving_host = receiving_host
        self.obs = ensure_obs(obs)
        self.obs.metrics.declare_histogram("spf_lookups_per_check", self.LOOKUP_BUCKETS)
        self.obs.metrics.declare_histogram("spf_void_lookups_per_check", self.LOOKUP_BUCKETS)

    # -- public API -------------------------------------------------------

    def check_host(
        self,
        client_ip: str,
        domain: str,
        sender: str,
        helo: Optional[str] = None,
        t_start: float = 0.0,
    ) -> SpfCheckOutcome:
        """Run ``check_host`` and return the outcome with timing.

        ``sender`` is the full MAIL FROM address; an empty reverse-path is
        modelled by passing ``postmaster@<helo>`` per RFC 7208 s2.4.
        """
        state = _CheckState(config=self.config, t_start=t_start)
        context = MacroContext(
            sender=sender,
            domain=domain,
            client_ip=client_ip,
            helo=helo if helo is not None else domain,
            receiving_host=self.receiving_host,
        )
        obs = self.obs
        with obs.tracer.span("spf.check_host", t_start, domain=domain, client_ip=client_ip) as span:
            try:
                result, explanation, matched, t_done = self._check(
                    client_ip, domain, context, state, t_start, depth=0
                )
            except _Abort as abort:
                result, explanation, matched, t_done = abort.result, abort.reason, None, abort.t
            span.set(
                result=result.value,
                lookups=state.mechanism_lookups,
                voids=state.void_lookups,
            )
            span.end(t_done)
        obs.metrics.counter("spf_checks_total", _result_labels(result.value), t=t_done)
        obs.metrics.observe("spf_check_seconds", t_done - t_start, t=t_done)
        obs.metrics.observe("spf_lookups_per_check", state.mechanism_lookups, t=t_done)
        obs.metrics.observe("spf_void_lookups_per_check", state.void_lookups, t=t_done)
        return SpfCheckOutcome(
            result=result,
            domain=domain,
            explanation=explanation,
            matched_term=matched,
            mechanism_lookups=state.mechanism_lookups,
            void_lookups=state.void_lookups,
            lookups=state.trace,
            t_started=t_start,
            t_completed=t_done,
        )

    # -- recursive check --------------------------------------------------

    def _check(
        self,
        client_ip: str,
        domain: str,
        context: MacroContext,
        state: _CheckState,
        t: float,
        depth: int,
    ) -> Tuple[SpfResult, Optional[str], Optional[str], float]:
        if depth > self.config.max_include_depth:
            return SpfResult.PERMERROR, "include chain too deep", None, t
        if not _plausible_domain(domain):
            return SpfResult.NONE, None, None, t

        answer, t = self._lookup(state, domain, RdataType.TXT, t, term="(policy)")
        if answer.status.is_error:
            return SpfResult.TEMPERROR, "policy lookup failed", None, t
        spf_texts = [text for text in answer.texts() if looks_like_spf(text)]
        if not spf_texts:
            return SpfResult.NONE, None, None, t
        if len(spf_texts) > 1:
            choice = self.config.on_multiple_records
            if choice == "first":
                spf_texts = spf_texts[:1]
            elif choice == "last":
                spf_texts = spf_texts[-1:]
            else:
                return SpfResult.PERMERROR, "multiple SPF records", None, t

        try:
            record = _parse_record(spf_texts[0], self.config.tolerant_syntax)
        except SpfSyntaxError as exc:
            return SpfResult.PERMERROR, "syntax: %s" % exc, None, t

        if self.config.fetch_only:
            # Partial validators (paper s6.1): the policy is fetched but the
            # mechanisms are never resolved or matched.
            return SpfResult.NEUTRAL, "policy fetched, not evaluated", None, t

        local_context = MacroContext(
            sender=context.sender,
            domain=domain,
            client_ip=client_ip,
            helo=context.helo,
            receiving_host=context.receiving_host,
        )

        if self.config.parallel_lookups:
            self._prefetch(record, local_context, state, t, depth)

        for term in record.terms:
            if isinstance(term, InvalidTerm):
                # Only reachable in tolerant mode; wild validators skip it.
                continue
            if isinstance(term, Modifier):
                continue
            matched, t = self._evaluate_directive(term, client_ip, local_context, state, t, depth)
            if matched is not None:
                result = QUALIFIER_RESULTS[term.qualifier.value]
                explanation = None
                if result is SpfResult.FAIL and depth == 0:
                    explanation, t = self._explanation(record, local_context, state, t)
                return result, explanation, term.to_text(), t

        redirect = record.modifier("redirect")
        if redirect is not None:
            self._count_mechanism_lookup(state, "redirect=%s" % redirect, t)
            try:
                target = expand_macros(redirect, local_context)
            except SpfSyntaxError as exc:
                return SpfResult.PERMERROR, "redirect macro: %s" % exc, None, t
            result, explanation, matched, t = self._check(
                client_ip, target, local_context, state, t, depth + 1
            )
            if result is SpfResult.NONE:
                return SpfResult.PERMERROR, "redirect to domain without policy", None, t
            return result, explanation, matched, t

        return SpfResult.NEUTRAL, None, None, t

    # -- directive evaluation ----------------------------------------------

    def _evaluate_directive(
        self,
        directive: Directive,
        client_ip: str,
        context: MacroContext,
        state: _CheckState,
        t: float,
        depth: int,
    ) -> Tuple[Optional[bool], float]:
        """Returns ``(True, t)`` on match, ``(None, t)`` on no-match."""
        mechanism = directive.mechanism
        kind = mechanism.kind
        term_text = directive.to_text()

        if kind.consumes_dns_lookup:
            self._count_mechanism_lookup(state, term_text, t)

        if kind is MechanismKind.ALL:
            return True, t

        if kind in (MechanismKind.IP4, MechanismKind.IP6):
            return self._match_ip(mechanism, client_ip), t

        target, t = self._target_domain(mechanism, context, state, t)

        if kind is MechanismKind.INCLUDE:
            result, _, _, t = self._check(client_ip, target, context, state, t, depth + 1)
            if result is SpfResult.PASS:
                return True, t
            if result is SpfResult.TEMPERROR:
                raise _Abort(SpfResult.TEMPERROR, "include %s temperror" % target, t)
            if result in (SpfResult.PERMERROR, SpfResult.NONE):
                if self.config.ignore_child_permerror:
                    return None, t
                raise _Abort(SpfResult.PERMERROR, "include %s %s" % (target, result.value), t)
            return None, t

        if kind is MechanismKind.A:
            addresses, t = self._address_set(state, target, client_ip, term_text, t)
            return self._match_addresses(client_ip, addresses, mechanism), t

        if kind is MechanismKind.MX:
            return self._match_mx(mechanism, target, client_ip, state, term_text, t)

        if kind is MechanismKind.EXISTS:
            self._check_void_budget(state, t)
            answer, t = self._lookup(state, target, RdataType.A, t, term=term_text)
            self._note_void(state, answer, t)
            return (True, t) if answer.records else (None, t)

        if kind is MechanismKind.PTR:
            return self._match_ptr(mechanism, target, client_ip, state, term_text, t)

        raise _Abort(SpfResult.PERMERROR, "unhandled mechanism %s" % kind.value, t)

    # Address matching compares integers: each literal is parsed once
    # (memoised), and a candidate matches when it agrees with the client
    # address on every bit of the prefix.

    def _match_ip(self, mechanism: Mechanism, client_ip: str) -> Optional[bool]:
        version, address = _address_key(client_ip)
        network_version, network, mask = _network_key(mechanism.network)
        if version != network_version:
            return None
        return True if address & mask == network else None

    def _match_addresses(
        self, client_ip: str, addresses: List[str], mechanism: Mechanism
    ) -> Optional[bool]:
        version, client = _address_key(client_ip)
        if version == 4:
            prefix = mechanism.cidr4 if mechanism.cidr4 is not None else 32
        else:
            prefix = mechanism.cidr6 if mechanism.cidr6 is not None else 128
        for text in addresses:
            candidate_version, candidate = _address_key(text)
            if candidate_version != version:
                continue
            if (candidate ^ client) & _prefix_mask(version, prefix) == 0:
                return True
        return None

    def _match_mx(
        self,
        mechanism: Mechanism,
        target: str,
        client_ip: str,
        state: _CheckState,
        term_text: str,
        t: float,
    ) -> Tuple[Optional[bool], float]:
        self._check_void_budget(state, t)
        answer, t = self._lookup(state, target, RdataType.MX, t, term=term_text)
        self._note_void(state, answer, t)
        exchanges = [
            rr.rdata for rr in answer.records if rr.rdtype == RdataType.MX
        ]
        if not exchanges:
            if self.config.mx_a_fallback:
                # Spec violation seen in 14% of wild MTAs: fall back to the
                # implicit-MX A/AAAA lookup that RFC 7208 explicitly forbids.
                addresses, t = self._address_set(state, target, client_ip, term_text, t)
                return self._match_addresses(client_ip, addresses, mechanism), t
            return None, t
        exchanges.sort(key=lambda mx: mx.preference)
        limit = self.config.max_mx_addresses
        for index, exchange in enumerate(exchanges):
            if limit is not None and index >= limit:
                raise _Abort(
                    SpfResult.PERMERROR, "more than %d mx address lookups" % limit, t
                )
            addresses, t = self._address_set(
                state, exchange.exchange.to_text(omit_final_dot=True), client_ip, term_text, t
            )
            match = self._match_addresses(client_ip, addresses, mechanism)
            if match:
                return True, t
        return None, t

    def _match_ptr(
        self,
        mechanism: Mechanism,
        target: str,
        client_ip: str,
        state: _CheckState,
        term_text: str,
        t: float,
    ) -> Tuple[Optional[bool], float]:
        reverse_name = _reverse_name(client_ip)
        self._check_void_budget(state, t)
        answer, t = self._lookup(state, reverse_name, RdataType.PTR, t, term=term_text)
        self._note_void(state, answer, t)
        candidates = [
            rr.rdata.target for rr in answer.records if rr.rdtype == RdataType.PTR
        ][: self.config.max_ptr_names]
        target_name = Name(target)
        for candidate in candidates:
            addresses, t = self._address_set(
                state, candidate.to_text(omit_final_dot=True), client_ip, term_text, t
            )
            if client_ip in addresses and candidate.is_subdomain_of(target_name):
                return True, t
        return None, t

    # -- DNS plumbing ------------------------------------------------------

    def _address_set(
        self, state: _CheckState, domain: str, client_ip: str, term: str, t: float
    ) -> Tuple[List[str], float]:
        """A or AAAA addresses of ``domain``, matching the client family."""
        self._check_void_budget(state, t)
        rdtype = RdataType.AAAA if ":" in client_ip else RdataType.A
        answer, t = self._lookup(state, domain, rdtype, t, term=term)
        self._note_void(state, answer, t)
        return answer.addresses(), t

    def _lookup(
        self, state: _CheckState, qname: str, rdtype: RdataType, t: float, term: Optional[str]
    ) -> Tuple[Answer, float]:
        name = Name(qname)
        prefetched = state.prefetched.pop((name.key, rdtype), None)
        if prefetched is not None:
            answer, t_prefetch_done = prefetched
            t_done = max(t, t_prefetch_done)
        else:
            answer, t_done = self.resolver.query_at(name, rdtype, t)
        state.trace.append(
            DnsLookupRecord(
                qname=qname,
                qtype=rdtype.name,
                status=answer.status.value,
                t_issued=t,
                t_completed=t_done,
                term=term,
            )
        )
        self._check_deadline(state, t_done)
        return answer, t_done

    def _prefetch(
        self, record: SpfRecord, context: MacroContext, state: _CheckState, t_policy: float, depth: int
    ) -> None:
        """Issue, in parallel at ``t_policy``, the lookups the record's
        mechanisms reference (the 3%-of-MTAs strategy of Section 7.1)."""
        if depth > self.config.max_include_depth:
            return
        for directive in record.directives:
            mechanism = directive.mechanism
            kind = mechanism.kind
            try:
                target, _ = self._target_domain(mechanism, context, state, t_policy)
            except Exception:
                continue
            if kind is MechanismKind.A:
                rdtype = RdataType.AAAA if ":" in context.client_ip else RdataType.A
                self._prefetch_one(state, target, rdtype, t_policy)
            elif kind is MechanismKind.MX:
                self._prefetch_one(state, target, RdataType.MX, t_policy)
            elif kind is MechanismKind.EXISTS:
                self._prefetch_one(state, target, RdataType.A, t_policy)
            elif kind is MechanismKind.INCLUDE:
                answer, t_done = self._prefetch_one(state, target, RdataType.TXT, t_policy)
                texts = [text for text in answer.texts() if looks_like_spf(text)]
                if len(texts) == 1:
                    try:
                        child = _parse_record(texts[0], True)
                    except SpfSyntaxError:
                        continue
                    child_context = MacroContext(
                        sender=context.sender,
                        domain=target,
                        client_ip=context.client_ip,
                        helo=context.helo,
                        receiving_host=context.receiving_host,
                    )
                    self._prefetch(child, child_context, state, t_done, depth + 1)

    def _prefetch_one(
        self, state: _CheckState, qname: str, rdtype: RdataType, t: float
    ) -> Tuple[Answer, float]:
        name = Name(qname)
        key = (name.key, rdtype)
        if key in state.prefetched:
            return state.prefetched[key]
        answer, t_done = self.resolver.query_at(name, rdtype, t)
        state.prefetched[key] = (answer, t_done)
        return answer, t_done

    def _target_domain(
        self, mechanism: Mechanism, context: MacroContext, state: _CheckState, t: float
    ) -> Tuple[str, float]:
        if mechanism.domain_spec is None:
            return context.domain, t
        try:
            expanded = expand_macros(mechanism.domain_spec, context)
        except SpfSyntaxError as exc:
            raise _Abort(SpfResult.PERMERROR, "macro: %s" % exc, t)
        return expanded, t

    def _count_mechanism_lookup(self, state: _CheckState, term: str, t: float) -> None:
        state.mechanism_lookups += 1
        limit = self.config.max_dns_mechanisms
        if limit is not None and state.mechanism_lookups > limit:
            raise _Abort(
                SpfResult.PERMERROR,
                "more than %d DNS-lookup terms (at %s)" % (limit, term),
                t,
            )

    def _note_void(self, state: _CheckState, answer: Answer, t: float) -> None:
        """Count a void lookup; abort once the budget is exhausted.

        The budget check also runs *before* each target lookup (see
        ``_check_void_budget``), so a compliant validator with the default
        limit of two is observable at the authoritative server as at most
        two void queries — which is how the paper separates the 3%
        compliant from the 97% violators (Section 7.3).
        """
        if not answer.status.is_void:
            return
        state.void_lookups += 1
        limit = self.config.max_void_lookups
        if limit is not None and state.void_lookups > limit:
            raise _Abort(SpfResult.PERMERROR, "more than %d void lookups" % limit, t)

    def _check_void_budget(self, state: _CheckState, t: float) -> None:
        limit = self.config.max_void_lookups
        if limit is not None and state.void_lookups >= limit:
            raise _Abort(SpfResult.PERMERROR, "void lookup budget (%d) exhausted" % limit, t)

    def _check_deadline(self, state: _CheckState, t: float) -> None:
        timeout = self.config.overall_timeout
        if timeout is not None and t - state.t_start > timeout:
            raise _Abort(SpfResult.TEMPERROR, "validation exceeded %.1fs" % timeout, t)

    def _explanation(
        self, record: SpfRecord, context: MacroContext, state: _CheckState, t: float
    ) -> Tuple[Optional[str], float]:
        exp = record.modifier("exp")
        if exp is None:
            return None, t
        try:
            target = expand_macros(exp, context)
        except SpfSyntaxError:
            return None, t
        answer, t = self._lookup(state, target, RdataType.TXT, t, term="exp=")
        texts = answer.texts()
        if len(texts) != 1:
            return None, t
        try:
            return expand_macros(texts[0], context, is_exp=True), t
        except SpfSyntaxError:
            return None, t


def _plausible_domain(domain: str) -> bool:
    """RFC 7208 s4.3 initial-processing sanity check, lightly applied."""
    if not domain or len(domain) > 253:
        return False
    stripped = domain.rstrip(".")
    if not stripped or "." not in stripped:
        return False
    return all(0 < len(label) <= 63 for label in stripped.split("."))


def _reverse_name(client_ip: str) -> str:
    """The in-addr.arpa / ip6.arpa name for ``client_ip``."""
    return ipaddress.ip_address(client_ip).reverse_pointer
