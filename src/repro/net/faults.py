"""Deterministic, seeded fault injection for the virtual network.

The paper's most interesting findings are *failure* behaviours — 1.6% of
resolvers failed TCP fallback, MTAs differ on timeouts, void lookups and
serial-vs-parallel retry — but a perfect simulated network exercises
those code paths only through hand-crafted zones.  A :class:`FaultPlan`
makes failure a first-class, reproducible experiment input: each layer
of the stack consults the plan at well-defined injection points and the
plan answers from a **pure function of (seed, kind, endpoints, virtual
time)** — no RNG stream, no counters — so a decision does not depend on
which other packets were exercised first.  That order-independence is
exactly what lets :mod:`repro.core.parallel` run a faulted campaign over
``--workers N`` and still produce artefacts byte-identical to the serial
run (the same property :class:`~repro.net.latency.UniformLatency` has).

Injection points and their owners:

=================  ====================================================
kind               injected by
=================  ====================================================
``udp_loss``       :meth:`~repro.net.network.Network.udp_request` —
                   the request datagram is dropped before delivery (the
                   server never sees it; callers observe silence until
                   their per-try timeout)
``udp_delay``      :meth:`~repro.net.network.Network.udp_request` —
                   the reply is delayed ``param`` extra seconds
``truncate``       :class:`~repro.dns.server.AuthoritativeServer` — a
                   TC=1 stub is returned over UDP regardless of size;
                   combine with ``tcp_refuse@53`` to model the paper's
                   truncation-without-working-TCP resolvers
``servfail``       :class:`~repro.dns.server.AuthoritativeServer` — the
                   query is answered with rcode SERVFAIL
``refused``        :class:`~repro.dns.server.AuthoritativeServer` — the
                   query is answered with rcode REFUSED
``tcp_refuse``     :meth:`~repro.net.network.Network.connect_tcp` — the
                   SYN is answered with an RST (one RTT later)
``tcp_reset``      :meth:`~repro.net.network.TcpChannel.request` — the
                   established connection is reset mid-conversation,
                   before the request reaches the server
``banner_delay``   :class:`~repro.smtp.server.SmtpSession` — the 220
                   greeting is emitted ``param`` seconds late
``banner_absent``  :class:`~repro.smtp.server.SmtpSession` — the server
                   accepts the connection but never sends a banner
=================  ====================================================

Spec grammar (the ``--faults`` CLI form)::

    spec     := rule ("," rule)*
    rule     := kind ":" probability [":" param] ["@" where]

``param`` is the delay in seconds for ``udp_delay`` / ``banner_delay``
(defaults 7.5 / 30).  ``where`` narrows a rule's blast radius; its
meaning depends on the kind: a destination IP or (all-digits) port for
the network kinds, a query-name suffix for the DNS kinds, a banner-host
suffix for the SMTP kinds.  A JSON array of objects with the same field
names is accepted wherever a spec string is (``FaultPlan.parse`` picks
the format by the leading character).

Example: ``udp_loss:0.2,servfail:0.1,banner_delay:0.3:45`` loses 20% of
UDP datagrams, SERVFAILs 10% of DNS queries, and delays 30% of SMTP
banners by 45 s.

An **empty plan is a guaranteed no-op**: every injection site bails on
``plan is None`` (the default) and a plan with no rules never fires, so
an unfaulted run's artefacts are byte-identical with or without the
subsystem compiled in — asserted by CI's ``faults`` job.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: 2**64 as a float divisor, turning a 64-bit digest into [0, 1).
_HASH_SPAN = float(1 << 64)


def stable_hash64(text: str) -> int:
    """A 64-bit hash of ``text``, stable across processes and runs.

    The same blake2b construction as
    ``repro.core.datasets.stable_hash64`` — duplicated here (like the
    per-path hash in :mod:`repro.net.latency`) because the net layer
    sits below core and must not import it.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class FaultKind(enum.Enum):
    """The fault vocabulary; values double as spec/metric-label names."""

    UDP_LOSS = "udp_loss"
    UDP_DELAY = "udp_delay"
    TRUNCATE = "truncate"
    SERVFAIL = "servfail"
    REFUSED = "refused"
    TCP_REFUSE = "tcp_refuse"
    TCP_RESET = "tcp_reset"
    BANNER_DELAY = "banner_delay"
    BANNER_ABSENT = "banner_absent"


#: Kinds whose ``param`` is a delay in seconds, with their defaults.
_DELAY_DEFAULTS = {FaultKind.UDP_DELAY: 7.5, FaultKind.BANNER_DELAY: 30.0}

_KIND_BY_VALUE = {kind.value: kind for kind in FaultKind}


@dataclass(frozen=True)
class FaultRule:
    """One fault family: a kind, a firing probability, and a scope.

    ``where`` narrows the rule (see the module docstring for its
    kind-dependent meaning); ``param`` carries the delay for the two
    delay kinds and is ignored elsewhere.
    """

    kind: FaultKind
    probability: float
    param: float = 0.0
    where: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                "fault probability must be within [0, 1]: %r" % (self.probability,)
            )
        if self.param < 0:
            raise ValueError("fault param must be non-negative: %r" % (self.param,))

    def matches(self, dst: str, port: Optional[int]) -> bool:
        """Whether this rule's scope covers a ``(dst, port)`` target.

        ``dst`` is whatever identity the injection site keys on (an IP,
        a query name, a banner host); an all-digits ``where`` matches
        the port instead.
        """
        if self.where is None:
            return True
        if self.where.isdigit():
            return port is not None and port == int(self.where)
        return dst == self.where or dst.endswith(self.where)


class FaultPlan:
    """A seeded set of fault rules with pure-function firing decisions.

    Every decision hashes ``(seed, kind, src, dst, t)`` through
    :func:`stable_hash64`, so it is identical in every process that
    evaluates the same event — the property that keeps ``--workers 1``
    and ``--workers 4`` byte-identical.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._by_kind: Dict[FaultKind, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_kind.setdefault(rule.kind, []).append(rule)
        self._metrics = None

    # -- construction ----------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a spec string or a JSON rule array."""
        stripped = text.strip()
        if not stripped:
            return cls((), seed=seed)
        if stripped[0] in "[{":
            return cls.from_json(stripped, seed=seed)
        return cls.from_spec(stripped, seed=seed)

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """``kind:prob[:param][@where]`` rules, comma-separated."""
        rules = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            body, _, where = chunk.partition("@")
            parts = body.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    "fault rule must be kind:prob[:param][@where], got %r" % chunk
                )
            kind = _parse_kind(parts[0])
            try:
                probability = float(parts[1])
                param = float(parts[2]) if len(parts) == 3 else _DELAY_DEFAULTS.get(kind, 0.0)
            except ValueError:
                raise ValueError("bad numeric field in fault rule %r" % chunk) from None
            rules.append(FaultRule(kind, probability, param, where or None))
        return cls(rules, seed=seed)

    @classmethod
    def from_json(cls, text: Union[str, Iterable[dict]], seed: int = 0) -> "FaultPlan":
        """A JSON array of ``{kind, probability, param?, where?}`` objects."""
        data = json.loads(text) if isinstance(text, str) else list(text)
        if not isinstance(data, list):
            raise ValueError("fault JSON must be an array of rule objects")
        rules = []
        for obj in data:
            if not isinstance(obj, dict):
                raise ValueError("fault JSON rules must be objects, got %r" % (obj,))
            unknown = set(obj) - {"kind", "probability", "param", "where"}
            if unknown:
                raise ValueError("unknown fault rule field(s): %s" % sorted(unknown))
            kind = _parse_kind(str(obj["kind"]))
            rules.append(
                FaultRule(
                    kind,
                    float(obj["probability"]),
                    float(obj.get("param", _DELAY_DEFAULTS.get(kind, 0.0))),
                    obj.get("where"),
                )
            )
        return cls(rules, seed=seed)

    # -- wiring ----------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self.rules

    def attach_obs(self, obs) -> None:
        """Route injection tallies into an observability bundle's
        ``faults_injected_total{kind=…}`` counter."""
        self._metrics = obs.metrics

    # -- decisions -------------------------------------------------------

    def fires(
        self, kind: FaultKind, src: str, dst: str, t: float, port: Optional[int] = None
    ) -> Optional[FaultRule]:
        """The rule that fires for this event, if any (without recording).

        The draw is a pure function of ``(seed, kind, src, dst, t)``:
        virtual timestamps are strictly increasing along any one
        conversation and paths are disjoint across conversations, so
        each event gets an independent, reproducible coin flip.
        """
        rules = self._by_kind.get(kind)
        if not rules:
            return None
        for rule in rules:
            if not rule.matches(dst, port):
                continue
            if rule.probability >= 1.0:
                return rule
            draw = (
                stable_hash64(
                    "%d|%s|%s|%s|%r" % (self.seed, kind.value, src, dst, t)
                )
                / _HASH_SPAN
            )
            if draw < rule.probability:
                return rule
        return None

    def inject(
        self, kind: FaultKind, src: str, dst: str, t: float, port: Optional[int] = None
    ) -> Optional[FaultRule]:
        """:meth:`fires`, recording the injection when a rule fires."""
        rule = self.fires(kind, src, dst, t, port)
        if rule is not None:
            self.record(kind, t)
        return rule

    def record(self, kind: FaultKind, t: float) -> None:
        if self._metrics is not None:
            self._metrics.counter("faults_injected_total", (("kind", kind.value),), t=t)

    def __repr__(self) -> str:
        return "FaultPlan(rules=%d, seed=%d)" % (len(self.rules), self.seed)


def _parse_kind(text: str) -> FaultKind:
    kind = _KIND_BY_VALUE.get(text.strip().lower())
    if kind is None:
        raise ValueError(
            "unknown fault kind %r (known: %s)" % (text, ", ".join(sorted(_KIND_BY_VALUE)))
        )
    return kind


def derive_fault_seed(spec: str, master_seed: int) -> int:
    """The plan seed a runner derives from its master seed.

    Hashing the spec in keeps distinct plans decorrelated; hashing the
    master seed in keeps ``--seed`` the single reproducibility knob.
    Every worker process derives the identical value independently.
    """
    return stable_hash64("faultplan|%s|%d" % (spec, master_seed))


def injected_by_kind(metrics) -> Dict[str, int]:
    """A registry's ``faults_injected_total`` counter as ``{kind: count}``
    (see :meth:`FaultPlan.attach_obs`)."""
    return {dict(labels)["kind"]: int(count) for labels, count in metrics.series("faults_injected_total")}
