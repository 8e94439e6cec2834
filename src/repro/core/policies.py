"""The SPF test policies (paper Section 4.3.2).

The paper built 39 test policies, each probing one validation behaviour,
and documents roughly a dozen of them.  Every documented policy is
implemented here faithfully (with its paper section noted); the remainder
are adjacent probes — clearly labelled ``documented=False`` — so that the
harness genuinely carries 39 distinct ``testid``\\ s, as the original did.

A policy answers DNS queries for names of the form::

    [<sublabels>...].<testid>.<mtaid>.spf-test.dns-lab.org

given only the relative ``sublabels`` — the synthesizing server supplies a
:class:`PolicyContext` carrying the absolute base name.  Responses are
declarative: a mapping from sublabel patterns to records, plus per-label
delays and truncation flags.  ``{base}``, ``{v6base}`` and ``{helo}``
placeholders are expanded at synthesis time, which is how a single policy
definition serves every MTA with unique, attributable names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dns.rdata import (
    AAAARecord,
    ARecord,
    CnameRecord,
    MxRecord,
    Rdata,
    RdataType,
    TxtRecord,
)

#: Address the probe policies authorize — deliberately NOT the probe's
#: address, so every probe-side validation fails (the paper's
#: "designed-to-fail" requirement).
UNAFFILIATED_IP = "192.0.2.1"


@dataclass
class PolicyContext:
    """Everything a policy needs to synthesize absolute records."""

    base: str  # <testid>.<mtaid>.<suffix>  (no trailing dot)
    mtaid: str
    testid: str
    v6_base: str = ""  # same labels under the IPv6-only suffix
    helo_base: str = ""  # the HELO identity the probe announces
    probe_ipv4: str = "203.0.113.250"
    probe_ipv6: str = "2001:db8:fe::250"
    #: For NotifyEmail-style policies: addresses that SHOULD validate.
    valid_sender_ips: Sequence[str] = ()
    dkim_key_b64: str = ""

    def expand(self, template: str) -> str:
        return (
            template.replace("{base}", self.base)
            .replace("{v6base}", self.v6_base)
            .replace("{helo}", self.helo_base)
            .replace("{probe4}", self.probe_ipv4)
        )


@dataclass
class SynthResponse:
    """What the server should answer for one (name, type) query."""

    records: List[Rdata] = field(default_factory=list)
    nxdomain: bool = False
    delay: float = 0.0
    force_tcp: bool = False


#: Record spec: (rdtype name, value).  TXT: text; A/AAAA: address;
#: MX: "pref exchange"; CNAME: target.  Values may use placeholders.
RecordSpec = Tuple[str, str]


def _build_rdata(spec: RecordSpec, ctx: PolicyContext) -> Rdata:
    rtype, value = spec
    value = ctx.expand(value)
    if rtype == "TXT":
        return TxtRecord(value)
    if rtype == "A":
        return ARecord(value)
    if rtype == "AAAA":
        return AAAARecord(value)
    if rtype == "MX":
        preference, _, exchange = value.partition(" ")
        return MxRecord(int(preference), exchange)
    if rtype == "CNAME":
        return CnameRecord(value)
    raise ValueError("unknown record spec type %r" % rtype)


class TestPolicy:
    """Base class: a declarative name->records map with per-name options.

    ``records`` maps sublabel patterns to record-spec lists.  A pattern is
    a tuple of labels matched right-aligned against the query's sublabels;
    ``"*"`` matches exactly one label and a leading ``"**"`` matches any
    number (including zero).  The empty tuple is the policy's own name
    (where the L0 TXT lives).
    """

    __test__ = False  # not a pytest test class, despite the name
    documented = False
    section = ""

    def __init__(
        self,
        testid: str,
        name: str,
        description: str,
        records: Dict[Tuple[str, ...], List[RecordSpec]],
        delays: Optional[Dict[str, float]] = None,
        force_tcp_labels: Sequence[str] = (),
        documented: bool = False,
        section: str = "",
    ) -> None:
        self.testid = testid
        self.name = name
        self.description = description
        self.records = records
        self.delays = delays or {}
        self.force_tcp_labels = frozenset(force_tcp_labels)
        self.documented = documented
        self.section = section

    # -- resolution ------------------------------------------------------

    def delay_for(self, sub: Tuple[str, ...]) -> float:
        """The server-side delay of every answer under ``sub``: set by
        its first sublabel ('' for the base name), whatever the type."""
        return self.delays.get(sub[0] if sub else "", 0.0)

    def force_tcp_for(self, sub: Tuple[str, ...]) -> bool:
        """Whether UDP queries under ``sub`` get a truncated answer."""
        return (sub[0] if sub else "") in self.force_tcp_labels

    def respond(self, sub: Tuple[str, ...], qtype: RdataType, ctx: PolicyContext) -> SynthResponse:
        specs = self._match(sub)
        response = SynthResponse(delay=self.delay_for(sub), force_tcp=self.force_tcp_for(sub))
        if specs is None:
            response.nxdomain = True
            return response
        for spec in specs:
            rdata = _build_rdata(spec, ctx)
            if rdata.rdtype == qtype or (
                qtype == RdataType.CNAME and rdata.rdtype == RdataType.CNAME
            ):
                response.records.append(rdata)
            elif rdata.rdtype == RdataType.CNAME:
                # CNAMEs apply to any query type.
                response.records.append(rdata)
        return response

    def _match(self, sub: Tuple[str, ...]) -> Optional[List[RecordSpec]]:
        exact = self.records.get(sub)
        if exact is not None:
            return exact
        for pattern, specs in self.records.items():
            if _pattern_matches(pattern, sub):
                return specs
        return None

    def __repr__(self) -> str:
        return "TestPolicy(%s, %s)" % (self.testid, self.name)


def _pattern_matches(pattern: Tuple[str, ...], sub: Tuple[str, ...]) -> bool:
    if "*" not in pattern and "**" not in pattern:
        return False
    if pattern and pattern[0] == "**":
        tail = pattern[1:]
        if len(sub) < len(tail):
            return False
        candidate = sub[len(sub) - len(tail) :]
        return all(p == "*" or p == c for p, c in zip(tail, candidate))
    if len(pattern) != len(sub):
        return False
    return all(p == "*" or p == c for p, c in zip(pattern, sub))


# -- the catalogue -------------------------------------------------------


#: Figure 4 tree shape: 6 branches hanging off L0, each an include chain
#: of 5 levels (L1..L5); branches 1-4 additionally carry one 'a' term at
#: levels 1-4.  Totals: 30 include mechanisms, 16 address lookups — the
#: paper's 46 post-base queries, within the paper's 5 policy levels.
T02_BRANCHES = 6
T02_LEVELS = 5
T02_A_BRANCHES = 4  # branches that carry 'a' terms
T02_A_LEVELS = 4  # levels 1..4 of those branches carry one 'a' each


def _chain_records() -> Dict[Tuple[str, ...], List[RecordSpec]]:
    """The Figure 4 lookup-limit tree.

    Names: ``b<i>l<j>`` is the branch-*i* policy at level *j*;
    ``b<i>a<j>`` is the (resolvable) 'a' target referenced from it.
    Every child policy ends in ``?all``, so a serial evaluator descends
    the include chain first and resolves the 'a' terms while unwinding.
    """
    records: Dict[Tuple[str, ...], List[RecordSpec]] = {}
    l0_terms = " ".join("include:b%dl1.{base}" % branch for branch in range(1, T02_BRANCHES + 1))
    records[()] = [("TXT", "v=spf1 %s ?all" % l0_terms)]
    for branch in range(1, T02_BRANCHES + 1):
        carries_a = branch <= T02_A_BRANCHES
        for level in range(1, T02_LEVELS + 1):
            terms = []
            if level < T02_LEVELS:
                terms.append("include:b%dl%d.{base}" % (branch, level + 1))
            if carries_a and level <= T02_A_LEVELS:
                terms.append("a:b%da%d.{base}" % (branch, level))
                records[("b%da%d" % (branch, level),)] = [
                    ("A", "192.0.2.%d" % (10 + branch * 10 + level))
                ]
            records[("b%dl%d" % (branch, level),)] = [
                ("TXT", "v=spf1 %s ?all" % " ".join(terms) if terms else "v=spf1 ?all")
            ]
    return records


def t02_query_order() -> Dict[str, int]:
    """Serial (depth-first) arrival order of the 46 post-base queries."""
    order: Dict[str, int] = {}
    position = 0
    for branch in range(1, T02_BRANCHES + 1):
        carries_a = branch <= T02_A_BRANCHES
        for level in range(1, T02_LEVELS + 1):  # descend the include chain
            position += 1
            order["b%dl%d" % (branch, level)] = position
        if carries_a:
            for level in range(T02_A_LEVELS, 0, -1):  # unwind the 'a' terms
                position += 1
                order["b%da%d" % (branch, level)] = position
    assert position == 46
    return order


def _deep_chain(levels: int) -> Dict[Tuple[str, ...], List[RecordSpec]]:
    records: Dict[Tuple[str, ...], List[RecordSpec]] = {
        (): [("TXT", "v=spf1 include:n1.{base} ?all")]
    }
    for index in range(1, levels + 1):
        body = "include:n%d.{base} ?all" % (index + 1) if index < levels else "?all"
        records[("n%d" % index,)] = [("TXT", "v=spf1 %s" % body)]
    return records


def build_policies() -> List[TestPolicy]:
    """Construct the full 39-policy catalogue."""
    policies: List[TestPolicy] = []
    add = policies.append

    # ---- documented policies -------------------------------------------

    add(TestPolicy(
        "t01", "serial_parallel",
        "Figure 3 policy: include chain L1..L3 (100 ms server delays on L1 "
        "and L2) plus an 'a' mechanism; the arrival order of the A query "
        "relative to the L3 TXT query separates serial from parallel "
        "validators.",
        {
            (): [("TXT", "v=spf1 include:l1.{base} a:foo.{base} -all")],
            ("l1",): [("TXT", "v=spf1 include:l2.{base} ?all")],
            ("l2",): [("TXT", "v=spf1 include:l3.{base} ?all")],
            ("l3",): [("TXT", "v=spf1 ?all")],
            ("foo",): [("A", UNAFFILIATED_IP)],
        },
        delays={"l1": 0.1, "l2": 0.1},
        documented=True, section="7.1",
    ))

    add(TestPolicy(
        "t02", "lookup_limits",
        "Figure 4 policy: 30 include mechanisms and 16 address lookups "
        "(46 post-base queries across 5 policy levels), 800 ms delay on "
        "every response, so the last query name reveals how many lookups "
        "a validator performed and a lower bound on how long it kept "
        "going.",
        _chain_records(),
        delays={name: 0.8 for name in t02_query_order()},
        documented=True, section="7.2",
    ))

    add(TestPolicy(
        "t03", "helo_policy",
        "A reject-all policy published for the probe's HELO identity; "
        "validators that pre-check HELO (5.0% observed) query it, and all "
        "of them then proceed to the MAIL domain anyway.",
        {
            (): [("TXT", "v=spf1 -all")],
            # The probe announces HELO as h.<testid>.<mtaid>.<suffix>, so a
            # HELO-checking validator's TXT query arrives with sub=("h",).
            ("h",): [("TXT", "v=spf1 -all")],
        },
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t04", "syntax_error_main",
        "Main policy contains 'ipv4:' (misspelled mechanism); compliant "
        "validators permerror immediately, tolerant ones (5.5% observed) "
        "keep going and betray themselves by querying the 'a' target to "
        "the right of the error.",
        {
            (): [("TXT", "v=spf1 ipv4:192.0.2.1 a:after.{base} -all")],
            ("after",): [("A", UNAFFILIATED_IP)],
        },
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t05", "syntax_error_child",
        "Syntax error inside an included (child) policy; validators that "
        "keep evaluating the parent (12.3% observed) query the 'a' target "
        "after the include.",
        {
            (): [("TXT", "v=spf1 include:l1.{base} a:after.{base} -all")],
            ("l1",): [("TXT", "v=spf1 ipv4:192.0.2.1 -all")],
            ("after",): [("A", UNAFFILIATED_IP)],
        },
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t06", "void_lookups",
        "Five 'a' mechanisms, none of which resolve; the spec allows two "
        "void lookups (97% exceeded that, 64% chased all five).",
        {
            (): [("TXT", "v=spf1 a:v1.{base} a:v2.{base} a:v3.{base} a:v4.{base} a:v5.{base} -all")],
            # v1..v5 deliberately have no entries: NXDOMAIN.
        },
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t07", "mx_fallback",
        "'mx' mechanism whose target publishes no MX records; the implicit "
        "A/AAAA fallback of mail routing is explicitly disallowed in SPF, "
        "yet 14% of validators performed it.",
        {
            (): [("TXT", "v=spf1 mx:nomx.{base} -all")],
            ("nomx",): [("TXT", "placeholder to make the name exist")],
        },
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t08", "multiple_records",
        "Two valid SPF records at the same name, each pointing its 'a' at "
        "a distinct target; the spec demands permerror (77% complied), "
        "following either record (23%) is visible from which target gets "
        "queried.",
        {
            (): [
                ("TXT", "v=spf1 a:pol1.{base} -all"),
                ("TXT", "v=spf1 a:pol2.{base} -all"),
            ],
            ("pol1",): [("A", UNAFFILIATED_IP)],
            ("pol2",): [("A", "192.0.2.2")],
        },
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t09", "tcp_only",
        "The included child policy is only retrievable over TCP (UDP "
        "responses come back truncated); 2 of 1,336 resolvers failed to "
        "fall back.",
        {
            (): [("TXT", "v=spf1 include:l1tcp.{base} -all")],
            ("l1tcp",): [("TXT", "v=spf1 ?all")],
        },
        force_tcp_labels=("l1tcp",),
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t10", "ipv6_only",
        "The included child policy lives under a suffix whose "
        "authoritative servers have only IPv6 addresses; 49% of MTAs "
        "retrieved it.",
        {
            (): [("TXT", "v=spf1 include:l1.{v6base} -all")],
            ("l1",): [("TXT", "v=spf1 ?all")],  # served under the v6 suffix
        },
        documented=True, section="7.3",
    ))

    add(TestPolicy(
        "t11", "mx_address_limit",
        "An 'mx' mechanism yielding 20 MX records; the spec caps address "
        "lookups at 10 (7.7% complied; 64% queried all 20 exchanges).",
        {
            (): [("TXT", "v=spf1 mx:many.{base} -all")],
            ("many",): [("MX", "%d h%02d.{base}" % (i, i)) for i in range(1, 21)],
            **{("h%02d" % i,): [("A", "192.0.2.%d" % (100 + i))] for i in range(1, 21)},
        },
        documented=True, section="7.3",
    ))

    # ---- undocumented companions (filling out the 39) --------------------

    add(TestPolicy(
        "t12", "baseline_fail",
        "Plain 'v=spf1 -all'; the L0 TXT query is the primary "
        "SPF-validating signal for an MTA.",
        {(): [("TXT", "v=spf1 -all")]},
    ))
    add(TestPolicy(
        "t13", "baseline_softfail",
        "Plain '~all' policy.",
        {(): [("TXT", "v=spf1 ~all")]},
    ))
    add(TestPolicy(
        "t14", "baseline_neutral",
        "Plain '?all' policy.",
        {(): [("TXT", "v=spf1 ?all")]},
    ))
    add(TestPolicy(
        "t15", "passing_sender",
        "Authorizes the probe's own address, the one probe policy designed "
        "to pass.",
        {(): [("TXT", "v=spf1 ip4:{probe4} -all")]},
    ))
    add(TestPolicy(
        "t16", "redirect_simple",
        "redirect= to a sibling policy.",
        {
            (): [("TXT", "v=spf1 redirect=r1.{base}")],
            ("r1",): [("TXT", "v=spf1 -all")],
        },
    ))
    add(TestPolicy(
        "t17", "redirect_loop",
        "redirect= pointing at itself; sound validators abort via the "
        "lookup limit.",
        {(): [("TXT", "v=spf1 redirect={base}")]},
    ))
    add(TestPolicy(
        "t18", "include_loop",
        "Policy that includes itself.",
        {(): [("TXT", "v=spf1 include:{base} -all")]},
    ))
    add(TestPolicy(
        "t19", "deep_nesting",
        "A 25-level include chain with no delays; distinguishes count-based "
        "limit enforcement from timeouts.",
        _deep_chain(25),
    ))
    add(TestPolicy(
        "t20", "exists_ip_macro",
        "exists:%{ir}.%{v}.e.<base>: checks macro expansion of the client "
        "address; any name under 'e' resolves.",
        {
            (): [("TXT", "v=spf1 exists:%{ir}.%{v}.e.{base} -all")],
            ("**", "e"): [("A", "127.0.0.2")],
        },
    ))
    add(TestPolicy(
        "t21", "exists_local_macro",
        "exists:%{l}.lp.<base>: macro expansion of the sender local part.",
        {
            (): [("TXT", "v=spf1 exists:%{l}.lp.{base} -all")],
            ("**", "lp"): [("A", "127.0.0.2")],
        },
    ))
    add(TestPolicy(
        "t22", "exp_modifier",
        "'-all exp=why.<base>'; failing validators that honour exp= fetch "
        "the explanation TXT.",
        {
            (): [("TXT", "v=spf1 -all exp=why.{base}")],
            ("why",): [("TXT", "Mail from %{s} is not authorized by {base}")],
        },
    ))
    add(TestPolicy(
        "t23", "cname_policy",
        "The policy TXT sits behind a CNAME.",
        {
            (): [("CNAME", "real.{base}")],
            ("real",): [("TXT", "v=spf1 -all")],
        },
    ))
    add(TestPolicy(
        "t24", "oversize_policy",
        "A >512-octet policy record, organically truncated over UDP "
        "(unlike t09's forced truncation).",
        {
            (): [("TXT", "v=spf1 " + " ".join("ip4:192.0.2.%d" % i for i in range(1, 120)) + " -all")],
        },
    ))
    add(TestPolicy(
        "t25", "empty_policy",
        "Bare 'v=spf1' — evaluates to neutral.",
        {(): [("TXT", "v=spf1")]},
    ))
    add(TestPolicy(
        "t26", "unknown_modifier",
        "An unknown modifier that compliant validators must ignore, "
        "followed by an 'a' target that shows they kept going.",
        {
            (): [("TXT", "v=spf1 moo=cow a:next.{base} -all")],
            ("next",): [("A", UNAFFILIATED_IP)],
        },
    ))
    add(TestPolicy(
        "t27", "mixed_case",
        "Mechanism names in mixed case (A:, -ALL); matching is "
        "case-insensitive per spec.",
        {
            (): [("TXT", "v=spf1 A:uc.{base} -ALL")],
            ("uc",): [("A", UNAFFILIATED_IP)],
        },
    ))
    add(TestPolicy(
        "t28", "ptr_mechanism",
        "A 'ptr' mechanism; reveals validators willing to do reverse "
        "lookups (the spec says SHOULD NOT use).",
        {(): [("TXT", "v=spf1 ptr:{base} -all")]},
    ))
    add(TestPolicy(
        "t29", "a_dual_cidr",
        "'a' with dual CIDR lengths.",
        {
            (): [("TXT", "v=spf1 a:net.{base}/24//64 -all")],
            ("net",): [("A", "192.0.2.1"), ("AAAA", "2001:db8:99::1")],
        },
    ))
    add(TestPolicy(
        "t30", "include_non_spf",
        "The include target exists but carries no SPF record (permerror); "
        "an 'a' term after it shows who keeps evaluating.",
        {
            (): [("TXT", "v=spf1 include:l1.{base} a:after.{base} -all")],
            ("l1",): [("TXT", "just some text, not a policy")],
            ("after",): [("A", UNAFFILIATED_IP)],
        },
    ))
    add(TestPolicy(
        "t31", "include_slow_child",
        "The include target's server answers after a very long delay "
        "(temperror for impatient resolvers).",
        {
            (): [("TXT", "v=spf1 include:slow.{base} a:after.{base} -all")],
            ("slow",): [("TXT", "v=spf1 ?all")],
            ("after",): [("A", UNAFFILIATED_IP)],
        },
        delays={"slow": 9.0},
    ))
    add(TestPolicy(
        "t32", "redirect_after_all",
        "redirect= alongside an 'all' mechanism; the redirect must be "
        "ignored, so any query for the redirect target is a violation.",
        {
            (): [("TXT", "v=spf1 -all redirect=r.{base}")],
            ("r",): [("TXT", "v=spf1 ?all")],
        },
    ))
    add(TestPolicy(
        "t33", "void_exists",
        "Five void lookups via 'exists' instead of 'a'.",
        {
            (): [("TXT", "v=spf1 " + " ".join("exists:w%d.{base}" % i for i in range(1, 6)) + " -all")],
        },
    ))
    add(TestPolicy(
        "t34", "multi_string_txt",
        "The policy TXT is split across several character-strings that "
        "must be concatenated before parsing.",
        {
            (): [("TXT", "")],  # replaced below; placeholder
            ("seg",): [("A", UNAFFILIATED_IP)],
        },
    ))
    add(TestPolicy(
        "t35", "null_mx",
        "'mx' whose target publishes a null MX (RFC 7505, '0 .'); no "
        "address lookup should follow.",
        {
            (): [("TXT", "v=spf1 mx:nullmx.{base} -all")],
            ("nullmx",): [("MX", "0 .")],
        },
    ))
    add(TestPolicy(
        "t36", "ip6_literal",
        "A pure ip6 literal policy; no follow-up queries expected.",
        {(): [("TXT", "v=spf1 ip6:2001:db8:ffff::/48 -all")]},
    ))
    add(TestPolicy(
        "t37", "slow_base",
        "The L0 response itself is delayed 5 s; probes resolver patience "
        "with the base policy lookup.",
        {(): [("TXT", "v=spf1 -all")]},
        delays={"": 5.0},
    ))
    add(TestPolicy(
        "t38", "dmarc_bait",
        "Publishes a DMARC record for the From domain; any _dmarc query "
        "during a session that never carries a message is notable.",
        {
            (): [("TXT", "v=spf1 -all")],
            ("_dmarc",): [("TXT", "v=DMARC1; p=reject; rua=mailto:contact@dns-lab.org")],
        },
    ))
    add(TestPolicy(
        "t39", "dual_suffix_include",
        "Includes one child under the normal suffix and one under the "
        "IPv6-only suffix; cross-checks t10 within a single evaluation.",
        {
            (): [("TXT", "v=spf1 include:c4.{base} include:l1.{v6base} -all")],
            ("c4",): [("TXT", "v=spf1 ?all")],
            ("l1",): [("TXT", "v=spf1 ?all")],
        },
    ))

    # t34 needs an explicitly multi-string TXT record, which the spec
    # format cannot express; patch it in directly.
    t34 = next(policy for policy in policies if policy.testid == "t34")

    class _MultiStringPolicy(TestPolicy):
        def respond(self, sub, qtype, ctx):
            if sub == () and qtype == RdataType.TXT:
                text = "v=spf1 a:seg.%s -all" % ctx.base
                midpoint = len(text) // 2
                return SynthResponse(records=[TxtRecord([text[:midpoint], text[midpoint:]])])
            return super().respond(sub, qtype, ctx)

    patched = _MultiStringPolicy(
        t34.testid, t34.name, t34.description,
        {("seg",): [("A", UNAFFILIATED_IP)]},
    )
    policies[policies.index(t34)] = patched

    assert len(policies) == 39, "the paper's catalogue has 39 test policies"
    assert len({policy.testid for policy in policies}) == 39
    return policies


#: The singleton catalogue.
POLICIES: List[TestPolicy] = build_policies()

_BY_ID = {policy.testid: policy for policy in POLICIES}


def policy_by_id(testid: str) -> TestPolicy:
    return _BY_ID[testid]


class NotifyEmailPolicy(TestPolicy):
    """The NotifyEmail SPF/DKIM/DMARC configuration (Section 4.3.1).

    Unlike the probe policies, this one authorizes the *real* sending
    MTA (via an 'a' mechanism, so validators must resolve it) and also
    embeds the serial-vs-parallel include chain.  DKIM key and DMARC
    policy records complete the per-domain set.
    """

    def __init__(self) -> None:
        super().__init__(
            "notify", "notify_email",
            "Valid-sender policy with include chain, DKIM key, and strict "
            "DMARC record.",
            {},
            documented=True, section="4.3.1",
        )

    def delay_for(self, sub: Tuple[str, ...]) -> float:
        return 0.1 if sub in (("l1",), ("l2",)) else 0.0

    def respond(self, sub: Tuple[str, ...], qtype: RdataType, ctx: PolicyContext) -> SynthResponse:
        response = SynthResponse(delay=self.delay_for(sub))
        if sub == ():
            if qtype == RdataType.TXT:
                response.records.append(
                    TxtRecord("v=spf1 include:l1.%s a:mta.%s -all" % (ctx.base, ctx.base))
                )
            return response
        if sub == ("l1",):
            if qtype == RdataType.TXT:
                response.records.append(TxtRecord("v=spf1 include:l2.%s ?all" % ctx.base))
            return response
        if sub == ("l2",):
            if qtype == RdataType.TXT:
                response.records.append(TxtRecord("v=spf1 include:l3.%s ?all" % ctx.base))
            return response
        if sub == ("l3",):
            if qtype == RdataType.TXT:
                response.records.append(TxtRecord("v=spf1 ?all"))
            return response
        if sub == ("mta",):
            for address in ctx.valid_sender_ips:
                if ":" in address and qtype == RdataType.AAAA:
                    response.records.append(AAAARecord(address))
                elif ":" not in address and qtype == RdataType.A:
                    response.records.append(ARecord(address))
            return response
        if sub == ("sel", "_domainkey"):
            if qtype == RdataType.TXT and ctx.dkim_key_b64:
                response.records.append(TxtRecord("v=DKIM1; k=rsa; p=%s" % ctx.dkim_key_b64))
            return response
        if sub == ("_dmarc",):
            if qtype == RdataType.TXT:
                response.records.append(
                    TxtRecord("v=DMARC1; p=reject; rua=mailto:contact@dns-lab.org")
                )
            return response
        response.nxdomain = True
        return response


NOTIFY_POLICY = NotifyEmailPolicy()
