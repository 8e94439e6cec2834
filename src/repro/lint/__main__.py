"""Command-line front end: ``python -m repro.lint``.

Subcommands::

    python -m repro.lint record 'v=spf1 include:a.example.com -all'
    python -m repro.lint zone records.txt --origin example.com
    python -m repro.lint policies [t02 t18 ...]
    python -m repro.lint dkim-key 'v=DKIM1; k=rsa; p=MIGf...'
    python -m repro.lint dkim-sig 'v=1; a=rsa-sha256; d=...; s=sel; ...'
    python -m repro.lint repo [path] --format text|json|sarif
    python -m repro.lint rules
    python -m repro.lint --self-check

``zone`` reads an RFC 1035 master file (``repro.dns.zonefile.parse_zone``);
``policies`` audits the paper's 39 test policies statically; ``repo``
runs the AST rule engine over a source tree (default: this very
package) and can emit SARIF 2.1.0 for CI code-scanning upload;
``--self-check`` is the shorthand CI uses for the same check in text
form.  ``--json`` switches any subcommand's output to JSON.  Exit
status is 1 when any ERROR-severity finding (or self-check violation)
is reported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.dns.errors import DnsError
from repro.dns.zonefile import parse_zone
from repro.lint.astcheck import check_source_tree
from repro.lint.diagnostics import RULES
from repro.lint.dkimlint import audit_key_record, audit_signature_header
from repro.lint.sarif import render_sarif
from repro.lint.spfgraph import SpfAudit, audit_record_text
from repro.lint.zonelint import audit_zone


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static analyzer for SPF/DMARC configuration (no resolution).",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--self-check",
        action="store_true",
        dest="self_check",
        help="check the repro package's own determinism invariants",
    )
    commands = parser.add_subparsers(dest="command")

    record = commands.add_parser("record", help="audit one SPF record text")
    record.add_argument("text", help="the record, e.g. 'v=spf1 mx -all'")
    record.add_argument("--domain", default="", help="domain the record is published at")

    zone = commands.add_parser(
        "zone",
        help="audit every SPF/DMARC publisher in a zone master file",
        description="File format: an RFC 1035 master file, e.g. one 'name [ttl] "
        "[IN] TYPE rdata' per line; ';' comments; '@' for the origin; names "
        "without a trailing dot, owners and rdata alike, are relative to the "
        "origin; TXT strings double-quoted; MX rdata is 'preference exchange'.",
    )
    zone.add_argument("path", type=Path)
    zone.add_argument("--origin", required=True, help="zone origin, e.g. example.com")

    policies = commands.add_parser("policies", help="audit the paper's 39 test policies")
    policies.add_argument("testids", nargs="*", help="restrict to these testids (default: all)")

    dkim_key = commands.add_parser("dkim-key", help="audit one DKIM key record text")
    dkim_key.add_argument("text", help="the TXT value at <selector>._domainkey.<domain>")
    dkim_key.add_argument("--subject", default="", help="owner name to attach to findings")

    dkim_sig = commands.add_parser("dkim-sig", help="audit one DKIM-Signature header value")
    dkim_sig.add_argument("text", help="the header value, e.g. 'v=1; a=rsa-sha256; ...'")
    dkim_sig.add_argument(
        "--now",
        type=float,
        default=None,
        help="epoch seconds for x= expiry checks (omitted: only static relations)",
    )

    repo = commands.add_parser(
        "repo", help="run the AST rule engine over a source tree (SARIF-capable)"
    )
    repo.add_argument(
        "path",
        nargs="?",
        type=Path,
        default=None,
        help="source tree to scan (default: the installed repro package)",
    )
    repo.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="format",
        help="output format (sarif emits a SARIF 2.1.0 log for CI upload)",
    )
    repo.add_argument(
        "--output", type=Path, default=None, help="write the report to this file instead of stdout"
    )

    commands.add_parser("rules", help="list every rule code the analyzers can fire")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.self_check:
        return _cmd_self_check(args)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "zone":
        return _cmd_zone(args)
    if args.command == "policies":
        return _cmd_policies(args)
    if args.command == "dkim-key":
        return _cmd_dkim(args, audit_key_record(args.text, subject=args.subject))
    if args.command == "dkim-sig":
        return _cmd_dkim(args, audit_signature_header(args.text, now=args.now))
    if args.command == "repo":
        return _cmd_repo(args)
    if args.command == "rules":
        return _cmd_rules(args)
    build_parser().print_help()
    return 2


# -- subcommands ---------------------------------------------------------


def _cmd_record(args) -> int:
    audit = audit_record_text(args.text, domain=args.domain)
    if args.json:
        print(json.dumps(_audit_dict(audit), indent=2, sort_keys=True))
    else:
        print(audit.report.render_text(header=_prediction_line(audit)))
    return 1 if audit.report.errors else 0


def _cmd_zone(args) -> int:
    try:
        zone = parse_zone(args.path.read_text(encoding="utf-8"), origin=args.origin)
    except (OSError, UnicodeDecodeError, DnsError) as exc:
        print("error: %s: %s" % (args.path, exc), file=sys.stderr)
        return 2
    audit = audit_zone(zone)
    if args.json:
        payload = {
            "origin": audit.origin,
            "findings": [d.to_dict() for d in audit.report.diagnostics],
            "spf": {domain: _audit_dict(a) for domain, a in sorted(audit.spf_audits.items())},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = ["zone %s: %d SPF publisher(s)" % (audit.origin, len(audit.spf_audits))]
        for domain, spf_audit in sorted(audit.spf_audits.items()):
            lines.append("  " + _prediction_line(spf_audit))
        lines.append(audit.report.render_text())
        print("\n".join(lines))
    return 1 if audit.report.errors else 0


def _cmd_policies(args) -> int:
    # Imported here: the analyzers must stay importable without the
    # measurement harness, but this subcommand is explicitly about it.
    from repro.core.policies import POLICIES
    from repro.core.preflight import audit_policy

    policies = [p for p in POLICIES if not args.testids or p.testid in args.testids]
    if not policies:
        print("error: no such testid (try: %s ...)" % POLICIES[0].testid, file=sys.stderr)
        return 2
    payload = {}
    exit_code = 0
    for policy in policies:
        audit = audit_policy(policy)
        if audit is None:
            print("%s: no SPF record" % policy.testid, file=sys.stderr)
            exit_code = 1
            continue
        payload[policy.testid] = _audit_dict(audit)
        if not args.json:
            print("%s (%s)" % (policy.testid, policy.name))
            print("  " + _prediction_line(audit))
            for diagnostic in audit.report.diagnostics:
                print("  " + diagnostic.format())
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return exit_code


def _cmd_rules(args) -> int:
    if args.json:
        payload = {
            code: {"severity": severity.name.lower(), "title": title}
            for code, (severity, title) in RULES.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for code, (severity, title) in RULES.items():
        print("%-9s %-8s %s" % (code, severity.name.lower(), title))
    return 0


def _cmd_dkim(args, report) -> int:
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    return 1 if report.errors else 0


def _cmd_repo(args) -> int:
    report = check_source_tree(args.path)
    if args.format == "sarif":
        rendered = render_sarif(report)
    elif args.format == "json":
        rendered = report.to_json()
    else:
        rendered = report.render_text(header="repository invariants")
    if args.output is not None:
        args.output.write_text(rendered + "\n", encoding="utf-8")
        print("wrote %s report to %s" % (args.format, args.output))
    else:
        print(rendered)
    return 1 if report.errors else 0


def _cmd_self_check(args) -> int:
    report = check_source_tree()
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text(header="self-check: repro package invariants"))
    return 1 if report.diagnostics else 0


# -- helpers -------------------------------------------------------------


def _prediction_line(audit: SpfAudit) -> str:
    prediction = audit.prediction
    parts = [
        "%s:" % (audit.domain or "record"),
        "%d lookup term(s), %d void(s)" % (prediction.lookup_terms, prediction.void_lookups),
    ]
    if prediction.first_abort:
        parts.append("aborts with %s" % prediction.first_abort)
    if prediction.result is not None:
        parts.append("-> %s" % prediction.result.value)
    if not prediction.complete:
        parts.append("(lower bound: targets outside audited data)")
    return " ".join(parts)


def _audit_dict(audit: SpfAudit) -> dict:
    prediction = audit.prediction
    return {
        "domain": audit.domain,
        "record": audit.record_text,
        "prediction": {
            "lookup_terms": prediction.lookup_terms,
            "void_lookups": prediction.void_lookups,
            "first_abort": prediction.first_abort,
            "result": prediction.result.value if prediction.result else None,
            "cycle": prediction.cycle,
            "complete": prediction.complete,
        },
        "findings": [d.to_dict() for d in audit.report.diagnostics],
    }


if __name__ == "__main__":
    sys.exit(main())
