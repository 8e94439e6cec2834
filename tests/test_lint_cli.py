"""Tests for the ``python -m repro.lint`` front end: output formats
(text/JSON/SARIF), the zone, repo and DKIM subcommands."""

import importlib.util
import json
import pathlib
import textwrap

from repro.lint import audit_zone
from repro.lint.__main__ import _audit_dict, main
from repro.lint.diagnostics import RULES, LintReport, Severity
from repro.lint.sarif import SARIF_VERSION, to_sarif

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


class TestRecordJson:
    def test_json_round_trips(self, capsys):
        exit_code = main(["--json", "record", "v=spf1 ptr -all", "--domain", "example.com"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["domain"] == "example.com"
        assert payload["prediction"]["lookup_terms"] == 1
        codes = {finding["code"] for finding in payload["findings"]}
        assert "SPF025" in codes
        for finding in payload["findings"]:
            assert set(finding) >= {"code", "severity", "subject", "message"}
            assert finding["severity"] in ("error", "warning", "info")

    def test_error_findings_set_exit_code(self, capsys):
        exit_code = main(["--json", "record", "v=spf1 +all"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert any(f["code"] == "SPF022" for f in payload["findings"])


class TestDkimSubcommands:
    def test_dkim_sig_text_output(self, capsys):
        exit_code = main(["dkim-sig", "v=1; a=rsa-sha1; d=x.org; s=s; h=from; bh=a; b=b"])
        out = capsys.readouterr().out
        assert exit_code == 1  # rsa-sha1 is an error
        assert "DKIM005" in out

    def test_dkim_key_json_output(self, capsys):
        exit_code = main(["--json", "dkim-key", "v=DKIM1; k=rsa; p="])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0  # revoked is a warning, not an error
        assert payload["findings"][0]["code"] == "DKIM002"


class TestRepoSubcommand:
    def _tree(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        (core / "bad.py").write_text(
            textwrap.dedent(
                """
                import time

                def stamp(seen=[]):
                    seen.append(time.time())
                    return seen
                """
            ),
            encoding="utf-8",
        )
        return tmp_path

    def test_text_format(self, tmp_path, capsys):
        exit_code = main(["repo", str(self._tree(tmp_path))])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "AST001" in out and "AST005" in out

    def test_json_format(self, tmp_path, capsys):
        main(["repo", str(self._tree(tmp_path)), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1  # AST001
        assert payload["counts"]["warning"] == 1  # AST005

    def test_sarif_format_shape(self, tmp_path, capsys):
        exit_code = main(["repo", str(self._tree(tmp_path)), "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.lint"
        assert [rule["id"] for rule in driver["rules"]] == list(RULES)
        results = run["results"]
        assert {r["ruleId"] for r in results} == {"AST001", "AST005"}
        for result in results:
            assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == "core/bad.py"
            assert location["region"]["startLine"] > 0

    def test_sarif_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "lint.sarif"
        main(["repo", str(self._tree(tmp_path)), "--format", "sarif", "--output", str(out_file)])
        log = json.loads(out_file.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert "wrote sarif report" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["repo", str(tmp_path), "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []


class TestSarifRenderer:
    def test_domain_subjects_become_logical_locations(self):
        report = LintReport()
        report.add("SPF022", "'+all' authorizes everyone", subject="example.com")
        log = to_sarif(report)
        result = log["runs"][0]["results"][0]
        logical = result["locations"][0]["logicalLocations"][0]
        assert logical["fullyQualifiedName"] == "example.com"
        assert "physicalLocation" not in result["locations"][0]

    def test_severity_level_mapping(self):
        report = LintReport()
        report.add("SPF022", "error-level")  # ERROR
        report.add("SPF005", "warning-level")  # WARNING
        report.add("SPF028", "info-level")  # INFO
        levels = [r["level"] for r in to_sarif(report)["runs"][0]["results"]]
        assert levels == ["error", "warning", "note"]

    def test_rules_carry_default_levels(self):
        log = to_sarif(LintReport())
        for rule in log["runs"][0]["tool"]["driver"]["rules"]:
            severity, title = RULES[rule["id"]]
            assert rule["shortDescription"]["text"] == title
            assert rule["defaultConfiguration"]["level"] == {
                Severity.ERROR: "error",
                Severity.WARNING: "warning",
                Severity.INFO: "note",
            }[severity]


def _zone_example():
    spec = importlib.util.spec_from_file_location("example_zone_lint", EXAMPLES / "zone_lint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload(audit):
    """What ``--json zone`` prints for one zone audit."""
    return {
        "origin": audit.origin,
        "findings": [d.to_dict() for d in audit.report.diagnostics],
        "spf": {domain: _audit_dict(a) for domain, a in sorted(audit.spf_audits.items())},
    }


class TestZoneSubcommand:
    """``zone`` reads master files: the example zones, written with
    relative owner and rdata names, audit exactly as built in code."""

    def _textbook(self, key):
        # The 2048-bit key is longer than one character-string: split it
        # where the in-code TxtRecord splits it, at 255 octets.
        dkim = "v=DKIM1; k=rsa; p=%s" % key
        strings = " ".join('"%s"' % dkim[i : i + 255] for i in range(0, len(dkim), 255))
        return textwrap.dedent(
            """\
            ; the textbook sender: every name below is relative to the origin
            @                TXT  "v=spf1 mx ip4:203.0.113.0/28 -all"
            @                MX   10 mx
            mx               A    203.0.113.1
            mail._domainkey  TXT  %s
            _dmarc           TXT  "v=DMARC1; p=reject; rua=mailto:d@textbook.example"
            """
        ) % strings

    TRAPPED = textwrap.dedent(
        """\
        $ORIGIN trapped.example.
        @       TXT ( "v=spf1 include:loop.trapped.example a:gone1.trapped.example "
                      "a:gone2.trapped.example a:gone3.trapped.example ?all" )
        loop    TXT "v=spf1 include:trapped.example ?all"  ; re-enters the parent
        _dmarc  TXT "v=DMARC1; p=none; pct=10"
        """
    )

    def _run(self, capsys, tmp_path, text, origin):
        path = tmp_path / ("%s.zone" % origin)
        path.write_text(text, encoding="utf-8")
        exit_code = main(["--json", "zone", str(path), "--origin", origin])
        return exit_code, json.loads(capsys.readouterr().out)

    def test_textbook_zone_matches_in_code_audit(self, capsys, tmp_path):
        example = _zone_example()
        exit_code, payload = self._run(capsys, tmp_path, self._textbook(example.KEY_B64), "textbook.example")
        assert exit_code == 0
        assert payload == _payload(audit_zone(example.build_textbook()))
        # The relative MX target resolves under the origin, so the SPF
        # prediction is complete rather than a lower bound.
        assert payload["spf"]["textbook.example"]["prediction"]["complete"] is True
        assert payload["findings"] == []

    def test_trapped_zone_matches_in_code_audit(self, capsys, tmp_path):
        example = _zone_example()
        exit_code, payload = self._run(capsys, tmp_path, self.TRAPPED, "trapped.example")
        expected = audit_zone(example.build_trapped())
        assert exit_code == (1 if expected.report.errors else 0)
        assert payload == _payload(expected)
        assert {"SPF013", "DMARC002"} <= {finding["code"] for finding in payload["findings"]}

    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.zone"
        path.write_text('@ TXT "unterminated\n', encoding="utf-8")
        assert main(["zone", str(path), "--origin", "example.com"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_origin_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "ok.zone"
        path.write_text("@ A 192.0.2.1\n", encoding="utf-8")
        assert main(["zone", str(path), "--origin", "a..b"]) == 2
        assert "error: %s: bad origin 'a..b'" % path in capsys.readouterr().err

    def test_non_utf8_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.zone"
        path.write_bytes(b'@ TXT "caf\xe9"\n')
        assert main(["zone", str(path), "--origin", "example.com"]) == 2
        assert "error: %s:" % path in capsys.readouterr().err
