"""Smoke tests keeping the example scripts green.

Each example is imported and driven through its ``main()`` with small
arguments; assertions check the headline strings a reader would look for.
"""

import importlib.util
import pathlib
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location("example_%s" % name, EXAMPLES / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "SPF   : pass" in out
    assert "disposition: reject" in out


def test_domain_audit(capsys):
    _load("domain_audit").main()
    out = capsys.readouterr().out
    assert "Assessment for textbook.example — grade A" in out
    assert "Assessment for sloppy.example — grade B" in out
    assert "Assessment for danger.example — grade F" in out
    assert "SPF022 error danger.example" in out  # +all


def test_spf_torture(capsys):
    _load("spf_torture").main()
    out = capsys.readouterr().out
    assert "46 post-base queries" in out
    assert "l1 -> foo" in out  # the parallel validator's tell
    assert "permerror" in out


def test_notify_email(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["notify_email.py", "0.003"])
    _load("notify_email").main()
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "Figure 2" in out
    assert "deliveries accepted" in out


def test_zone_lint(capsys):
    _load("zone_lint").main()
    out = capsys.readouterr().out
    assert "clean: no findings" in out  # the textbook zone
    assert "SPF013" in out  # the planted include loop
    assert "lookup_limit" in out
    assert '"DMARC002"' in out  # the JSON rendering of p=none


def test_observability(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["observability.py", "0.003"])
    _load("observability").main()
    out = capsys.readouterr().out
    assert "campaign metrics" in out
    assert "spf_checks_total" in out
    assert "probe.conversation" in out
    assert "spf.check_host" in out
    assert "dns.exchange" in out
    assert "-> MATCH" in out
    assert "virtual" in out


def test_probe_campaign(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["probe_campaign.py", "0.003"])
    _load("probe_campaign").main()
    out = capsys.readouterr().out
    assert "Table 5" in out
    assert "Section 7" in out
    assert "virtual" in out
