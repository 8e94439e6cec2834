"""Integration tests for the observability layer on real campaigns.

Two layers of assertion: a live testbed whose spans must reconcile with
the server-side query log, and the CLI runner whose observability
artefacts must exist, load, and stay documented in OBSERVABILITY.md.
"""

import pathlib
import re

import pytest

from repro.core.campaign import ProbeCampaign, Testbed
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.parallel import run_probe_sharded
from repro.core.runner import main
from repro.dns.name import Name
from repro.obs import NULL_OBS
from repro.obs.reconcile import entries_from_spans, reconcile_spans
from repro.obs.spans import load_spans, save_spans

REPO = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def probed_testbed():
    universe = generate_universe(DatasetSpec.two_week_mx(scale=0.003), seed=7)
    testbed = Testbed(universe, seed=8)  # obs on by default
    result = ProbeCampaign(testbed, "TwoWeekMX").run()
    return testbed, result


class TestLiveCampaign:
    def test_spans_reconcile_with_query_log(self, probed_testbed):
        testbed, _ = probed_testbed
        verdict = reconcile_spans(
            testbed.obs.tracer.finished, testbed.query_index(), testbed.synth_config
        )
        assert verdict.matched, verdict.render_text()
        assert sum(verdict.span_counts.values()) > 0

    def test_exchange_spans_count_server_queries(self, probed_testbed):
        """Every exchange the client sent is one query the server saw."""
        testbed, _ = probed_testbed
        entries, _unsent = entries_from_spans(testbed.obs.tracer.finished)
        assert len(entries) == len(testbed.synth.query_log) + len(
            testbed.universe_dns.query_log
        )

    def test_metrics_agree_with_spans(self, probed_testbed):
        testbed, result = probed_testbed
        metrics, tracer = testbed.obs.metrics, testbed.obs.tracer
        assert metrics.counter_total("spf_checks_total") == len(tracer.find("spf.check_host"))
        assert metrics.counter_total("probe_conversations_total") == len(result.results)
        assert metrics.counter_total("smtp_server_sessions_total") == len(
            tracer.find("probe.conversation")
        )

    def test_reconcile_verdict_same_before_and_after_a_dump(self, tmp_path):
        """Live ``dns.exchange`` spans carry their qname as a Name, dumped
        ones as text; reconciliation reaches the same verdict on both."""
        universe = generate_universe(DatasetSpec.two_week_mx(scale=0.003), seed=7)
        merged = run_probe_sharded(universe, "TwoWeekMX", workers=1, testbed_seed=8)
        exchanges = [span for span in merged.spans if span.name == "dns.exchange"]
        assert exchanges
        assert all(type(span.attrs["qname"]) is Name for span in exchanges)
        path = tmp_path / "twoweekmx_spans.jsonl"
        save_spans(merged.spans, path)
        loaded = load_spans(path)
        assert all(
            type(span.attrs["qname"]) is str for span in loaded if span.name == "dns.exchange"
        )

        def verdict(spans):
            result = reconcile_spans(spans, merged.result.index, merged.synth_config)
            return (
                result.matched,
                result.span_counts,
                result.index_counts,
                result.spans_unsent,
                result.spans_foreign,
            )

        live = verdict(merged.spans)
        assert live[0] and sum(live[1].values()) > 0
        assert verdict(loaded) == live

    def test_null_obs_records_nothing(self):
        universe = generate_universe(DatasetSpec.two_week_mx(scale=0.003), seed=7)
        testbed = Testbed(universe, seed=8, obs=NULL_OBS)
        ProbeCampaign(testbed, "TwoWeekMX", testids=["t01"]).run()
        assert len(testbed.obs.metrics) == 0
        assert len(testbed.obs.tracer) == 0


@pytest.fixture(scope="module")
def runner_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("runner_obs")
    # --workers 1: span dumps are a serial-run artefact (parallel runs
    # keep span objects inside their worker processes).
    code = main(
        ["--experiment", "all", "--scale", "0.003", "--seed", "11", "--out", str(out),
         "--quiet", "--workers", "1"]
    )
    assert code == 0
    return out


class TestRunnerArtefacts:
    def test_artefact_pair_written_per_experiment(self, runner_out):
        for name in ("notifyemail", "notifymx", "twoweekmx"):
            assert (runner_out / ("%s_metrics.txt" % name)).exists()
            spans = load_spans(runner_out / ("%s_spans.jsonl" % name))
            assert spans
            assert any(span.name == "campaign.run" for span in spans)

    def test_notifymx_artefacts_are_cumulative(self, runner_out):
        """NotifyEmail and NotifyMX share one testbed, so the NotifyMX
        span dump contains both campaigns' roots."""
        campaigns = {
            span.attrs.get("campaign")
            for span in load_spans(runner_out / "notifymx_spans.jsonl")
            if span.name == "campaign.run"
        }
        assert campaigns == {"notifyemail", "NotifyMX"}

    def test_quiet_run_prints_nothing(self, runner_out, capsys):
        # The fixture already ran with --quiet inside this capsys scope's
        # session; a fresh tiny run proves the sink contract directly.
        main(["--experiment", "twoweekmx", "--scale", "0.002", "--seed", "3",
              "--out", str(runner_out / "quiet"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_no_obs_skips_artefacts(self, tmp_path):
        main(["--experiment", "twoweekmx", "--scale", "0.002", "--seed", "3",
              "--out", str(tmp_path), "--no-obs", "--quiet"])
        assert (tmp_path / "twoweekmx_report.txt").exists()
        assert not (tmp_path / "twoweekmx_metrics.txt").exists()
        assert not (tmp_path / "twoweekmx_spans.jsonl").exists()


class TestDocumentationCoverage:
    def test_every_exported_name_is_documented(self, runner_out):
        """OBSERVABILITY.md must name every metric and span a real run
        emits — the catalogue is a contract, not an illustration."""
        documented = (REPO / "OBSERVABILITY.md").read_text(encoding="utf-8")
        metric_names = set()
        for path in runner_out.glob("*_metrics.txt"):
            for line in path.read_text(encoding="utf-8").splitlines():
                match = re.match(r"^  ([a-z][a-z0-9_]+)[{ ]", line)
                if match:
                    metric_names.add(match.group(1))
        span_names = {
            span.name
            for path in runner_out.glob("*_spans.jsonl")
            for span in load_spans(path)
        }
        assert metric_names, "runner emitted no metrics to check against"
        missing = {name for name in metric_names | span_names if name not in documented}
        assert not missing, "undocumented in OBSERVABILITY.md: %s" % sorted(missing)
