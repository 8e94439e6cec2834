"""Tests for the CLI experiment runner."""

import sys

import pytest

from repro.core import parallel, querylog, runner
from repro.core.campaign import (
    NotifyEmailCampaign,
    ProbeCampaign,
    Testbed,
    apply_reputation_effects,
)
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.runner import build_parser, main
from repro.obs import reconcile
from repro.obs.spans import save_spans
from repro.core.trace import load_probe_results, load_query_index


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert args.scale == 0.01

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--experiment", "bogus"])

    @pytest.mark.parametrize(
        "argv",
        [["--workers", "0"], ["--workers", "-2"], ["--scale", "0"], ["--scale", "-1"], ["--scale", "inf"]],
        ids=["workers0", "workers-2", "scale0", "scale-1", "scale-inf"],
    )
    def test_rejects_impossible_sizes(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(argv)
        assert caught.value.code == 2
        assert "must be finite and above 0" in capsys.readouterr().err

    def test_faults_default_absent(self):
        args = build_parser().parse_args([])
        assert args.faults is None


class TestRunner:
    def test_twoweekmx_run(self, tmp_path):
        code = main([
            "--experiment", "twoweekmx", "--scale", "0.003",
            "--seed", "7", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "twoweekmx_report.txt").read_text()
        assert "Table 5" in report
        assert "Decile 10" in report
        assert "Section 7" in report
        index = load_query_index(tmp_path / "twoweekmx_queries.jsonl")
        probes = load_probe_results(tmp_path / "twoweekmx_probes.jsonl")
        assert probes
        # Every observed validator in the trace was actually probed.
        probed = {probe.mtaid for probe in probes}
        assert index.mtas_observed() <= probed

    def test_notify_family_run(self, tmp_path):
        code = main([
            "--experiment", "notifyemail", "--scale", "0.003",
            "--seed", "8", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "notifyemail_report.txt").read_text()
        assert "Table 4" in report
        assert "Figure 2" in report
        assert (tmp_path / "notifyemail_queries.jsonl").exists()

    def test_notifymx_produces_fingerprints(self, tmp_path):
        code = main([
            "--experiment", "notifymx", "--scale", "0.003",
            "--seed", "9", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "notifymx_report.txt").read_text()
        assert "fingerprints" in report
        assert "rejections:" in report

    def test_deterministic_given_seed(self, tmp_path):
        for run in ("a", "b"):
            main([
                "--experiment", "twoweekmx", "--scale", "0.003",
                "--seed", "42", "--out", str(tmp_path / run), "--quiet",
            ])
        a = (tmp_path / "a" / "twoweekmx_report.txt").read_text()
        b = (tmp_path / "b" / "twoweekmx_report.txt").read_text()
        assert a == b


class TestFaults:
    ARTEFACTS = (
        "twoweekmx_report.txt",
        "twoweekmx_queries.jsonl",
        "twoweekmx_probes.jsonl",
        "twoweekmx_tracecheck.txt",
        "twoweekmx_metrics.txt",
    )

    def _run(self, tmp_path, name, *extra):
        out = tmp_path / name
        code = main([
            "--experiment", "twoweekmx", "--scale", "0.003",
            "--seed", "42", "--out", str(out), "--quiet", *extra,
        ])
        assert code == 0
        return out

    def test_empty_plan_is_byte_identical(self, tmp_path):
        # The differential invariant: an empty FaultPlan threaded through
        # every layer must change no artefact at all.
        plain = self._run(tmp_path, "plain", "--workers", "1")
        empty = self._run(tmp_path, "empty", "--workers", "1", "--faults", "")
        for artefact in self.ARTEFACTS:
            assert (plain / artefact).read_bytes() == (empty / artefact).read_bytes()

    def test_faulted_run_identical_across_worker_counts(self, tmp_path):
        spec = "udp_loss:0.1,servfail:0.05"
        serial = self._run(tmp_path, "serial", "--workers", "1", "--faults", spec)
        sharded = self._run(tmp_path, "sharded", "--workers", "4", "--faults", spec)
        for artefact in self.ARTEFACTS:
            assert (serial / artefact).read_bytes() == (sharded / artefact).read_bytes()
        metrics = (serial / "twoweekmx_metrics.txt").read_text()
        assert "faults_injected_total{kind=udp_loss}" in metrics
        assert "faults_injected_total{kind=servfail}" in metrics

    def test_faultmatrix_experiment(self, tmp_path):
        code = main([
            "--experiment", "faultmatrix", "--scale", "0.001",
            "--seed", "42", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "faultmatrix_report.txt").read_text()
        assert "Fault matrix" in report
        assert "baseline" in report
        assert "banner_absent" in report


class TestVerdictsGateExitCode:
    """An unclean tracecheck or a failed span reconciliation exits 1 —
    with one in-process worker and with worker processes — after every
    artefact has been written."""

    ARTEFACTS = (
        "twoweekmx_report.txt",
        "twoweekmx_queries.jsonl",
        "twoweekmx_probes.jsonl",
        "twoweekmx_tracecheck.txt",
        "twoweekmx_metrics.txt",
    )

    def _run(self, out, workers):
        code = main([
            "--experiment", "twoweekmx", "--scale", "0.002", "--seed", "7",
            "--out", str(out), "--quiet", "--workers", str(workers),
        ])
        for artefact in self.ARTEFACTS:
            assert (out / artefact).exists(), artefact
        return code

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers"])
    def test_unclean_tracecheck_exits_nonzero(self, tmp_path, monkeypatch, workers):
        real = runner.check_index

        def unclean(*args, **kwargs):
            result = real(*args, **kwargs)
            result.report.add("TRACE003", "injected finding", subject="mta00000/t01")
            return result

        monkeypatch.setattr(runner, "check_index", unclean)
        assert self._run(tmp_path, workers) == 1
        assert "injected finding" in (tmp_path / "twoweekmx_tracecheck.txt").read_text()

    @staticmethod
    def _mismatch_reconciliation(monkeypatch):
        real = reconcile.reconcile_spans

        def mismatched(*args, **kwargs):
            result = real(*args, **kwargs)
            result.span_counts[("mta-injected", "t01")] = 1
            return result

        # Every worker, in-process or forked after the patch, imports it
        # from its module per call.
        monkeypatch.setattr(reconcile, "reconcile_spans", mismatched)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers"])
    def test_failed_reconciliation_exits_nonzero(self, tmp_path, monkeypatch, workers):
        self._mismatch_reconciliation(monkeypatch)
        assert self._run(tmp_path, workers) == 1

    def test_failed_reconciliation_fails_the_fault_matrix(self, tmp_path, monkeypatch):
        self._mismatch_reconciliation(monkeypatch)
        code = main([
            "--experiment", "faultmatrix", "--scale", "0.001", "--seed", "7",
            "--out", str(tmp_path), "--quiet", "--workers", "1",
        ])
        assert code == 1
        assert "Fault matrix" in (tmp_path / "faultmatrix_report.txt").read_text()

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers"])
    def test_clean_run_exits_zero(self, tmp_path, workers):
        assert self._run(tmp_path, workers) == 0


class TestOneEngine:
    """``--workers 1`` is one in-process worker of the parallel engine."""

    SCALE, SEED = 0.003, 2021

    def test_span_dumps_match_a_direct_library_run(self, tmp_path):
        """Span ids follow execution order, so this fails if the one
        worker runs its tasks out of schedule order; the NotifyMX dump is
        cumulative, as from one testbed shared by both notify campaigns."""
        out, direct = tmp_path / "runner", tmp_path / "direct"
        direct.mkdir()
        code = main([
            "--experiment", "all", "--scale", str(self.SCALE), "--seed", str(self.SEED),
            "--out", str(out), "--quiet", "--workers", "1",
        ])
        assert code == 0

        seed = self.SEED
        universe = generate_universe(DatasetSpec.notify_email(scale=self.SCALE), seed=seed)
        testbed = Testbed(universe, seed=seed + 1)
        NotifyEmailCampaign(testbed).run()
        save_spans(testbed.obs.tracer.finished, direct / "notifyemail_spans.jsonl")
        apply_reputation_effects(universe, seed=seed + 2)
        ProbeCampaign(testbed, "NotifyMX", start_time=1e7, seed=seed).run()
        save_spans(testbed.obs.tracer.finished, direct / "notifymx_spans.jsonl")
        universe = generate_universe(DatasetSpec.two_week_mx(scale=self.SCALE), seed=seed + 3)
        testbed = Testbed(universe, seed=seed + 4)
        ProbeCampaign(testbed, "TwoWeekMX", seed=seed).run()
        save_spans(testbed.obs.tracer.finished, direct / "twoweekmx_spans.jsonl")

        for name in ("notifyemail", "notifymx", "twoweekmx"):
            dump = "%s_spans.jsonl" % name
            assert (out / dump).read_bytes() == (direct / dump).read_bytes(), dump

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers"])
    def test_attribution_passes_per_experiment(self, tmp_path, monkeypatch, workers):
        """Each worker attributes its query log once, and reconciles its
        spans with a second, independent attribution; the coordinator
        merges attributed queries and attributes nothing, NotifyMX's
        cumulative index included.  With one worker every pass runs in
        this process: 2 per experiment, 6 for ``all``."""
        log = []
        in_worker = []
        real_attribute = querylog.attribute_queries_with_stats
        real_run_shard = parallel.run_shard
        real_notify, real_probe = runner.run_notify_sharded, runner.run_probe_sharded

        def attribute(*args, **kwargs):
            log.append("worker" if in_worker else "coordinator")
            return real_attribute(*args, **kwargs)

        def run_shard(job):
            in_worker.append(job)
            try:
                return real_run_shard(job)
            finally:
                in_worker.pop()

        def run_notify(*args, **kwargs):
            log.append("notifyemail")
            return real_notify(*args, **kwargs)

        def run_probe(universe, name, **kwargs):
            log.append(name.lower())
            return real_probe(universe, name, **kwargs)

        holders = [
            module for module in list(sys.modules.values())
            if getattr(module, "attribute_queries_with_stats", None) is real_attribute
        ]
        assert reconcile in holders
        for module in holders:
            monkeypatch.setattr(module, "attribute_queries_with_stats", attribute)
        monkeypatch.setattr(parallel, "run_shard", run_shard)
        monkeypatch.setattr(runner, "run_notify_sharded", run_notify)
        monkeypatch.setattr(runner, "run_probe_sharded", run_probe)
        code = main([
            "--experiment", "all", "--scale", "0.002", "--seed", "7",
            "--out", str(tmp_path), "--quiet", "--workers", str(workers),
        ])
        assert code == 0
        counts = {}
        for entry in log:
            if entry in ("worker", "coordinator"):
                counts[experiment][entry] += 1
            else:
                experiment = entry
                counts[experiment] = {"worker": 0, "coordinator": 0}
        in_process = 2 if workers == 1 else 0
        expected = {"worker": in_process, "coordinator": 0}
        assert counts == {"notifyemail": expected, "notifymx": expected, "twoweekmx": expected}
