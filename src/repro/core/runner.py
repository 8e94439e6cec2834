"""Command-line experiment runner.

Runs any of the paper's three experiments end to end and writes the
tables, figures, and raw traces to an output directory::

    python -m repro.core.runner --experiment notifyemail --scale 0.01 --out results/
    python -m repro.core.runner --experiment notifymx   --scale 0.01 --out results/
    python -m repro.core.runner --experiment twoweekmx  --scale 0.01 --out results/
    python -m repro.core.runner --experiment all        --scale 0.01 --out results/

Artefacts per experiment: ``<name>_report.txt`` (every applicable table),
``<name>_queries.jsonl`` and ``<name>_probes.jsonl`` (raw traces loadable
via :mod:`repro.core.trace`), ``<name>_tracecheck.txt`` — the post-flight
differential conformance pass (:mod:`repro.lint.tracecheck`) — and the
observability pair ``<name>_metrics.txt`` / ``<name>_spans.jsonl``
(:mod:`repro.obs`; suppressed by ``--no-obs``).  Because ``notifyemail``
and ``notifymx`` share one testbed, the NotifyMX observability artefacts
are cumulative over both campaigns; see ``OBSERVABILITY.md``.

``--workers N`` (default: one per CPU) runs each campaign over N worker
processes via :mod:`repro.core.parallel`: each worker pulls MTA units
(probe campaigns) or provider units (NotifyEmail) from one work queue
until it is empty; ``--workers 1`` is the classic serial path.  The
merge layer is deterministic, so every report, trace, tracecheck, and
metrics artefact is identical whichever worker count produced it, and
whichever worker ran which unit.  The one exception is
``<name>_spans.jsonl``: span *objects* stay inside the worker processes
(each worker has its own ``campaign.run`` root span), so parallel runs
skip the span dump and instead reconcile spans against the query log per
worker, inside each worker.

``--faults SPEC`` threads a deterministic fault-injection plan
(:mod:`repro.net.faults`) through every layer of the testbed; the plan's
seed derives from ``--seed``, so a faulted run is as reproducible as a
clean one — including across ``--workers`` counts.  ``--experiment
faultmatrix`` instead replays the probe campaign under one canonical
plan per fault kind and writes ``faultmatrix_report.txt``; it never runs
as part of ``all``.

A non-clean tracecheck or a span/query-log reconciliation mismatch means
the harness, not a validator, misbehaved: the runner still writes every
artefact, says so loudly, and exits 1.  A failed worker raises
:class:`~repro.core.parallel.ShardError`.  All human-facing output flows through one
:class:`~repro.obs.progress.ProgressSink`, so ``--quiet`` silences
everything uniformly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.core import analysis as A
from repro.core import trace
from repro.core.campaign import (
    NotifyEmailCampaign,
    NotifyEmailResult,
    ProbeCampaign,
    ProbeCampaignResult,
    Testbed,
    apply_reputation_effects,
)
from repro.core.datasets import DatasetSpec, Universe, generate_universe
from repro.core.fingerprint import fingerprint_fleet
from repro.core.parallel import (
    default_workers,
    merge_raw_logs,
    run_notify_sharded,
    run_probe_sharded,
)
from repro.core.faultmatrix import FAULT_SCENARIOS, run_fault_matrix
from repro.core.querylog import QueryIndex, attribute_queries_with_stats
from repro.core.report import render_histogram
from repro.core.synth import SynthConfig
from repro.dns.server import QueryLogEntry
from repro.lint.tracecheck import check_index
from repro.net.faults import FaultPlan, derive_fault_seed
from repro.obs import NULL_OBS, ProgressSink
from repro.obs.export import render_metrics_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.reconcile import reconcile_spans
from repro.obs.spans import save_spans

EXPERIMENTS = ("notifyemail", "notifymx", "twoweekmx")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.core.runner",
        description="Re-run the paper's measurement experiments at a chosen scale.",
    )
    parser.add_argument(
        "--experiment",
        choices=EXPERIMENTS + ("all", "faultmatrix"),
        default="all",
        help="which experiment to run (default: all; 'faultmatrix' replays the "
        "probe under every fault kind and is never part of 'all')",
    )
    parser.add_argument("--scale", type=float, default=0.01, help="universe scale factor (default 0.01)")
    parser.add_argument("--seed", type=int, default=2021, help="master RNG seed")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable metrics/span collection (skips the *_metrics.txt / *_spans.jsonl artefacts)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="worker processes pulling campaign units from one work queue "
        "(default: one per CPU; 1 = serial)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault-injection plan: 'kind:prob[:param][@where],...' or a JSON "
        "rule array (see repro.net.faults); seeded from --seed, identical "
        "across worker counts.  An empty spec is a guaranteed no-op.",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the chosen experiments; 1 if any tracecheck or span
    reconciliation verdict failed (after every artefact is written)."""
    args = build_parser().parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    sink = ProgressSink(quiet=args.quiet)
    if args.experiment == "faultmatrix":
        _run_faultmatrix(args, sink)
        sink.say("all done in %.1f s -> %s" % (sink.elapsed(), args.out))
        return 0
    wanted = EXPERIMENTS if args.experiment == "all" else (args.experiment,)

    clean = True
    if "notifyemail" in wanted or "notifymx" in wanted:
        clean &= _run_notify_family(args, wanted, sink)
    if "twoweekmx" in wanted:
        clean &= _run_twoweekmx(args, sink)
    sink.say("all done in %.1f s -> %s" % (sink.elapsed(), args.out))
    if not clean:
        sink.warn("  !! self-check verdicts failed (see the warnings above); exit status 1")
        return 1
    return 0


def _make_faults(args) -> Optional[FaultPlan]:
    """The run's fault plan, or ``None`` when ``--faults`` was absent.

    The plan seed is derived from the master seed, so ``--seed`` stays
    the single reproducibility knob; every worker process re-derives the
    identical value from the same two strings."""
    if args.faults is None:
        return None
    return FaultPlan.parse(args.faults, seed=derive_fault_seed(args.faults, args.seed))


def _fault_shard_params(args) -> dict:
    """``faults_spec``/``faults_seed`` keywords for the sharded runners.

    The plan crosses the process boundary as two strings; each worker
    rebuilds an identical plan, and the pure per-event hash draws make
    its decisions match the serial path exactly."""
    if not args.faults:
        return {"faults_spec": "", "faults_seed": 0}
    return {
        "faults_spec": args.faults,
        "faults_seed": derive_fault_seed(args.faults, args.seed),
    }


def _make_testbed(args, universe, seed: int) -> Testbed:
    return Testbed(
        universe,
        seed=seed,
        obs=NULL_OBS if args.no_obs else None,
        faults=_make_faults(args),
    )


# -- report section builders (shared by the serial and sharded paths) ----


def _notifyemail_sections(universe: Universe, result: NotifyEmailResult) -> List[str]:
    analysis = A.analyze_notify(result)
    sections = [
        A.validation_breakdown_table(analysis).render(),
        A.spf_summary_table([A.notify_email_spf_row(universe, result, analysis)]).render(),
        A.provider_table(analysis).render(),
        A.alexa_table(universe, analysis).render(),
    ]
    timing = A.timing_analysis(result)
    sections.append(
        render_histogram(
            timing.buckets,
            title="Figure 2: t(SPF)-t(delivery), n=%d (negative %.0f%%, within30 %.0f%%)"
            % (timing.domains_used, 100 * timing.negative_fraction, 100 * timing.within_30s_fraction),
        )
    )
    return sections


def _notifymx_sections(universe: Universe, probe_result: ProbeCampaignResult) -> List[str]:
    sections = [
        A.spf_summary_table([A.probe_spf_row("NotifyMX", universe, probe_result)]).render(),
        A.behavior_table(A.behavior_stats(probe_result)).render(),
        fingerprint_fleet(probe_result).to_table().render(),
    ]
    limits = A.lookup_limit_analysis(probe_result)
    sections.append(
        "Figure 5: %d MTAs; within 10 lookups %.0f%%; all 46 lookups %.0f%%"
        % (limits.total, 100 * limits.within_limit_fraction, 100 * limits.ran_everything_fraction)
    )
    rejections = A.rejection_stats(probe_result)
    sections.append(
        "rejections: spam %d, blacklist %d, invalid recipient %d of %d MTAs"
        % (rejections.spam, rejections.blacklist, rejections.invalid_recipient, rejections.total_mtas)
    )
    return sections


def _twoweekmx_sections(universe: Universe, result: ProbeCampaignResult) -> List[str]:
    rows = [A.probe_spf_row("TwoWeekMX (all)", universe, result)]
    rows += A.decile_rows(universe, result)
    table = A.spf_summary_table(rows)
    mean, stdev = A.decile_consistency(rows[1:])
    table.notes.append("decile domain-rate mean %.1f%%, stdev %.1f" % (mean, stdev))
    return [
        table.render(),
        A.behavior_table(A.behavior_stats(result)).render(),
    ]


def _write_experiment(
    args,
    name: str,
    sections: List[str],
    result: Union[NotifyEmailResult, ProbeCampaignResult],
    raw_log: Sequence[QueryLogEntry],
    config: SynthConfig,
    sink: ProgressSink,
    write_obs: Callable[[], bool],
) -> bool:
    """Write one experiment's report, traces, tracecheck, and (through
    ``write_obs``) observability artefacts; False if a self-check failed."""
    report = args.out / ("%s_report.txt" % name)
    _write(report, sections)
    trace.save_query_log(result.index.queries, args.out / ("%s_queries.jsonl" % name))
    if isinstance(result, ProbeCampaignResult):
        trace.save_probe_results(result.results, args.out / ("%s_probes.jsonl" % name))
    clean = _postflight(raw_log, config, args.out / ("%s_tracecheck.txt" % name), sink)
    clean &= write_obs()
    sink.say("  -> %s" % report)
    return clean


def _run_notify_family(args, wanted, sink: ProgressSink) -> bool:
    """Run the notify experiments; False if any self-check failed."""
    sink.say("generating NotifyEmail universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.notify_email(scale=args.scale), seed=args.seed)
    if args.workers > 1:
        return _run_notify_family_sharded(args, wanted, sink, universe)
    testbed = _make_testbed(args, universe, seed=args.seed + 1)
    clean = True

    if "notifyemail" in wanted:
        sink.say("running NotifyEmail: one signed notification per domain ...")
        result = NotifyEmailCampaign(testbed).run()
        clean &= _write_experiment(
            args, "notifyemail", _notifyemail_sections(universe, result), result,
            testbed.synth.query_log, testbed.synth_config, sink,
            lambda: _write_obs(testbed, args.out, "notifyemail", sink),
        )

    if "notifymx" in wanted:
        sink.say("running NotifyMX: probing the same MTAs with soured reputation ...")
        apply_reputation_effects(universe, seed=args.seed + 2)
        probe_result = ProbeCampaign(testbed, "NotifyMX", start_time=1e7, seed=args.seed).run()
        clean &= _write_experiment(
            args, "notifymx", _notifymx_sections(universe, probe_result), probe_result,
            testbed.synth.query_log, testbed.synth_config, sink,
            lambda: _write_obs(testbed, args.out, "notifymx", sink),
        )
    return clean


def _run_notify_family_sharded(args, wanted, sink: ProgressSink, universe: Universe) -> bool:
    """The notify family over worker processes.

    Mirrors the serial path's cumulative-testbed semantics: the NotifyMX
    artefacts (query trace, tracecheck, metrics) cover the union of both
    campaigns' traffic, exactly as one shared testbed would have logged.
    """
    obs_enabled = not args.no_obs
    clean = True
    notify_raw: List[QueryLogEntry] = []
    notify_metrics: Optional[MetricsRegistry] = None

    if "notifyemail" in wanted:
        sink.say("running NotifyEmail over %d workers ..." % args.workers)
        merged = run_notify_sharded(
            universe,
            workers=args.workers,
            testbed_seed=args.seed + 1,
            obs=obs_enabled,
            reconcile=obs_enabled,
            **_fault_shard_params(args),
        )
        notify_raw = merged.raw_log
        notify_metrics = merged.metrics
        result = merged.result
        assert isinstance(result, NotifyEmailResult)
        clean &= _write_experiment(
            args, "notifyemail", _notifyemail_sections(universe, result), result,
            merged.raw_log, merged.synth_config, sink,
            lambda: _write_obs_merged(merged.metrics, merged.reconciled, args.out, "notifyemail", sink),
        )

    if "notifymx" in wanted:
        sink.say("running NotifyMX over %d workers ..." % args.workers)
        apply_reputation_effects(universe, seed=args.seed + 2)
        merged = run_probe_sharded(
            universe,
            "NotifyMX",
            workers=args.workers,
            testbed_seed=args.seed + 1,
            campaign_seed=args.seed,
            start_time=1e7,
            obs=obs_enabled,
            reconcile=obs_enabled,
            **_fault_shard_params(args),
        )
        probe_result = merged.result
        assert isinstance(probe_result, ProbeCampaignResult)
        # The serial path's NotifyMX artefacts are cumulative over the
        # shared testbed; reproduce that from the phases' merged logs.
        cumulative_raw = merge_raw_logs([notify_raw, merged.raw_log])
        probe_result.index = QueryIndex(attribute_queries_with_stats(cumulative_raw, merged.synth_config)[0])
        cumulative_metrics = merged.metrics
        if obs_enabled and notify_metrics is not None and merged.metrics is not None:
            cumulative_metrics = MetricsRegistry.merged([notify_metrics, merged.metrics])
        clean &= _write_experiment(
            args, "notifymx", _notifymx_sections(universe, probe_result), probe_result,
            cumulative_raw, merged.synth_config, sink,
            lambda: _write_obs_merged(cumulative_metrics, merged.reconciled, args.out, "notifymx", sink),
        )
    return clean


def _run_twoweekmx(args, sink: ProgressSink) -> bool:
    """Run TwoWeekMX; False if any self-check failed."""
    sink.say("generating TwoWeekMX universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.two_week_mx(scale=args.scale), seed=args.seed + 3)
    if args.workers > 1:
        sink.say("running TwoWeekMX probe campaign over %d workers ..." % args.workers)
        obs_enabled = not args.no_obs
        merged = run_probe_sharded(
            universe,
            "TwoWeekMX",
            workers=args.workers,
            testbed_seed=args.seed + 4,
            campaign_seed=args.seed,
            obs=obs_enabled,
            reconcile=obs_enabled,
            **_fault_shard_params(args),
        )
        result = merged.result
        assert isinstance(result, ProbeCampaignResult)
        return _write_experiment(
            args, "twoweekmx", _twoweekmx_sections(universe, result), result,
            merged.raw_log, merged.synth_config, sink,
            lambda: _write_obs_merged(merged.metrics, merged.reconciled, args.out, "twoweekmx", sink),
        )
    testbed = _make_testbed(args, universe, seed=args.seed + 4)
    sink.say("running TwoWeekMX probe campaign ...")
    result = ProbeCampaign(testbed, "TwoWeekMX", seed=args.seed).run()
    return _write_experiment(
        args, "twoweekmx", _twoweekmx_sections(universe, result), result,
        testbed.synth.query_log, testbed.synth_config, sink,
        lambda: _write_obs(testbed, args.out, "twoweekmx", sink),
    )


def _run_faultmatrix(args, sink: ProgressSink) -> None:
    """Replay the probe campaign under every canonical fault scenario
    (see :mod:`repro.core.faultmatrix`) and write the summary table."""
    if args.faults:
        sink.warn("  !! --faults is ignored by faultmatrix (it runs its own scenario set)")
    sink.say("generating fault-matrix universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.two_week_mx(scale=args.scale), seed=args.seed + 3)
    sink.say("running the probe under %d fault scenarios ..." % len(FAULT_SCENARIOS))
    matrix = run_fault_matrix(universe, seed=args.seed)
    _write(args.out / "faultmatrix_report.txt", [matrix.to_table().render()])
    sink.say("  -> %s" % (args.out / "faultmatrix_report.txt"))


def _postflight(
    entries: Sequence[QueryLogEntry], config: SynthConfig, path: Path, sink: ProgressSink
) -> bool:
    """Diff a raw query log against the policy footprints; the written
    report is an artefact like any other.  Serial callers pass the
    testbed's cumulative log, sharded callers the merged one.  Returns
    whether the trace was clean."""
    attributed, stats = attribute_queries_with_stats(entries, config)
    result = check_index(QueryIndex(attributed), config=config, stats=stats)
    header = "tracecheck: %d queries over %d (mtaid, testid) pairs" % (
        result.queries_checked,
        result.pairs_checked,
    )
    _write(path, [result.report.render_text(header=header)])
    if not result.clean:
        sink.warn("  !! tracecheck found %d conformance finding(s) -> %s"
                  % (len(result.report.diagnostics), path))
    return result.clean


def _write_obs(testbed: Testbed, out: Path, name: str, sink: ProgressSink) -> bool:
    """Export the testbed's cumulative metrics and spans (no-op under
    ``--no-obs``), then reconcile spans against the attributed query log
    as a second, independent witness of what the campaign did.  Returns
    False only on a reconciliation mismatch."""
    obs = testbed.obs
    if not obs.enabled:
        return True
    metrics_path = out / ("%s_metrics.txt" % name)
    _write(metrics_path, [render_metrics_text(obs.metrics, header="%s metrics" % name)])
    spans_path = out / ("%s_spans.jsonl" % name)
    count = save_spans(obs.tracer.finished, spans_path)
    sink.say("  -> %s (%d series), %s (%d spans)"
             % (metrics_path, len(obs.metrics), spans_path, count))
    verdict = reconcile_spans(obs.tracer.finished, testbed.query_index(), testbed.synth_config)
    if not verdict.matched:
        sink.warn("  !! span/query-log reconciliation mismatch:\n%s" % verdict.render_text())
    return verdict.matched


def _write_obs_merged(
    metrics: Optional[MetricsRegistry],
    reconciled: Optional[bool],
    out: Path,
    name: str,
    sink: ProgressSink,
) -> bool:
    """Export a parallel run's merged metrics (no-op under ``--no-obs``).

    Span objects never left the worker processes, so there is no
    ``<name>_spans.jsonl`` here; each worker instead reconciled its own
    spans against its own query log, and ``reconciled`` reports the
    conjunction of those per-worker verdicts.  Returns False only when
    that conjunction failed."""
    if metrics is None:
        return True
    metrics_path = out / ("%s_metrics.txt" % name)
    _write(metrics_path, [render_metrics_text(metrics, header="%s metrics" % name)])
    sink.say(
        "  -> %s (%d series); spans reconciled per worker, no span dump"
        % (metrics_path, len(metrics))
    )
    if reconciled is False:
        sink.warn("  !! span/query-log reconciliation mismatch in at least one worker")
    return reconciled is not False


def _write(path: Path, sections: List[str]) -> None:
    path.write_text("\n\n".join(sections) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
