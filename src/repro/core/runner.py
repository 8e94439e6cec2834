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

Every campaign runs on one engine, :mod:`repro.core.parallel`.
``--workers N`` (default: one per usable CPU) sets how many workers pull MTA
units (probe campaigns) or provider units (NotifyEmail) from its work
queue; ``--workers 1`` is one in-process worker of the same engine, not
a separate path.  Each worker attributes its own query log once; the
merge is deterministic and attributes nothing again, so every report,
trace, tracecheck, and metrics artefact is identical whichever worker
count produced it, and whichever worker ran which unit.  Each worker
reconciles its spans against its own query log.
The one exception is ``<name>_spans.jsonl``: span objects never cross a
process boundary, so only a one-worker run writes the span dump.

``--faults SPEC`` threads a deterministic fault-injection plan
(:mod:`repro.net.faults`) through every layer of the testbed; the plan's
seed derives from ``--seed``, so a faulted run is as reproducible as a
clean one — including across ``--workers`` counts.  ``--experiment
faultmatrix`` instead replays the probe campaign under one canonical
plan per fault kind on the same engine and ``--workers``, with obs on
(its injection tallies are metrics), and writes the same
``faultmatrix_report.txt`` for every worker count; it never runs as
part of ``all``.

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
from typing import List, Optional

from repro.core import analysis as A
from repro.core import trace
from repro.core.campaign import (
    NotifyEmailResult,
    ProbeCampaignResult,
    apply_reputation_effects,
)
from repro.core.datasets import DatasetSpec, Universe, generate_universe
from repro.core.fingerprint import fingerprint_fleet
from repro.core.parallel import (
    MergedCampaign,
    default_workers,
    run_notify_sharded,
    run_probe_sharded,
)
from repro.core.faultmatrix import FAULT_SCENARIOS, run_fault_matrix
from repro.core.querylog import QueryIndex
from repro.core.report import render_histogram
from repro.core.synth import SynthConfig
from repro.lint.tracecheck import check_index
from repro.net.faults import derive_fault_seed
from repro.obs import ProgressSink
from repro.obs.export import render_metrics_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import save_spans

EXPERIMENTS = ("notifyemail", "notifymx", "twoweekmx")


def _positive(kind):
    """An argparse type: ``kind(text)``, rejected unless it is finite and
    above 0."""

    def parse(text: str):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError("must be finite and above 0, got %r" % text)
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


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
        "probe under every fault kind over --workers workers and is never part of 'all')",
    )
    parser.add_argument("--scale", type=_positive(float), default=0.01, help="universe scale factor (default 0.01)")
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
        type=_positive(int),
        default=default_workers(),
        help="workers pulling campaign units from one work queue "
        "(default: one per usable CPU; 1 = one in-process worker)",
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
    wanted = EXPERIMENTS if args.experiment == "all" else (args.experiment,)

    clean = True
    if args.experiment == "faultmatrix":
        clean &= _run_faultmatrix(args, sink)
    if "notifyemail" in wanted or "notifymx" in wanted:
        clean &= _run_notify_family(args, wanted, sink)
    if "twoweekmx" in wanted:
        clean &= _run_twoweekmx(args, sink)
    sink.say("all done in %.1f s -> %s" % (sink.elapsed(), args.out))
    if not clean:
        sink.warn("  !! self-check verdicts failed (see the warnings above); exit status 1")
        return 1
    return 0


def _engine_params(args) -> dict:
    """The keywords every ``run_*_sharded`` call shares.

    The fault plan travels as a spec string and a seed derived from the
    master seed, so ``--seed`` stays the single reproducibility knob;
    each worker rebuilds an identical plan, and its pure per-event hash
    draws make the same decisions whichever worker runs a unit."""
    params = {"workers": args.workers, "obs": not args.no_obs}
    if args.faults:
        params.update(faults_spec=args.faults, faults_seed=derive_fault_seed(args.faults, args.seed))
    return params


# -- report section builders ---------------------------------------------


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
    args, name: str, sections: List[str], merged: MergedCampaign, sink: ProgressSink
) -> bool:
    """Write one experiment's report, traces, tracecheck, and
    observability artefacts; False if a self-check failed."""
    report = args.out / ("%s_report.txt" % name)
    _write(report, sections)
    result = merged.result
    trace.save_query_log(result.index.queries, args.out / ("%s_queries.jsonl" % name))
    if isinstance(result, ProbeCampaignResult):
        trace.save_probe_results(result.results, args.out / ("%s_probes.jsonl" % name))
    tracecheck = args.out / ("%s_tracecheck.txt" % name)
    clean = _postflight(result.index, merged.synth_config, tracecheck, sink)
    clean &= _write_obs(merged, args.out, name, sink)
    sink.say("  -> %s" % report)
    return clean


def _run_notify_family(args, wanted, sink: ProgressSink) -> bool:
    """Run the notify experiments; False if any self-check failed."""
    sink.say("generating NotifyEmail universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.notify_email(scale=args.scale), seed=args.seed)
    clean = True
    notify: Optional[MergedCampaign] = None

    if "notifyemail" in wanted:
        sink.say("running NotifyEmail over %d worker(s): one signed notification per domain ..."
                 % args.workers)
        notify = run_notify_sharded(universe, testbed_seed=args.seed + 1, **_engine_params(args))
        assert isinstance(notify.result, NotifyEmailResult)
        clean &= _write_experiment(
            args, "notifyemail", _notifyemail_sections(universe, notify.result), notify, sink
        )

    if "notifymx" in wanted:
        sink.say("running NotifyMX over %d worker(s): probing the same MTAs with soured reputation ..."
                 % args.workers)
        apply_reputation_effects(universe, seed=args.seed + 2)
        merged = run_probe_sharded(
            universe,
            "NotifyMX",
            testbed_seed=args.seed + 1,
            campaign_seed=args.seed,
            start_time=1e7,
            **_engine_params(args),
        )
        if notify is not None:
            _accumulate(notify, merged)
        assert isinstance(merged.result, ProbeCampaignResult)
        clean &= _write_experiment(
            args, "notifymx", _notifymx_sections(universe, merged.result), merged, sink
        )
    return clean


def _accumulate(notify: MergedCampaign, notifymx: MergedCampaign) -> None:
    """Make ``notifymx`` cumulative over both notify campaigns, as if one
    testbed had run them back to back (see ``OBSERVABILITY.md``): the
    two attributed indexes merge by timestamp into the one the NotifyMX
    report and tracecheck read, the metrics merge, and the NotifyMX
    spans follow the NotifyEmail spans with their ids shifted past the
    first phase's."""
    notifymx.result.index = QueryIndex.merge([notify.result.index, notifymx.result.index])
    if notify.metrics is not None and notifymx.metrics is not None:
        notifymx.metrics = MetricsRegistry.merged([notify.metrics, notifymx.metrics])
    if notify.spans is not None and notifymx.spans is not None:
        offset = max((span.span_id for span in notify.spans), default=0)
        for span in notifymx.spans:
            span.span_id += offset
            if span.parent_id is not None:
                span.parent_id += offset
        notifymx.spans = notify.spans + notifymx.spans


def _run_twoweekmx(args, sink: ProgressSink) -> bool:
    """Run TwoWeekMX; False if any self-check failed."""
    sink.say("generating TwoWeekMX universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.two_week_mx(scale=args.scale), seed=args.seed + 3)
    sink.say("running TwoWeekMX probe campaign over %d worker(s) ..." % args.workers)
    merged = run_probe_sharded(
        universe, "TwoWeekMX", testbed_seed=args.seed + 4, campaign_seed=args.seed,
        **_engine_params(args),
    )
    assert isinstance(merged.result, ProbeCampaignResult)
    return _write_experiment(
        args, "twoweekmx", _twoweekmx_sections(universe, merged.result), merged, sink
    )


def _run_faultmatrix(args, sink: ProgressSink) -> bool:
    """Replay the probe campaign under every canonical fault scenario
    (see :mod:`repro.core.faultmatrix`) and write the summary table;
    False if any scenario's span reconciliation failed."""
    if args.faults:
        sink.warn("  !! --faults is ignored by faultmatrix (it runs its own scenario set)")
    sink.say("generating fault-matrix universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.two_week_mx(scale=args.scale), seed=args.seed + 3)
    sink.say("running the probe under %d fault scenarios over %d worker(s) ..."
             % (len(FAULT_SCENARIOS), args.workers))
    matrix = run_fault_matrix(universe, seed=args.seed, workers=args.workers)
    _write(args.out / "faultmatrix_report.txt", [matrix.to_table().render()])
    sink.say("  -> %s" % (args.out / "faultmatrix_report.txt"))
    if not matrix.reconciled:
        sink.warn("  !! span/query-log reconciliation mismatch in at least one fault scenario")
    return matrix.reconciled


def _postflight(index: QueryIndex, config: SynthConfig, path: Path, sink: ProgressSink) -> bool:
    """Diff an attributed query log against the policy footprints; the
    written report is an artefact like any other.  Returns whether the
    trace was clean."""
    result = check_index(index, config=config)
    header = "tracecheck: %d queries over %d (mtaid, testid) pairs" % (
        result.queries_checked,
        result.pairs_checked,
    )
    _write(path, [result.report.render_text(header=header)])
    if not result.clean:
        sink.warn("  !! tracecheck found %d conformance finding(s) -> %s"
                  % (len(result.report.diagnostics), path))
    return result.clean


def _write_obs(merged: MergedCampaign, out: Path, name: str, sink: ProgressSink) -> bool:
    """Export the campaign's metrics and, from a one-worker run, its span
    dump (no-op under ``--no-obs``).  Every worker reconciled its spans
    against its own query log, a second, independent witness of what the
    campaign did; returns False only when one of them mismatched."""
    if merged.metrics is None:
        return True
    metrics_path = out / ("%s_metrics.txt" % name)
    _write(metrics_path, [render_metrics_text(merged.metrics, header="%s metrics" % name)])
    spans = "spans reconciled per worker, no span dump"
    if merged.spans is not None:
        spans_path = out / ("%s_spans.jsonl" % name)
        spans = "%s (%d spans)" % (spans_path, save_spans(merged.spans, spans_path))
    sink.say("  -> %s (%d series), %s" % (metrics_path, len(merged.metrics), spans))
    if merged.reconciled is False:
        sink.warn("  !! span/query-log reconciliation mismatch in at least one worker")
    return merged.reconciled is not False


def _write(path: Path, sections: List[str]) -> None:
    path.write_text("\n\n".join(sections) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
