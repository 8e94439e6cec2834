"""Observability overhead: live Observability vs the no-op fast path.

The obs layer is on by default (OBSERVABILITY.md), so it has to be cheap.
This bench runs identical campaigns twice — once with a live
:class:`~repro.obs.Observability` bundle, once with ``NULL_OBS`` — and
gates the relative slowdown of the paper's primary workload, the
NotifyEmail delivery campaign, at **< 5 %**.

Methodology, because shared machines are noisy:

* CPU time (``time.process_time``), not wall clock, so scheduler
  preemption does not count against whichever arm it happens to hit;
* the arms run interleaved in live/null pairs, so slow frequency drift
  lands on both equally;
* ``gc.collect()`` before every timed run, so neither arm pays for the
  other's garbage;
* the estimator is the minimum over rounds per arm — timing noise on an
  otherwise idle metric is strictly additive, so the smallest sample is
  the least-contaminated one (the ``timeit`` rationale);
* a reading over the gate triggers one re-measurement with more rounds
  before failing: on a shared box a single bad reading is usually
  scheduler noise, not a regression, and the minimum only improves as
  samples accumulate.

The probe campaign is reported as well but not gated: a probe
conversation is almost nothing *but* instrumented protocol rounds (no
message bodies, no DKIM signing), so its ratio is a worst-case
per-event diagnostic rather than a throughput claim.

Span memory is gated too: a worker process keeps a unit's spans only
until the unit ends (OBSERVABILITY.md, "Worker runs"), so its peak RSS
must stay near the coordinator's however many spans it opens.
"""

import gc
import os
import subprocess
import sys
import time

import pytest

from benchmarks.conftest import SEED, emit
from repro.core.campaign import NotifyEmailCampaign, ProbeCampaign, Testbed
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.trace import save_probe_results, save_query_log
from repro.obs import NULL_OBS
from repro.obs.spans import save_spans

#: Interleaved live/null pairs per measurement attempt.
ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", "9"))
#: Campaign scale — smaller than the table benches so a run stays ~1 s.
OBS_SCALE = float(os.environ.get("REPRO_BENCH_OBS_SCALE", "0.01"))
#: The gate from the observability contract.
THRESHOLD = 0.05
#: Worker-memory gate: a worker's peak RSS over the coordinator's, for
#: 2-worker TwoWeekMX at the larger of the two measured scales.
WORKER_RSS_RATIO = 1.6
#: Scales of the worker-memory runs; the last one is gated.
WORKER_RSS_SCALES = (0.01, 0.05)


def _time_campaign(universe, make_campaign, obs):
    """CPU seconds for one campaign run on a fresh testbed."""
    testbed = Testbed(universe, seed=SEED + 21, obs=obs)
    campaign = make_campaign(testbed)
    gc.collect()
    t_start = time.process_time()
    campaign.run()
    return time.process_time() - t_start


def _measure(universe, make_campaign, rounds, live, null):
    """Append ``rounds`` interleaved live/null samples to the lists."""
    for _ in range(rounds):
        live.append(_time_campaign(universe, make_campaign, None))
        null.append(_time_campaign(universe, make_campaign, NULL_OBS))
    return min(live), min(null)


def _recorded_events(universe, make_campaign):
    """Spans plus metric recordings from one live run (all counters in
    the codebase increment by 1, so totals count recording calls)."""
    testbed = Testbed(universe, seed=SEED + 21)
    make_campaign(testbed).run()
    metrics, tracer = testbed.obs.metrics, testbed.obs.tracer
    events = len(tracer)
    for name in metrics.names():
        kind = metrics.kind_of(name)
        for _labels, value in metrics.series(name):
            if kind == "counter":
                events += int(value)
            elif kind == "gauge":
                events += 1
            else:
                events += value.count
    return events


def _report(name, events, best_live, best_null):
    overhead = best_live / best_null - 1.0
    per_event = (best_live - best_null) / events if events else 0.0
    return (
        "%-22s %8d events  live %6.3f s  null %6.3f s  "
        "overhead %+5.1f %%  (%.2f us/event)"
        % (name, events, best_live, best_null, 100.0 * overhead, 1e6 * per_event)
    )


def test_notify_campaign_overhead_under_threshold():
    """The gate: < 5 % on the paper's primary delivery campaign."""
    universe = generate_universe(DatasetSpec.notify_email(scale=OBS_SCALE), seed=SEED + 20)
    make = NotifyEmailCampaign
    _time_campaign(universe, make, NULL_OBS)  # warm code paths and caches
    live, null = [], []
    best_live, best_null = _measure(universe, make, ROUNDS, live, null)
    if best_live / best_null - 1.0 >= 0.8 * THRESHOLD:
        # Borderline readings are usually noise; the minimum estimator
        # only improves as samples accumulate, so measure again.
        best_live, best_null = _measure(universe, make, 2 * ROUNDS, live, null)
    events = _recorded_events(universe, make)
    emit("obs overhead: notifyemail", _report("NotifyEmail delivery", events, best_live, best_null))
    overhead = best_live / best_null - 1.0
    assert overhead < THRESHOLD, (
        "live observability costs %.1f %% of NotifyEmail campaign CPU time "
        "(gate is %.0f %%; see OBSERVABILITY.md)" % (100 * overhead, 100 * THRESHOLD)
    )


def test_probe_campaign_overhead_reported():
    """Worst case, reported not gated: probe conversations are pure
    instrumented protocol rounds, so their per-event density is the
    ceiling for what the obs layer can cost."""
    universe = generate_universe(
        DatasetSpec.two_week_mx(scale=OBS_SCALE / 2), seed=SEED + 20
    )

    def make(testbed):
        return ProbeCampaign(testbed, "bench")

    _time_campaign(universe, make, NULL_OBS)
    live, null = [], []
    best_live, best_null = _measure(universe, make, ROUNDS, live, null)
    events = _recorded_events(universe, make)
    emit("obs overhead: probe", _report("TwoWeekMX probe", events, best_live, best_null))
    # Sanity bound only: this campaign exists to stress the obs layer.
    assert best_live / best_null - 1.0 < 1.0


def _write_us_per_record(save, records, path, rounds=5):
    """Best-of-``rounds`` CPU microseconds per record for one artefact write."""
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        t_start = time.process_time()
        save(records, path)
        best = min(best, time.process_time() - t_start)
    return 1e6 * best / len(records)


def test_primitive_costs_reported(tmp_path):
    """Per-operation costs of the three primitives and per-record costs
    of the three JSON-lines artefact writes, for the record."""
    from repro.obs import Observability

    obs = Observability()
    labels = (("command", "RCPT"), ("code_class", "2xx"))
    n = 100_000

    def per_op(body):
        gc.collect()
        t_start = time.process_time()
        for i in range(n):
            body(float(i))
        return 1e6 * (time.process_time() - t_start) / n

    counter_us = per_op(lambda t: obs.metrics.counter("bench_total", labels, t=t))
    observe_us = per_op(lambda t: obs.metrics.observe("bench_seconds", 0.25, labels, t=t))

    def span_once(t):
        with obs.tracer.span("bench.span", t, command="RCPT") as span:
            span.set(code=250)
            span.end(t + 1.0)

    span_us = per_op(span_once)

    # The runner's raw records, from one small live probe campaign.
    universe = generate_universe(DatasetSpec.two_week_mx(scale=OBS_SCALE / 2), seed=SEED + 20)
    testbed = Testbed(universe, seed=SEED + 21)
    results = ProbeCampaign(testbed, "bench").run().results
    spans = testbed.obs.tracer.finished
    queries = testbed.query_index().queries
    dump_us = _write_us_per_record(save_spans, spans, tmp_path / "spans.jsonl")
    querylog_us = _write_us_per_record(save_query_log, queries, tmp_path / "queries.jsonl")
    probes_us = _write_us_per_record(save_probe_results, results, tmp_path / "probes.jsonl")
    emit(
        "obs overhead: primitives",
        "counter %.2f us/op   observe %.2f us/op   span %.2f us/op   (n=%d)\n"
        "write: span dump %.2f us/record (n=%d)   query log %.2f us/record (n=%d)   "
        "probe transcripts %.2f us/record (n=%d)"
        % (counter_us, observe_us, span_us, n, dump_us, len(spans), querylog_us, len(queries),
           probes_us, len(results)),
    )
    # Generous sanity bounds — an order of magnitude above measured.
    assert counter_us < 5.0 and observe_us < 5.0 and span_us < 15.0


# One 2-worker TwoWeekMX run; prints its span count and the largest
# worker's and the coordinator's peak RSS in KiB (Linux ru_maxrss units).
_PEAK_RSS_SCRIPT = """
import resource, sys
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.parallel import run_probe_sharded

scale, seed = float(sys.argv[1]), int(sys.argv[2])
universe = generate_universe(DatasetSpec.two_week_mx(scale=scale), seed=seed)
merged = run_probe_sharded(universe, "twoweekmx", workers=2, testbed_seed=seed + 1)
assert merged.reconciled is True
print(merged.span_count, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_mb(scale):
    """(spans, worker MB, coordinator MB) of one run in a fresh interpreter:
    peak RSS is a process-lifetime maximum, so this one must not inherit
    the bench session's heap or its earlier children."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, repr(scale), str(SEED)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    spans, worker_kib, coordinator_kib = map(int, completed.stdout.split())
    return spans, worker_kib / 1024.0, coordinator_kib / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_worker_span_memory_is_bounded():
    """A worker process drops each unit's spans at the unit's end, so its
    peak RSS stays within 1.6x the coordinator's as the campaign grows
    (keeping every span until the shard ended cost about 2x at 0.05)."""
    lines, ratio = [], 0.0
    for scale in WORKER_RSS_SCALES:
        spans, worker_mb, coordinator_mb = _peak_rss_mb(scale)
        ratio = worker_mb / coordinator_mb
        lines.append(
            "worker memory: TwoWeekMX scale %g, 2 workers, %d spans: worker peak %.1f MB, "
            "coordinator peak %.1f MB (%.2fx)" % (scale, spans, worker_mb, coordinator_mb, ratio)
        )
    emit("obs overhead: worker memory", "\n".join(lines), append=True)
    assert ratio <= WORKER_RSS_RATIO, (
        "a worker peaks at %.2fx the coordinator's RSS at scale %g (gate %.1fx): "
        "are worker spans outliving their unit?" % (ratio, WORKER_RSS_SCALES[-1], WORKER_RSS_RATIO)
    )
