"""Tests for work-queue parallel campaign execution (repro.core.parallel).

The load-bearing property is *differential*: for W ∈ {1, 2, 3, 4} workers
(one in-process worker, or W worker processes; with a fault plan too at
W ∈ {2, 3}) a parallel run must produce the same attributed-query
multiset, the same analysis tables, the same metrics, and the same
tracecheck verdict as a plain campaign run, whichever worker ran which
unit.
Everything else (unit grouping, merge algebra, loud worker failures)
supports that headline guarantee.
"""

import dataclasses
import gc
import math
import multiprocessing
import os
import pickle
import random
import signal
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import analysis as A
from repro.core import campaign as campaign_module
from repro.core.campaign import (
    NotifyEmailCampaign,
    ProbeCampaign,
    Testbed,
    make_synth_config,
    notify_schedule,
    probe_schedule,
)
from repro.core.datasets import DatasetSpec, generate_universe, stable_hash64
from repro.core import parallel as parallel_module
from repro.core.policies import POLICIES, TestPolicy
from repro.core.preflight import PreflightError
from repro.core.probe import ProbeClient
from repro.core.parallel import (
    ShardError,
    ShardJob,
    WorkerSlot,
    default_workers,
    notify_units,
    probe_units,
    run_notify_sharded,
    run_probe_sharded,
    run_shard,
)
from repro.core.querylog import QueryIndex, attribute_queries_with_stats
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.server import QueryLogEntry
from repro.lint.tracecheck import check_index
from repro.mta.sender import SendingMta
from repro.net.faults import FaultPlan
from repro.obs import Observability
from repro.obs.metrics import Histogram, MetricsRegistry


@pytest.fixture(scope="module")
def universe():
    return generate_universe(DatasetSpec.notify_email(scale=0.004), seed=7)


@pytest.fixture(scope="module")
def serial_notify(universe):
    obs = Observability()
    testbed = Testbed(universe, seed=3, obs=obs)
    result = NotifyEmailCampaign(testbed).run()
    return result, testbed, obs


@pytest.fixture(scope="module")
def serial_probe(universe):
    obs = Observability()
    testbed = Testbed(universe, seed=3, obs=obs)
    result = ProbeCampaign(testbed, "notifymx", seed=5, start_time=1e7).run()
    return result, testbed, obs


@pytest.fixture(scope="module")
def run_log(serial_notify, serial_probe):
    """A NotifyEmail log followed by a NotifyMX log (where the NotifyMX
    phase starts), plus unattributable entries that tie existing
    timestamps: (log, boundary, synth config)."""
    notify_log = list(serial_notify[1].synth.query_log)
    probe_log = list(serial_probe[1].synth.query_log)
    config = serial_probe[1].synth_config
    strays = ["www.example.com", "x.%s" % config.probe_suffix, config.notify_suffix]
    for log in (notify_log, probe_log):
        for position in (len(log) // 3, len(log) // 2, len(log) - 1):
            tie = log[position]
            for text in strays:
                log.insert(
                    position + 1,
                    QueryLogEntry(tie.timestamp, Name(text), RdataType.TXT, "udp", tie.client_ip),
                )
    return notify_log + probe_log, len(notify_log), config


def query_key(query):
    """Everything observable about one attributed query.

    qname compares by case-insensitive key: DNS 0x20 casing is resolver
    state, invisible to attribution and to every analysis.
    """
    return (
        query.timestamp,
        query.entry.qname.key,
        int(query.qtype),
        query.transport,
        query.entry.client_ip,
        query.mtaid,
        query.testid,
    )


class TestUnits:
    def test_stable_hash_is_seed_independent(self):
        # blake2b is stable across processes and runs, unlike the salted
        # builtin hash(); per-MTA probe orders derive from it.
        assert stable_hash64("mta00001") == stable_hash64("mta00001")
        assert stable_hash64("mta00001") != stable_hash64("mta00002")

    def test_units_are_disjoint_and_complete(self, universe):
        probe = probe_schedule(universe, ("t01", "t02"), seed=5)
        units = probe_units(probe)
        # One unit per MTA; equal sizes keep schedule order.
        assert [task for u in units for task in u.tasks] == probe
        assert [u.key for u in units] == [task.host.mtaid for task in probe]
        notify = notify_schedule(universe.domains)
        tasks = [task.domain.domainid for u in notify_units(notify) for task in u.tasks]
        assert len(tasks) == len(set(tasks))
        assert sorted(tasks) == sorted(d.domainid for d in universe.domains)

    def test_provider_domains_form_one_notify_unit(self, universe):
        """Every domain of one provider lands in one unit, in schedule
        order, and no two units share a receiver — receiver state
        (resolver caches, greylists) must not depend on which units one
        worker ran before."""
        units = notify_units(notify_schedule(universe.domains))
        keys = [u.key for u in units]
        assert len(keys) == len(set(keys))
        assert sorted(keys) == sorted({d.provider_key for d in universe.domains})
        receivers = set()
        for unit in units:
            assert {task.domain.provider_key for task in unit.tasks} == {unit.key}
            times = [task.start_time for task in unit.tasks]
            assert times == sorted(times)
            pool = {host.mtaid for task in unit.tasks for host in task.domain.mta_hosts}
            assert not receivers & pool
            receivers |= pool

    def test_units_are_largest_first(self, universe):
        units = notify_units(notify_schedule(universe.domains))
        sizes = [len(u.tasks) for u in units]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > sizes[-1]
        probe = probe_units(probe_schedule(universe, ("t01", "t02", "t03"), seed=5))
        assert {len(task.order) for u in probe for task in u.tasks} == {3}

    def test_units_are_reproducible(self):
        a = generate_universe(DatasetSpec.notify_email(scale=0.004), seed=7)
        b = generate_universe(DatasetSpec.notify_email(scale=0.004), seed=7)
        assert [u.key for u in notify_units(notify_schedule(a.domains))] == [
            u.key for u in notify_units(notify_schedule(b.domains))
        ]


@pytest.fixture
def keygens(monkeypatch):
    """The seeds of every ``generate_keypair`` call the campaign layer
    makes, starting from an empty per-process key memo."""
    calls = []
    real = campaign_module.generate_keypair

    def counting(bits, seed):
        calls.append(seed)
        return real(bits, seed=seed)

    monkeypatch.setattr(campaign_module, "generate_keypair", counting)
    campaign_module._seeded_keypair.cache_clear()
    yield calls
    campaign_module._seeded_keypair.cache_clear()  # drop the counted keys


class TestDefaultWorkers:
    """One worker per CPU the process may run on."""

    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_workers() == 1

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1


class TestKeypairMemo:
    def test_one_keygen_per_seed_per_process(self, keygens):
        seed = 424242
        first_config = make_synth_config(seed)
        second_config = make_synth_config(seed)
        # Building a config generates nothing: the key comes on first use.
        assert keygens == []
        assert first_config.dkim_key() == second_config.dkim_key()
        assert len(keygens) == 1
        # The config is mutable, so every call gets its own.
        assert first_config is not second_config

    def test_probe_campaigns_generate_no_key(self, universe, keygens, tmp_path):
        from repro.core.runner import main

        run_probe_sharded(universe, "TwoWeekMX", testids=("t01", "t02"), workers=1, testbed_seed=5)
        code = main([
            "--experiment", "twoweekmx", "--scale", "0.003", "--seed", "11",
            "--workers", "1", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        assert keygens == []

    def test_notify_generates_one_key_per_seed(self, universe, keygens):
        # Generated once, before the fork: the workers inherit the key.
        run_notify_sharded(universe, workers=2, testbed_seed=6)
        assert keygens == [6 + 4242]
        run_notify_sharded(universe, workers=1, testbed_seed=6)
        testbed = Testbed(universe, seed=6)
        assert testbed.keypair.public.to_base64() == testbed.synth_config.dkim_key()
        assert keygens == [6 + 4242]


class TestMergeAlgebra:
    def _registry(self, base):
        registry = MetricsRegistry()
        registry.counter("x_total", (("k", "a"),), value=base, t=float(base))
        registry.counter("x_total", (("k", "b"),), value=2 * base)
        registry.observe("d_seconds", 0.1 * base)
        registry.observe("d_seconds", 3.0)
        registry.gauge("g", base)
        return registry

    def test_registry_merge_is_associative_and_commutative(self):
        registries = [self._registry(b) for b in (1, 2, 3)]
        left = MetricsRegistry.merged(
            [MetricsRegistry.merged(registries[:2]), registries[2]]
        )
        right = MetricsRegistry.merged(
            [registries[0], MetricsRegistry.merged(registries[1:])]
        )
        reversed_ = MetricsRegistry.merged([self._registry(b) for b in (3, 2, 1)])
        for other in (right, reversed_):
            assert left.counter_value("x_total", (("k", "a"),)) == other.counter_value(
                "x_total", (("k", "a"),)
            )
            assert left.histogram("d_seconds").counts == other.histogram("d_seconds").counts
            assert math.isclose(
                left.histogram("d_seconds").total, other.histogram("d_seconds").total
            )
            assert left.virtual_time == other.virtual_time == 3.0
        # Gauges are last-writer-wins: the one intentionally
        # order-dependent series (callers overwrite campaign globals).
        assert left.gauge_value("g") == 3.0
        assert reversed_.gauge_value("g") == 1.0

    def test_histogram_merge_rejects_different_buckets(self):
        a, b = Histogram([1.0, 2.0]), Histogram([1.0, 3.0])
        with pytest.raises(ValueError):
            a.merge_from(b)

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(at_boundary=st.booleans(), parts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_query_index_merge_matches_rebuild(self, run_log, at_boundary, parts, seed):
        """Attributing parts of a log apart and merging the indexes is
        attributing the timestamp-sorted whole once, stats included.
        Parts keep the log's arrival order, as a worker's log does; with
        ``at_boundary`` the log first splits between NotifyEmail and
        NotifyMX and the two merged halves merge again, as the runner
        accumulates them."""
        log, boundary, config = run_log
        rng = random.Random(seed)

        def split(entries):
            owners = [rng.randrange(parts) for _ in entries]
            return [[e for e, o in zip(entries, owners) if o == part] for part in range(parts)]

        def merged_index(pieces):
            return QueryIndex.merge(
                [QueryIndex(*attribute_queries_with_stats(piece, config)) for piece in pieces]
            )

        if at_boundary:
            halves = [split(log[:boundary]), split(log[boundary:])]
            merged = QueryIndex.merge([merged_index(half) for half in halves])
            pieces = halves[0] + halves[1]
        else:
            pieces = split(log)
            merged = merged_index(pieces)
        union = sorted((entry for piece in pieces for entry in piece), key=lambda e: e.timestamp)
        rebuilt = QueryIndex(*attribute_queries_with_stats(union, config))
        assert merged.queries == rebuilt.queries
        assert merged.stats == rebuilt.stats
        assert merged.pairs() == rebuilt.pairs()
        assert merged.stats.dropped_short and merged.stats.dropped_foreign


def assert_metrics_equal(serial: MetricsRegistry, merged: MetricsRegistry):
    assert serial.names() == merged.names()
    for name in serial.names():
        kind = serial.kind_of(name)
        assert merged.kind_of(name) == kind
        for labels, value in serial.series(name):
            if kind == "counter":
                assert merged.counter_value(name, labels) == value, (name, labels)
            elif kind == "gauge":
                assert merged.gauge_value(name, labels) == value, (name, labels)
            else:
                other = merged.histogram(name, labels)
                assert other is not None
                assert other.counts == value.counts, (name, labels)
                assert other.count == value.count
                # Float sums associate differently across shards; counts
                # and bucket contents are exact.
                assert math.isclose(other.total, value.total, rel_tol=1e-9)
    assert merged.virtual_time == serial.virtual_time


def assert_notify_equal(serial, obs, merged):
    assert Counter(map(query_key, merged.result.index.queries)) == Counter(
        map(query_key, serial.index.queries)
    )
    assert [d.domain.domainid for d in merged.result.deliveries] == [
        d.domain.domainid for d in serial.deliveries
    ]
    assert [d.delivery.accepted_with_250 for d in merged.result.deliveries] == [
        d.delivery.accepted_with_250 for d in serial.deliveries
    ]
    assert_metrics_equal(obs.metrics, merged.metrics)
    analysis_serial = A.analyze_notify(serial)
    analysis_merged = A.analyze_notify(merged.result)
    assert (
        A.validation_breakdown_table(analysis_serial).render()
        == A.validation_breakdown_table(analysis_merged).render()
    )
    assert (
        A.provider_table(analysis_serial).render()
        == A.provider_table(analysis_merged).render()
    )


def assert_probe_equal(serial, obs, merged):
    assert Counter(map(query_key, merged.result.index.queries)) == Counter(
        map(query_key, serial.index.queries)
    )
    assert [
        (r.mtaid, r.testid, r.stage_reached, r.t_started, r.t_finished)
        for r in merged.result.results
    ] == [
        (r.mtaid, r.testid, r.stage_reached, r.t_started, r.t_finished)
        for r in serial.results
    ]
    assert list(merged.result.probed) == list(serial.probed)
    assert merged.result.recipient_domain == serial.recipient_domain
    assert_metrics_equal(obs.metrics, merged.metrics)
    assert (
        A.behavior_table(A.behavior_stats(merged.result)).render()
        == A.behavior_table(A.behavior_stats(serial)).render()
    )


def probe_parallel(universe, workers, **extra):
    return run_probe_sharded(
        universe,
        "notifymx",
        workers=workers,
        testbed_seed=3,
        campaign_seed=5,
        start_time=1e7,
        **extra,
    )


FAULTS_SPEC = "udp_loss:0.1,servfail:0.05,banner_delay:0.2:45"
FAULTS_SEED = 11


@pytest.fixture(scope="module")
def serial_faulted_probe(universe):
    obs = Observability()
    plan = FaultPlan.parse(FAULTS_SPEC, seed=FAULTS_SEED)
    testbed = Testbed(universe, seed=3, obs=obs, faults=plan)
    result = ProbeCampaign(testbed, "notifymx", seed=5, start_time=1e7).run()
    return result, testbed, obs


class TestDifferentialEquivalence:
    """A plain run vs the engine, W ∈ {1, 2, 3, 4}, both campaign kinds:
    one in-process worker, or W worker processes pulling from the shared
    queue."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_notify_campaign(self, universe, serial_notify, workers):
        serial, _, obs = serial_notify
        merged = run_notify_sharded(universe, workers=workers, testbed_seed=3)
        assert_notify_equal(serial, obs, merged)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_probe_campaign(self, universe, serial_probe, workers):
        serial, _, obs = serial_probe
        assert_probe_equal(serial, obs, probe_parallel(universe, workers))

    def test_tracecheck_verdicts_match(self, universe, serial_probe):
        serial, testbed, _ = serial_probe
        merged = probe_parallel(universe, 4)
        serial_check = check_index(serial.index, config=testbed.synth_config)
        merged_check = check_index(merged.result.index, config=merged.synth_config)
        assert serial_check.clean == merged_check.clean
        assert serial_check.queries_checked == merged_check.queries_checked
        assert serial_check.pairs_checked == merged_check.pairs_checked

    def test_probe_schedule_is_stable_across_calls(self, universe):
        # The eligible pool is sorted before the seeded shuffle, so the
        # schedule repeats exactly, whatever order the universe lists its
        # MTAs in.
        def key(schedule):
            return [(t.host.mtaid, t.rcpt_domain, t.start_time, t.order) for t in schedule]

        full = probe_schedule(universe, ("t01", "t02"), seed=5)
        assert key(probe_schedule(universe, ("t01", "t02"), seed=5)) == key(full)
        reordered = dataclasses.replace(universe, mtas=universe.mtas[::-1])
        assert key(probe_schedule(reordered, ("t01", "t02"), seed=5)) == key(full)


class TestRealProcesses:
    """Serial vs worker processes pulling from the shared queue."""

    def test_multiprocessing_smoke(self, universe, serial_notify):
        """Pickling, the shared queue, and the merge give a plain run's
        queries, and the workers' span tallies come home."""
        serial, _, _ = serial_notify
        merged = run_notify_sharded(universe, workers=2, testbed_seed=3)
        assert Counter(map(query_key, merged.result.index.queries)) == Counter(
            map(query_key, serial.index.queries)
        )
        assert merged.span_count > 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_notify_campaign_processes(self, universe, serial_notify, workers):
        serial, _, obs = serial_notify
        merged = run_notify_sharded(universe, workers=workers, testbed_seed=3)
        assert_notify_equal(serial, obs, merged)
        # Spans never cross a pipe: only the workers' tallies come home,
        # and they count every span a plain run opens, plus one
        # campaign.run root per extra worker.
        assert merged.spans is None
        assert merged.span_count == len(obs.tracer.finished) + workers - 1
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_probe_campaign_processes(self, universe, serial_probe, workers):
        serial, _, obs = serial_probe
        merged = probe_parallel(universe, workers)
        assert_probe_equal(serial, obs, merged)
        assert merged.spans is None
        assert merged.span_count == len(obs.tracer.finished) + workers - 1
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_faulted_probe_campaign_processes(self, universe, serial_faulted_probe, workers):
        serial, _, obs = serial_faulted_probe
        merged = probe_parallel(universe, workers, faults_spec=FAULTS_SPEC, faults_seed=FAULTS_SEED)
        assert_probe_equal(serial, obs, merged)
        assert merged.metrics.counter_value("faults_injected_total", (("kind", "udp_loss"),))

    def test_per_shard_reconciliation(self, universe):
        merged = probe_parallel(universe, 2, testids=("t01", "t03"))
        assert merged.reconciled is True
        # Spans never cross a pipe: only the verdicts and tallies do.
        assert merged.spans is None and merged.span_count > 0


def probe_job(universe, testids=("t01", "t03")):
    """The one-slot probe job :func:`run_probe_sharded` would build."""
    schedule = probe_schedule(universe, testids, seed=5, start_time=1e7)
    return ShardJob(
        campaign=parallel_module._PROBE_CAMPAIGN,
        shard=WorkerSlot(0),
        universe=universe,
        units=probe_units(schedule),
        testbed_seed=3,
        options={"name": "notifymx", "testids": testids, "start_time": 1e7, "seed": 5},
    )


class TestSpanFold:
    """A worker process folds each unit's spans at its boundary: it
    tallies them and keeps only the dns.exchange spans its reconcile
    reads; the in-process worker keeps every span."""

    def test_worker_process_keeps_only_the_exchanges(self, universe, monkeypatch):
        job = probe_job(universe)
        whole = run_shard(job)
        assert whole.span_count == len(whole.spans) > 0
        assert {span.name for span in whole.spans} > {"dns.exchange"}
        # Run the way _worker_main runs it: units pulled from a source.
        monkeypatch.setattr(parallel_module, "_unit_source", iter(range(len(job.units))))
        folded = run_shard(job)
        assert folded.span_count == whole.span_count
        assert folded.reconciled is True and whole.reconciled is True
        exchanges = [span for span in whole.spans if span.name == "dns.exchange"]
        assert exchanges
        assert list(map(span_key, folded.spans)) == list(map(span_key, exchanges))


def span_key(span):
    return (span.span_id, span.parent_id, span.name, span.t_start, span.t_end, span.attrs)


class TestOneWorker:
    """One worker runs in-process and is a plain campaign run, spans too."""

    def test_notify_spans_match_serial(self, universe, serial_notify):
        _, _, obs = serial_notify
        merged = run_notify_sharded(universe, workers=1, testbed_seed=3)
        assert list(map(span_key, merged.spans)) == list(map(span_key, obs.tracer.finished))

    def test_probe_spans_match_serial(self, universe, serial_probe):
        _, _, obs = serial_probe
        merged = probe_parallel(universe, 1)
        assert list(map(span_key, merged.spans)) == list(map(span_key, obs.tracer.finished))

    def test_preflight_still_rejects_a_policy_without_spf(self, universe, monkeypatch):
        broken = TestPolicy("tx", "no_spf", "publishes nothing", {(): [("A", "192.0.2.1")]})
        monkeypatch.setattr(parallel_module, "policy_by_id", lambda testid: broken)
        with pytest.raises(PreflightError, match="tx"):
            probe_parallel(universe, 1, testids=("tx",))


def fail_probes_of(monkeypatch, mtaid, action):
    """Make every probe of ``mtaid`` call ``action`` first.  Worker
    processes are forked after the patch, so they inherit it."""
    real = ProbeClient.probe

    def probe(self, address, probe_mtaid, *args):
        if probe_mtaid == mtaid:
            action()
        return real(self, address, probe_mtaid, *args)

    monkeypatch.setattr(ProbeClient, "probe", probe)


def boom():
    raise RuntimeError("injected probe failure")


class TestWorkerFailures:
    """A failed unit or a dead worker fails the call loudly, names the
    worker slot (and the unit when known), and leaves no worker behind."""

    def _last_probe_unit(self, universe):
        return probe_units(probe_schedule(universe, [p.testid for p in POLICIES], seed=5))[-1].key

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "processes"])
    def test_failed_probe_unit_is_named(self, universe, monkeypatch, workers):
        mtaid = self._last_probe_unit(universe)
        fail_probes_of(monkeypatch, mtaid, boom)
        with pytest.raises(ShardError) as caught:
            probe_parallel(universe, workers)
        assert caught.value.unit == mtaid
        assert "injected probe failure" in str(caught.value)
        assert str(caught.value).startswith("worker %d on unit %s" % (caught.value.slot, mtaid))
        assert caught.value.slot < workers
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "processes"])
    def test_failed_notify_unit_names_provider(self, universe, monkeypatch, workers):
        unit = notify_units(notify_schedule(universe.domains))[0]
        doomed = {"operator@%s" % task.domain.name for task in unit.tasks}
        real = SendingMta.send

        def send(self, message, from_address, to_address, t):
            if to_address in doomed:
                raise RuntimeError("injected delivery failure")
            return real(self, message, from_address, to_address, t)

        monkeypatch.setattr(SendingMta, "send", send)
        with pytest.raises(ShardError) as caught:
            run_notify_sharded(universe, workers=workers, testbed_seed=3)
        assert caught.value.unit == unit.key
        assert "injected delivery failure" in str(caught.value)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "action, code",
        [(lambda: os._exit(7), 7), (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL)],
        ids=["os_exit", "sigkill"],
    )
    def test_dead_worker_is_detected(self, universe, monkeypatch, action, code):
        mtaid = self._last_probe_unit(universe)
        fail_probes_of(monkeypatch, mtaid, action)
        with pytest.raises(ShardError) as caught:
            probe_parallel(universe, 2)
        assert caught.value.unit is None
        assert "exited with code %d before reporting" % code in str(caught.value)
        assert not multiprocessing.active_children()


class TestGcFreeze:
    """A worker freezes the collector's view of every object alive when
    it pulls a unit, and unfreezes when it ends, success or not: the
    freeze is process-wide state and must not outlive the call."""

    def test_units_run_frozen(self, universe, monkeypatch):
        frozen = []
        real = ProbeClient.probe

        def probe(self, *args):
            if not frozen:  # counting walks the frozen objects: once is enough
                frozen.append(gc.get_freeze_count())
            return real(self, *args)

        monkeypatch.setattr(ProbeClient, "probe", probe)
        assert gc.get_freeze_count() == 0
        probe_parallel(universe, 1, testids=("t01",))
        assert frozen[0] > 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "processes"])
    def test_probe_run_leaves_nothing_frozen(self, universe, workers):
        probe_parallel(universe, workers, testids=("t01", "t03"))
        assert gc.get_freeze_count() == 0

    def test_notify_run_leaves_nothing_frozen(self, universe):
        run_notify_sharded(universe, workers=1, testbed_seed=3)
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "processes"])
    def test_failed_unit_leaves_nothing_frozen(self, universe, monkeypatch, workers):
        mtaid = probe_units(probe_schedule(universe, ("t01",), seed=5))[-1].key
        fail_probes_of(monkeypatch, mtaid, boom)
        with pytest.raises(ShardError):
            probe_parallel(universe, workers, testids=("t01",))
        assert gc.get_freeze_count() == 0


class TestCompactPickles:
    """What crosses the worker pipe pickles as flat field tuples, and
    loads equal to what was sent."""

    def test_shipped_records_round_trip(self, serial_probe):
        result, _, _ = serial_probe
        shipped = (result.results, result.index.queries, [q.entry for q in result.index.queries])
        loaded = pickle.loads(pickle.dumps(shipped, protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded == shipped
        names = [q.entry.qname for q in loaded[1]]
        assert [n.labels for n in names] == [q.entry.qname.labels for q in result.index.queries]
        assert [n.key for n in names] == [q.entry.qname.key for q in result.index.queries]

    def test_records_pickle_without_state_dicts(self, serial_probe):
        result, _, _ = serial_probe
        for record in (result.results[0], result.index.queries[0], result.index.queries[0].entry):
            constructor, fields = record.__reduce__()
            assert constructor(*fields) == record
            assert all(not isinstance(value, dict) for value in fields)
        name = Name("MiXed.Example.COM")
        assert pickle.loads(pickle.dumps(name)).labels == name.labels
