"""Tests for work-queue parallel campaign execution (repro.core.parallel).

The load-bearing property is *differential*: for W ∈ {1, 2, 3, 4} workers
(in-process, and with real processes at W ∈ {2, 3}, with and without a
fault plan) a parallel run must produce the same attributed-query
multiset, the same analysis tables, the same metrics, and the same
tracecheck verdict as the serial path, whichever worker ran which unit.
Everything else (unit grouping, merge algebra, loud worker failures)
supports that headline guarantee.
"""

import math
import multiprocessing
import os
import signal
from collections import Counter

import pytest

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
from repro.core.policies import POLICIES
from repro.core.probe import ProbeClient
from repro.core.parallel import (
    ShardError,
    merge_raw_logs,
    notify_units,
    probe_units,
    run_notify_sharded,
    run_probe_sharded,
)
from repro.core.querylog import QueryIndex
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


class TestKeypairMemo:
    def test_one_keygen_per_seed_per_process(self, monkeypatch):
        calls = []
        real = campaign_module.generate_keypair

        def counting(bits, seed):
            calls.append(seed)
            return real(bits, seed=seed)

        monkeypatch.setattr(campaign_module, "generate_keypair", counting)
        seed = 424242  # used by no other test, so the memo starts cold
        first_key, first_config = make_synth_config(seed)
        second_key, second_config = make_synth_config(seed)
        assert len(calls) == 1
        assert first_key.public == second_key.public
        assert first_config.dkim_key_b64 == second_config.dkim_key_b64
        # The config is mutable, so every call gets its own.
        assert first_config is not second_config


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

    def test_query_index_merge_matches_rebuild(self, serial_probe):
        result, _, _ = serial_probe
        queries = result.index.queries
        parts = [
            QueryIndex(queries[0::3]),
            QueryIndex(queries[1::3]),
            QueryIndex(queries[2::3]),
        ]
        merged = QueryIndex.merge(parts)
        assert Counter(map(query_key, merged.queries)) == Counter(map(query_key, queries))
        assert merged.mtas_observed() == result.index.mtas_observed()
        assert sorted(merged.pairs()) == sorted(result.index.pairs())


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


def probe_parallel(universe, workers, use_processes, **extra):
    return run_probe_sharded(
        universe,
        "notifymx",
        workers=workers,
        testbed_seed=3,
        campaign_seed=5,
        start_time=1e7,
        use_processes=use_processes,
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
    """Serial vs in-process parallel, W ∈ {1, 2, 3, 4}, both campaign kinds."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_notify_campaign(self, universe, serial_notify, workers):
        serial, _, obs = serial_notify
        merged = run_notify_sharded(
            universe, workers=workers, testbed_seed=3, use_processes=False
        )
        assert_notify_equal(serial, obs, merged)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_probe_campaign(self, universe, serial_probe, workers):
        serial, _, obs = serial_probe
        assert_probe_equal(serial, obs, probe_parallel(universe, workers, False))

    def test_tracecheck_verdicts_match(self, universe, serial_probe):
        serial, testbed, _ = serial_probe
        merged = probe_parallel(universe, 4, False)
        serial_check = check_index(serial.index, config=testbed.synth_config)
        merged_check = check_index(merged.result.index, config=merged.synth_config)
        assert serial_check.clean == merged_check.clean
        assert serial_check.queries_checked == merged_check.queries_checked
        assert serial_check.pairs_checked == merged_check.pairs_checked

    def test_limit_mtas_slices_after_deterministic_order(self, universe):
        full = probe_schedule(universe, ("t01", "t02"), seed=5)
        limited = probe_schedule(universe, ("t01", "t02"), seed=5, limit_mtas=5)
        assert [t.host.mtaid for t in limited] == [t.host.mtaid for t in full[:5]]
        # And it is stable across calls (the eligible pool is sorted
        # before the seeded shuffle).
        again = probe_schedule(universe, ("t01", "t02"), seed=5, limit_mtas=5)
        assert [t.host.mtaid for t in again] == [t.host.mtaid for t in limited]


class TestRealProcesses:
    """Serial vs worker processes pulling from the shared queue."""

    def test_multiprocessing_smoke(self, universe, serial_notify):
        """Pickling, the shared queue, and the merge behave identically
        to the inline path."""
        serial, _, _ = serial_notify
        merged = run_notify_sharded(universe, workers=2, testbed_seed=3, use_processes=True)
        assert Counter(map(query_key, merged.result.index.queries)) == Counter(
            map(query_key, serial.index.queries)
        )
        assert merged.span_count > 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_notify_campaign_processes(self, universe, serial_notify, workers):
        serial, _, obs = serial_notify
        merged = run_notify_sharded(universe, workers=workers, testbed_seed=3, use_processes=True)
        assert_notify_equal(serial, obs, merged)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_probe_campaign_processes(self, universe, serial_probe, workers):
        serial, _, obs = serial_probe
        assert_probe_equal(serial, obs, probe_parallel(universe, workers, True))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_faulted_probe_campaign_processes(self, universe, serial_faulted_probe, workers):
        serial, _, obs = serial_faulted_probe
        merged = probe_parallel(
            universe, workers, True, faults_spec=FAULTS_SPEC, faults_seed=FAULTS_SEED
        )
        assert_probe_equal(serial, obs, merged)
        assert merged.metrics.counter_value("faults_injected_total", (("kind", "udp_loss"),))

    def test_per_shard_reconciliation(self, universe):
        merged = probe_parallel(universe, 2, True, testids=("t01", "t03"), reconcile=True)
        assert merged.reconciled is True


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
        units = probe_units(probe_schedule(universe, [p.testid for p in POLICIES], seed=5))
        return len(units) - 1, units[-1].key

    @pytest.mark.parametrize("use_processes", [False, True], ids=["inline", "processes"])
    def test_failed_probe_unit_is_named(self, universe, monkeypatch, use_processes):
        index, mtaid = self._last_probe_unit(universe)
        fail_probes_of(monkeypatch, mtaid, boom)
        with pytest.raises(ShardError) as caught:
            probe_parallel(universe, 2, use_processes)
        assert caught.value.unit == mtaid
        assert "injected probe failure" in str(caught.value)
        assert str(caught.value).startswith("worker %d on unit %s" % (caught.value.slot, mtaid))
        if not use_processes:
            assert caught.value.slot == index % 2  # the round-robin deal
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("use_processes", [False, True], ids=["inline", "processes"])
    def test_failed_notify_unit_names_provider(self, universe, monkeypatch, use_processes):
        unit = notify_units(notify_schedule(universe.domains))[0]
        doomed = {"operator@%s" % task.domain.name for task in unit.tasks}
        real = SendingMta.send

        def send(self, message, from_address, to_address, t):
            if to_address in doomed:
                raise RuntimeError("injected delivery failure")
            return real(self, message, from_address, to_address, t)

        monkeypatch.setattr(SendingMta, "send", send)
        with pytest.raises(ShardError) as caught:
            run_notify_sharded(universe, workers=2, testbed_seed=3, use_processes=use_processes)
        assert caught.value.unit == unit.key
        assert "injected delivery failure" in str(caught.value)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "action, code",
        [(lambda: os._exit(7), 7), (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL)],
        ids=["os_exit", "sigkill"],
    )
    def test_dead_worker_is_detected(self, universe, monkeypatch, action, code):
        _, mtaid = self._last_probe_unit(universe)
        fail_probes_of(monkeypatch, mtaid, action)
        with pytest.raises(ShardError) as caught:
            probe_parallel(universe, 2, True)
        assert caught.value.unit is None
        assert "exited with code %d before reporting" % code in str(caught.value)
        assert not multiprocessing.active_children()


class TestMergeRawLogs:
    def test_timestamp_order(self, serial_probe):
        result, testbed, _ = serial_probe
        raw = testbed.synth.query_log
        merged = merge_raw_logs([raw[0::2], raw[1::2]])
        assert len(merged) == len(raw)
        times = [entry.timestamp for entry in merged]
        assert times == sorted(times)
