"""Parallel campaign execution over one work queue, with a deterministic merge.

The virtual-time testbed makes the paper's campaigns embarrassingly
parallel, the same way large active-measurement systems (ZMap-style
scan-out) get their throughput: split the target population into
independent units, run them anywhere, reduce deterministically.  Three
facts make any assignment of units to workers exact:

* **Virtual time.**  Every protocol API threads explicit timestamps, and
  a campaign schedule (:func:`~repro.core.campaign.notify_schedule` /
  :func:`~repro.core.campaign.probe_schedule`) assigns each task its
  start instant up front — task *i* never inherits timing from task
  *i-1*, so executing a subset, in any order, executes it at identical
  instants.
* **Path-pure latency.**  :class:`~repro.net.latency.UniformLatency`
  derives each path's delay from ``(seed, path)`` alone, so every
  worker's network times identical exchanges identically.
* **Receiver-disjoint units.**  All mutable state lives in per-receiver
  objects (resolver caches, greylists) or in per-delivery senders.  A
  probe unit is one MTA's :class:`~repro.core.campaign.ProbeTask`; a
  notify unit is one provider's :class:`~repro.core.campaign.NotifyTask`
  list in schedule order, because a provider's domains share its
  (provider-private) MTA pool.  No two units touch the same receiver, so
  a unit behaves the same whatever ran before it on the same testbed.

Per-MTA probe cost varies by more than an order of magnitude (it tracks
the MTA's DNS lookups), so a static split leaves workers idle behind the
busiest one.  Instead each of W worker processes builds one full
:class:`~repro.core.campaign.Testbed` and pulls units from a single
queue, largest first, running them through the ordinary campaign loop;
it ships back one picklable :class:`ShardResult` (records, its query log
already attributed and time-sorted, the attribution's stats, metrics,
span count).  :func:`merge_shard_results` reassembles outputs
content-identical to a plain campaign run whichever worker ran which
unit, as ``tests/test_core_parallel.py`` proves for W ∈ {1, 2, 3, 4}.
Attribution is pure per entry, so the merge only interleaves the
workers' attributed queries by timestamp and sums their stats: it
attributes nothing again.

A campaign keeps every probe result and query-log entry for the
post-flight passes, and none of them is ever part of a reference cycle
that needs collecting.  So a worker moves every surviving object to the
collector's permanent generation (``gc.freeze()``) before it pulls each
unit: generation-2 passes then walk only what the current unit made,
not the whole campaign so far (nor, in a forked worker, the heap it
inherited).  The worker unfreezes when it ends, whether it succeeded or
not, so no freeze outlives the call.  The coordinator freezes its own
heap the same way while worker processes run, so loading their results
sets off no pass over it.

Two or more workers are always worker processes.  One worker runs the
same worker function in this process, on a queue cut to one unit per
task in schedule order (each keeping its unit's mtaid or provider key).
Span ids follow execution order, so a one-worker run is a plain
campaign run span for span, and hands its span list back on
:class:`MergedCampaign`; this is the runner's ``--workers 1``.

The queue is a shared cursor over the job's unit list, set per process
outside the :class:`ShardJob`: a multiprocessing lock crosses process
boundaries only by inheritance, and a job must stay picklable.  A failed
unit or a worker that dies without reporting raises :class:`ShardError`
naming the worker slot (and the unit, when known); no worker outlives
the call.  Span objects never cross a pipe: whenever obs is on, every
worker reconciles its spans against its own query log and sends home
only the verdict and a span tally.  So a worker process keeps a span
only until its unit ends: before it pulls the next unit, it counts the
unit's finished spans and keeps just the ``dns.exchange`` spans that
reconciliation reads, bounding its span memory by one unit plus the
exchanges.  The one in-process worker keeps every span for the dump.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import os
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.campaign import (
    NotifyDelivery,
    NotifyEmailCampaign,
    NotifyEmailResult,
    NotifyTask,
    ProbeCampaign,
    ProbeCampaignResult,
    ProbeTask,
    Testbed,
    make_synth_config,
    notify_schedule,
    probe_schedule,
)
from repro.core.datasets import MtaHost, Universe
from repro.core.policies import POLICIES, policy_by_id
from repro.core.preflight import preflight_policies
from repro.core.probe import ProbeResult
from repro.core.querylog import AttributedQuery, AttributionStats, QueryIndex
from repro.core.synth import SynthConfig
from repro.net.faults import FaultPlan
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span

_NOTIFY_CAMPAIGN = "notify"
_PROBE_CAMPAIGN = "probe"

Task = Union[NotifyTask, ProbeTask]


class ShardError(RuntimeError):
    """A worker failed; the message names its slot and, when known, the
    unit (mtaid or provider key) it was running."""

    def __init__(self, slot: int, unit: Optional[str], detail: str) -> None:
        where = "worker %d" % slot if unit is None else "worker %d on unit %s" % (slot, unit)
        super().__init__("%s: %s" % (where, detail))
        self.slot, self.unit = slot, unit


@dataclass(frozen=True)
class WorkUnit:
    """The smallest piece of work a worker pulls: every task that touches
    one set of receivers (see the module docstring)."""

    key: str  # mtaid for probe units, provider key for notify units
    tasks: Tuple[Task, ...]


def probe_units(schedule: Sequence[ProbeTask]) -> List[WorkUnit]:
    """One unit per MTA, in schedule order: every MTA gets the same
    policies, so the units are equal in size and already largest first."""
    return [WorkUnit(task.host.mtaid, (task,)) for task in schedule]


def notify_units(schedule: Sequence[NotifyTask]) -> List[WorkUnit]:
    """One unit per provider, its tasks in schedule order; the providers
    with the most domains come first (ties keep first appearance)."""
    groups: Dict[str, List[NotifyTask]] = {}
    for task in schedule:
        groups.setdefault(task.domain.provider_key, []).append(task)
    ordered = sorted(groups.items(), key=lambda group: -len(group[1]))
    return [WorkUnit(key, tuple(tasks)) for key, tasks in ordered]


@dataclass(frozen=True)
class WorkerSlot:
    """Which of the run's worker processes a job is for."""

    index: int


@dataclass
class ShardJob:
    """Everything one worker needs, picklable under any start method.

    ``units`` is the coordinator's whole queue; the worker pulls indices
    into it and never recomputes (or risks diverging from) the schedule.
    Task objects reference the same domain/host objects as ``universe``,
    so the pickle graph ships each object once.
    """

    campaign: str  # _NOTIFY_CAMPAIGN | _PROBE_CAMPAIGN
    shard: WorkerSlot
    universe: Universe
    units: List[WorkUnit]
    testbed_seed: int
    #: Keyword arguments of the campaign class, after the testbed.
    options: Dict[str, object]
    #: Collect metrics and spans, and reconcile the spans against the
    #: worker's query log.
    obs_enabled: bool = True
    # fault injection: the plan travels as (spec, seed) strings — each
    # worker rebuilds an identical FaultPlan, and because plan decisions
    # are pure functions of (seed, kind, endpoints, virtual time), every
    # worker draws exactly what the serial run would.
    faults_spec: str = ""
    faults_seed: int = 0


@dataclass
class ShardResult:
    """One worker's picklable output."""

    index: int
    #: The worker's deliveries (notify) or probe results (probe).
    records: List[Union[NotifyDelivery, ProbeResult]] = field(default_factory=list)
    #: The worker's query log, attributed once and in timestamp order.
    queries: List[AttributedQuery] = field(default_factory=list)
    #: The accounting of that one attribution.
    stats: AttributionStats = field(default_factory=AttributionStats)
    metrics: Optional[MetricsRegistry] = None
    span_count: int = 0
    #: The in-process worker's finished spans, all of them; a worker
    #: process's ``dns.exchange`` spans only (the reconcile witness),
    #: emptied before it reports, so spans never cross a pipe.
    spans: List[Span] = field(default_factory=list)
    #: Per-worker span/query-log reconciliation verdict (None without obs).
    reconciled: Optional[bool] = None


@dataclass
class MergedCampaign:
    """A campaign's merged output — content-identical to a plain run.

    ``result.index`` holds the workers' attributed queries in timestamp
    order, with their summed attribution stats; ``metrics`` is the
    worker registries merged with campaign-global gauges restored;
    ``span_count`` sums the workers' span tallies.
    """

    result: Union[NotifyEmailResult, ProbeCampaignResult]
    synth_config: SynthConfig
    metrics: Optional[MetricsRegistry]
    span_count: int
    #: False if any worker's span/query-log reconciliation failed;
    #: None without obs.
    reconciled: Optional[bool] = None
    #: One-worker runs only: the finished spans, in completion order.
    spans: Optional[List[Span]] = None


def default_workers() -> int:
    """The runner's default worker count: one per CPU this process may
    run on (its affinity mask, where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: A worker process's pull from the shared queue, set once per process by
#: :func:`_worker_main` (the queue cannot travel inside the job).  Unset,
#: as in the coordinator, :func:`run_shard` pulls every unit in order.
_unit_source: Optional[Iterator[int]] = None


def _shared_cursor(cursor, count: int) -> Iterator[int]:
    """Pull indices ``0 .. count-1`` from a cursor shared by all workers."""
    while True:
        with cursor.get_lock():
            index = cursor.value
            cursor.value = index + 1
        if index >= count:
            return
        yield index


def run_shard(job: ShardJob) -> ShardResult:
    """Worker entry point: build one testbed, run every unit pulled.

    Module-level (importable by name) and argument/return picklable, so
    it is valid under fork and spawn alike.  Called once per worker.
    Every object alive when a unit is pulled is frozen out of the
    collector's reach until the shard ends, and in a worker process the
    previous unit's spans are folded first (see the module docstring).
    """
    obs = Observability() if job.obs_enabled else NULL_OBS
    faults = FaultPlan.parse(job.faults_spec, seed=job.faults_seed) if job.faults_spec else None
    testbed = Testbed(job.universe, seed=job.testbed_seed, obs=obs, faults=faults)
    current: List[WorkUnit] = []
    # A worker process folds each finished unit's spans into a tally and
    # keeps only the dns.exchange spans its reconcile reads; the one
    # in-process worker keeps every span for the runner's dump.
    finished = obs.tracer.finished
    folding = _unit_source is not None
    exchanges: List[Span] = []
    folded = 0

    def fold() -> None:
        nonlocal folded
        folded += len(finished)
        exchanges.extend([span for span in finished if span.name == "dns.exchange"])
        finished.clear()

    def pulled() -> Iterator[Task]:
        for index in range(len(job.units)) if _unit_source is None else _unit_source:
            if folding:
                fold()
            current[:] = [job.units[index]]
            gc.freeze()
            yield from job.units[index].tasks

    campaign_class = NotifyEmailCampaign if job.campaign == _NOTIFY_CAMPAIGN else ProbeCampaign
    try:
        try:
            outcome = campaign_class(testbed, **job.options).run(schedule=pulled())
        except Exception as exc:
            unit = current[0].key if current else None
            raise ShardError(job.shard.index, unit, "%s: %s" % (type(exc).__name__, exc)) from exc
        records = outcome.deliveries if isinstance(outcome, NotifyEmailResult) else outcome.results
        index = outcome.index
        result = ShardResult(job.shard.index, list(records), index.queries, index.stats)
        if job.obs_enabled:
            if folding:
                fold()
            result.metrics = obs.metrics
            result.spans = exchanges if folding else finished
            result.span_count = folded if folding else len(finished)
            from repro.obs.reconcile import reconcile_spans

            verdict = reconcile_spans(result.spans, index, testbed.synth_config)
            result.reconciled = verdict.matched
        return result
    finally:
        gc.unfreeze()


def _worker_main(job: ShardJob, cursor, count: int, conn) -> None:
    """A worker process: point the unit source at the shared cursor, run
    the job, and report exactly one message on ``conn``."""
    global _unit_source
    _unit_source = _shared_cursor(cursor, count)
    try:
        result = run_shard(job)
        result.spans = []
        message = ("ok", result)
    except Exception as exc:
        unit = exc.unit if isinstance(exc, ShardError) else None
        message = ("error", (unit, traceback.format_exc()))
    conn.send(message)
    conn.close()


def _execute(jobs: List[ShardJob]) -> List[ShardResult]:
    """Run every job (one per worker slot); results in slot order.  A
    single job runs in this process and pulls every unit in order; two
    or more run in one worker process each."""
    if len(jobs) == 1:
        return [run_shard(jobs[0])]
    count = len(jobs[0].units)
    # The default start method (fork on Linux) lets workers inherit the
    # imported package and the memoised key pair; the coordinator starts
    # no threads.  Under spawn everything still works, only slower.
    cursor = multiprocessing.Value("i", 0)
    workers: Dict[multiprocessing.connection.Connection, Tuple[int, multiprocessing.Process]] = {}
    results_by_slot: Dict[int, ShardResult] = {}
    # The coordinator's heap outlives the call too: frozen, the workers
    # inherit it out of their collector's reach, and loading their
    # results sets off no pass over it.
    gc.freeze()
    try:
        for job in jobs:
            reader, writer = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_worker_main, args=(job, cursor, count, writer), daemon=True
            )
            process.start()
            # Close our copy of the write end, so the reader sees EOF if
            # the worker dies, and later workers do not inherit it.
            writer.close()
            workers[reader] = (job.shard.index, process)
        while workers:
            for reader in multiprocessing.connection.wait(list(workers)):
                slot, process = workers[reader]
                try:
                    status, payload = reader.recv()
                except EOFError:  # the worker died without reporting
                    status, payload = "died", None
                process.join()  # it exits right after its one message
                del workers[reader]
                if status == "died":
                    raise ShardError(slot, None, "exited with code %s before reporting" % process.exitcode)
                if status == "error":
                    unit, detail = payload
                    raise ShardError(slot, unit, detail)
                results_by_slot[slot] = payload
    finally:
        gc.unfreeze()
        for _, process in workers.values():
            process.terminate()
            process.join()
    return [results_by_slot[slot] for slot in sorted(results_by_slot)]


def merge_shard_results(
    campaign: str,
    schedule: Union[Sequence[NotifyTask], Sequence[ProbeTask]],
    shard_results: Sequence[ShardResult],
    synth_config: SynthConfig,
    name: str = "",
    obs_enabled: bool = True,
) -> MergedCampaign:
    """Deterministic reduce: worker outputs → one plain run's objects.

    Record lists are re-ordered to the coordinator's schedule (the order
    a plain campaign run produces them in), the workers' attributed
    queries interleave by timestamp (:meth:`QueryIndex.merge`; a serial
    server's log is in *arrival* order, but every consumer orders by
    timestamp, so the timestamp-sorted union is the canonical form) with
    their stats summed, and the metrics registries merge with the
    campaign-global gauges overwritten — workers each recorded their
    local unit count, but a plain run records the global one.
    """
    index = QueryIndex.merge(shard_results)
    metrics = None
    if obs_enabled:
        metrics = MetricsRegistry.merged(s.metrics for s in shard_results if s.metrics is not None)
    result: Union[NotifyEmailResult, ProbeCampaignResult]
    if campaign == _NOTIFY_CAMPAIGN:
        by_domain: Dict[str, NotifyDelivery] = {}
        for shard in shard_results:
            for delivery in shard.records:
                by_domain[delivery.domain.domainid] = delivery
        deliveries = [
            by_domain[task.domain.domainid]
            for task in schedule
            if task.domain.domainid in by_domain
        ]
        if metrics is not None:
            metrics.gauge("campaign_domains", len(deliveries), (("campaign", "notifyemail"),))
        result = NotifyEmailResult(deliveries, index)
    else:
        by_pair: Dict[Tuple[str, str], ProbeResult] = {}
        for shard in shard_results:
            for probe in shard.records:
                by_pair[(probe.mtaid, probe.testid)] = probe
        results: List[ProbeResult] = []
        probed: Dict[str, MtaHost] = {}
        recipients: Dict[str, str] = {}
        for task in schedule:
            probed[task.host.mtaid] = task.host
            recipients[task.host.mtaid] = task.rcpt_domain
            for testid in task.order:
                probe = by_pair.get((task.host.mtaid, testid))
                if probe is not None:
                    results.append(probe)
        if metrics is not None:
            metrics.gauge("campaign_eligible_mtas", len(schedule), (("campaign", name),))
        result = ProbeCampaignResult(name, results, index, probed=probed, recipient_domain=recipients)
    verdicts = [shard.reconciled for shard in shard_results if shard.reconciled is not None]
    return MergedCampaign(
        result=result,
        synth_config=synth_config,
        metrics=metrics,
        span_count=sum(shard.span_count for shard in shard_results),
        reconciled=all(verdicts) if verdicts else None,
        spans=shard_results[0].spans if obs_enabled and len(shard_results) == 1 else None,
    )


def _run_parallel(
    campaign: str,
    schedule: Union[Sequence[NotifyTask], Sequence[ProbeTask]],
    units: List[WorkUnit],
    synth_config: SynthConfig,
    workers: Optional[int],
    obs: bool,
    name: str = "",
    **params,
) -> MergedCampaign:
    """One job per worker slot (at least one, never more than units),
    executed and merged.  Two or more slots are worker processes; one
    slot runs in this process on one unit per task, in schedule order,
    each under its unit's key."""
    slots = max(1, min(workers if workers is not None else default_workers(), len(units)))
    if slots == 1:
        key_of = {id(task): unit.key for unit in units for task in unit.tasks}
        units = [WorkUnit(key_of[id(task)], (task,)) for task in schedule]
    jobs = [
        ShardJob(campaign=campaign, shard=WorkerSlot(index), units=units, obs_enabled=obs, **params)
        for index in range(slots)
    ]
    return merge_shard_results(
        campaign, schedule, _execute(jobs), synth_config, name=name, obs_enabled=obs
    )


def run_notify_sharded(
    universe: Universe,
    workers: Optional[int] = None,
    testbed_seed: int = 0,
    obs: bool = True,
    faults_spec: str = "",
    faults_seed: int = 0,
) -> MergedCampaign:
    """The NotifyEmail campaign over ``workers`` worker processes, one
    delivery every :data:`~repro.core.campaign.NOTIFY_SPACING` seconds.

    Produces deliveries, an attributed query index, and metrics
    content-identical to ``NotifyEmailCampaign(Testbed(universe,
    seed=testbed_seed)).run()``; with one worker, the same spans too.
    With ``obs``, every worker reconciles its spans against its own query
    log (:attr:`MergedCampaign.reconciled`).
    """
    synth_config = make_synth_config(testbed_seed)
    synth_config.dkim_key()  # generated once, before the fork: workers inherit it
    schedule = notify_schedule(universe.domains)
    return _run_parallel(
        _NOTIFY_CAMPAIGN,
        schedule,
        notify_units(schedule),
        synth_config,
        workers,
        obs,
        universe=universe,
        testbed_seed=testbed_seed,
        options={},
        faults_spec=faults_spec,
        faults_seed=faults_seed,
    )


def run_probe_sharded(
    universe: Universe,
    name: str,
    testids: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    testbed_seed: int = 0,
    campaign_seed: int = 0,
    start_time: float = 0.0,
    obs: bool = True,
    faults_spec: str = "",
    faults_seed: int = 0,
) -> MergedCampaign:
    """The probe campaign (NotifyMX / TwoWeekMX) over ``workers`` workers.

    MTAs start :data:`~repro.core.campaign.PROBE_STAGGER` seconds apart
    from ``start_time``, and every probe is followed by
    :data:`~repro.core.probe.SLEEP_SECONDS`.  Produces results, an
    attributed query index, and metrics content-identical to
    ``ProbeCampaign(Testbed(universe, seed=testbed_seed), name,
    seed=campaign_seed, ...).run()``; with one worker, the same spans too.
    With ``obs``, every worker reconciles its spans against its own query
    log (:attr:`MergedCampaign.reconciled`).  First, the static
    pre-flight (:mod:`repro.core.preflight`, no simulated DNS query)
    audits every policy once and raises
    :class:`~repro.core.preflight.PreflightError` when one publishes no
    SPF record.
    """
    testid_list = tuple(testids) if testids is not None else tuple(p.testid for p in POLICIES)
    preflight_policies(policy_by_id(t) for t in testid_list)
    synth_config = make_synth_config(testbed_seed)
    schedule = probe_schedule(universe, testid_list, seed=campaign_seed, start_time=start_time)
    return _run_parallel(
        _PROBE_CAMPAIGN,
        schedule,
        probe_units(schedule),
        synth_config,
        workers,
        obs,
        name=name,
        universe=universe,
        testbed_seed=testbed_seed,
        options={"name": name, "testids": testid_list, "start_time": start_time, "seed": campaign_seed},
        faults_spec=faults_spec,
        faults_seed=faults_seed,
    )
