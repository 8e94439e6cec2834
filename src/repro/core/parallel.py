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
it ships back one picklable :class:`ShardResult` (records, raw query
log, metrics, span count).  :func:`merge_shard_results` reassembles
outputs content-identical to a serial run whichever worker ran which
unit, as ``tests/test_core_parallel.py`` proves for W ∈ {1, 2, 3, 4}.
``use_processes=False`` runs the same worker function in-process on a
round-robin deal of the units.

The queue is a shared cursor over the job's unit list, set per process
outside the :class:`ShardJob`: a multiprocessing lock crosses process
boundaries only by inheritance, and a job must stay picklable.  A failed
unit or a worker that dies without reporting raises :class:`ShardError`
naming the worker slot (and the unit, when known); no worker outlives
the call.  Span objects stay in the workers, which reconcile them
against their own query logs on request (``reconcile=True``).
"""

from __future__ import annotations

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
from repro.core.querylog import QueryIndex, attribute_queries
from repro.core.synth import SynthConfig
from repro.dns.server import QueryLogEntry
from repro.net.faults import FaultPlan
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import MetricsRegistry

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
    obs_enabled: bool = True
    reconcile: bool = False
    #: In-process runs only: the unit indices this job runs.  A worker
    #: process pulls from the shared queue instead.
    deal: Optional[Tuple[int, ...]] = None
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
    raw_log: List[QueryLogEntry] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None
    span_count: int = 0
    #: Per-worker span/query-log reconciliation verdict (None if not run).
    reconciled: Optional[bool] = None


@dataclass
class MergedCampaign:
    """A parallel run's merged output — content-identical to a serial run.

    ``raw_log`` is the union of the workers' query logs in timestamp
    order; ``metrics`` is the worker registries merged with
    campaign-global gauges restored; ``span_count`` sums the workers'
    span tallies (span objects themselves never leave the workers).
    """

    result: Union[NotifyEmailResult, ProbeCampaignResult]
    raw_log: List[QueryLogEntry]
    synth_config: SynthConfig
    metrics: Optional[MetricsRegistry]
    span_count: int
    #: False if any worker's span/query-log reconciliation failed;
    #: None when reconciliation was not requested.
    reconciled: Optional[bool] = None
    #: Probe campaigns only: the coordinator's pre-flight audits.
    preflight_audits: Dict[str, object] = field(default_factory=dict)


def default_workers() -> int:
    """The runner's default worker count: one per CPU."""
    return os.cpu_count() or 1


#: A worker process's pull from the shared queue, set once per process by
#: :func:`_worker_main` (the queue cannot travel inside the job).
_unit_source: Iterator[int] = iter(())


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
    """
    obs = Observability() if job.obs_enabled else NULL_OBS
    faults = FaultPlan.parse(job.faults_spec, seed=job.faults_seed) if job.faults_spec else None
    testbed = Testbed(job.universe, seed=job.testbed_seed, obs=obs, faults=faults)
    current: List[WorkUnit] = []

    def pulled() -> Iterator[Task]:
        for index in job.deal if job.deal is not None else _unit_source:
            unit = job.units[index]
            current[:] = [unit]
            yield from unit.tasks

    campaign_class = NotifyEmailCampaign if job.campaign == _NOTIFY_CAMPAIGN else ProbeCampaign
    try:
        outcome = campaign_class(testbed, **job.options).run(schedule=pulled())
    except Exception as exc:
        unit = current[0].key if current else None
        raise ShardError(job.shard.index, unit, "%s: %s" % (type(exc).__name__, exc)) from exc
    records = outcome.deliveries if isinstance(outcome, NotifyEmailResult) else outcome.results
    result = ShardResult(job.shard.index, list(records), testbed.synth.query_log)
    if job.obs_enabled:
        result.metrics = obs.metrics
        result.span_count = len(obs.tracer.finished)
        if job.reconcile:
            from repro.obs.reconcile import reconcile_spans

            verdict = reconcile_spans(obs.tracer.finished, outcome.index, testbed.synth_config)
            result.reconciled = verdict.matched
    return result


def _worker_main(job: ShardJob, cursor, count: int, conn) -> None:
    """A worker process: point the unit source at the shared cursor, run
    the job, and report exactly one message on ``conn``."""
    global _unit_source
    _unit_source = _shared_cursor(cursor, count)
    try:
        message = ("ok", run_shard(job))
    except Exception as exc:
        unit = exc.unit if isinstance(exc, ShardError) else None
        message = ("error", (unit, traceback.format_exc()))
    conn.send(message)
    conn.close()


def _execute(jobs: List[ShardJob], use_processes: bool) -> List[ShardResult]:
    """Run every job (one per worker slot); results in slot order."""
    if not jobs:
        return []
    count = len(jobs[0].units)
    if not use_processes or len(jobs) == 1:
        for job in jobs:
            job.deal = tuple(range(job.shard.index, count, len(jobs)))
        return [run_shard(job) for job in jobs]
    # The default start method (fork on Linux) lets workers inherit the
    # imported package and the memoised key pair; the coordinator starts
    # no threads.  Under spawn everything still works, only slower.
    cursor = multiprocessing.Value("i", 0)
    workers: Dict[multiprocessing.connection.Connection, Tuple[int, multiprocessing.Process]] = {}
    results_by_slot: Dict[int, ShardResult] = {}
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
        for _, process in workers.values():
            process.terminate()
            process.join()
    return [results_by_slot[slot] for slot in sorted(results_by_slot)]


def merge_raw_logs(shard_logs: Sequence[Sequence[QueryLogEntry]]) -> List[QueryLogEntry]:
    """The union of the workers' query logs in virtual-timestamp order.

    A serial server's log is in *arrival* order, which only differs from
    timestamp order for deferred work (post-delivery SPF checks) — and,
    in a worker, for units pulled out of schedule order; every consumer
    (``QueryIndex``, tracecheck, the trace dumps) orders by timestamp
    anyway, so the timestamp-sorted union is the canonical form.  The
    sort is stable, so one unit's equal-timestamp entries keep their
    arrival order; distinct conversations get distinct continuous
    latencies, so ties across units do not occur in practice.
    """
    merged: List[QueryLogEntry] = []
    for log in shard_logs:
        merged.extend(log)
    merged.sort(key=lambda entry: entry.timestamp)
    return merged


def merge_shard_results(
    campaign: str,
    schedule: Union[Sequence[NotifyTask], Sequence[ProbeTask]],
    shard_results: Sequence[ShardResult],
    synth_config: SynthConfig,
    name: str = "",
    obs_enabled: bool = True,
) -> Tuple[Union[NotifyEmailResult, ProbeCampaignResult], List[QueryLogEntry], Optional[MetricsRegistry]]:
    """Deterministic reduce: worker outputs → serial-identical objects.

    Record lists are re-ordered to the coordinator's schedule (the order
    the serial path would have produced them in), the raw logs merge by
    timestamp, and the metrics registries merge with the campaign-global
    gauges overwritten — workers each recorded their local unit count,
    but the serial run records the global one.
    """
    raw_log = merge_raw_logs([shard.raw_log for shard in shard_results])
    index = QueryIndex(attribute_queries(raw_log, synth_config))
    metrics = None
    if obs_enabled:
        metrics = MetricsRegistry.merged(s.metrics for s in shard_results if s.metrics is not None)
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
        return NotifyEmailResult(deliveries, index), raw_log, metrics
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
    merged = ProbeCampaignResult(name, results, index, probed=probed, recipient_domain=recipients)
    return merged, raw_log, metrics


def _run_parallel(
    campaign: str,
    schedule: Union[Sequence[NotifyTask], Sequence[ProbeTask]],
    units: List[WorkUnit],
    synth_config: SynthConfig,
    workers: Optional[int],
    use_processes: bool,
    obs: bool,
    name: str = "",
    **params,
) -> MergedCampaign:
    """One job per worker slot (never more slots than units), executed
    and merged."""
    slots = min(workers if workers is not None else default_workers(), len(units))
    jobs = [
        ShardJob(campaign=campaign, shard=WorkerSlot(index), units=units, obs_enabled=obs, **params)
        for index in range(slots)
    ]
    shard_results = _execute(jobs, use_processes)
    result, raw_log, metrics = merge_shard_results(
        campaign, schedule, shard_results, synth_config, name=name, obs_enabled=obs
    )
    verdicts = [shard.reconciled for shard in shard_results if shard.reconciled is not None]
    return MergedCampaign(
        result=result,
        raw_log=raw_log,
        synth_config=synth_config,
        metrics=metrics,
        span_count=sum(shard.span_count for shard in shard_results),
        reconciled=all(verdicts) if verdicts else None,
    )


def run_notify_sharded(
    universe: Universe,
    workers: Optional[int] = None,
    testbed_seed: int = 0,
    spacing: float = 2.0,
    start_time: float = 0.0,
    obs: bool = True,
    reconcile: bool = False,
    use_processes: bool = True,
    faults_spec: str = "",
    faults_seed: int = 0,
) -> MergedCampaign:
    """The NotifyEmail campaign over ``workers`` worker processes.

    Produces deliveries, an attributed query index, and metrics
    content-identical to ``NotifyEmailCampaign(Testbed(universe,
    seed=testbed_seed)).run()``.
    """
    _, synth_config = make_synth_config(testbed_seed)
    schedule = notify_schedule(universe.domains, spacing=spacing, start_time=start_time)
    return _run_parallel(
        _NOTIFY_CAMPAIGN,
        schedule,
        notify_units(schedule),
        synth_config,
        workers,
        use_processes,
        obs,
        universe=universe,
        testbed_seed=testbed_seed,
        options={"spacing": spacing, "start_time": start_time},
        reconcile=reconcile,
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
    sleep_seconds: float = 15.0,
    stagger: float = 1.0,
    start_time: float = 0.0,
    preflight: bool = True,
    obs: bool = True,
    reconcile: bool = False,
    use_processes: bool = True,
    faults_spec: str = "",
    faults_seed: int = 0,
) -> MergedCampaign:
    """The probe campaign (NotifyMX / TwoWeekMX) over ``workers`` workers.

    Produces results, an attributed query index, and metrics
    content-identical to ``ProbeCampaign(Testbed(universe,
    seed=testbed_seed), name, seed=campaign_seed, ...).run()``.
    """
    testid_list = tuple(testids) if testids is not None else tuple(p.testid for p in POLICIES)
    audits = preflight_policies(policy_by_id(t) for t in testid_list) if preflight else {}
    _, synth_config = make_synth_config(testbed_seed)
    schedule = probe_schedule(
        universe, testid_list, seed=campaign_seed, stagger=stagger, start_time=start_time
    )
    merged = _run_parallel(
        _PROBE_CAMPAIGN,
        schedule,
        probe_units(schedule),
        synth_config,
        workers,
        use_processes,
        obs,
        name=name,
        universe=universe,
        testbed_seed=testbed_seed,
        options={
            "name": name,
            "testids": testid_list,
            "sleep_seconds": sleep_seconds,
            "stagger": stagger,
            "start_time": start_time,
            "seed": campaign_seed,
            "preflight": False,  # the coordinator audited the policies once
        },
        reconcile=reconcile,
        faults_spec=faults_spec,
        faults_seed=faults_seed,
    )
    merged.preflight_audits = audits
    return merged
