"""Fault-injection overhead: the empty-plan no-op path must stay free.

The fault subsystem's contract (``repro.net.faults``) is that an
unfaulted run pays nothing: every injection site bails on ``faults is
None``, and an attached-but-empty plan only ever costs a dict probe per
event.  This bench runs identical NotifyEmail campaigns three ways —
no plan, empty plan, and a lightly faulted plan — and gates the
*empty-plan* CPU overhead against no-plan at **< 5 %** (the same budget
the observability layer lives under, measured the same way: CPU time,
interleaved arms, minimum-over-rounds estimator, one re-measurement
before failing).

The faulted arm is reported, not gated: its cost is dominated by the
extra protocol work real faults cause (retries, timeouts riding on
virtual time are free, but hash draws and tally bookkeeping are not),
which is behaviour, not overhead.
"""

import gc
import os
import time

from benchmarks.conftest import SEED, emit
from repro.core.campaign import NotifyEmailCampaign, Testbed
from repro.core.datasets import DatasetSpec, generate_universe
from repro.net.faults import FaultPlan, injected_by_kind
from repro.obs import NULL_OBS, Observability

#: Interleaved arm samples per measurement attempt.
ROUNDS = int(os.environ.get("REPRO_BENCH_FAULT_ROUNDS", "9"))
#: Campaign scale — small enough that one arm stays well under a second.
FAULT_SCALE = float(os.environ.get("REPRO_BENCH_FAULT_SCALE", "0.01"))
#: The empty-plan gate.
THRESHOLD = 0.05

#: The faulted arm's plan: light enough that the campaign still
#: completes, heavy enough that every hot injection site draws.
FAULTED_SPEC = "udp_loss:0.05,servfail:0.02,banner_delay:0.05:5"


def _time_campaign(universe, faults):
    """CPU seconds for one NotifyEmail run on a fresh, uninstrumented
    testbed (NULL_OBS keeps the obs layer out of the measurement)."""
    testbed = Testbed(universe, seed=SEED + 31, obs=NULL_OBS, faults=faults)
    campaign = NotifyEmailCampaign(testbed)
    gc.collect()
    t_start = time.process_time()
    campaign.run()
    return time.process_time() - t_start


def _measure(universe, rounds, none_arm, empty_arm):
    for _ in range(rounds):
        none_arm.append(_time_campaign(universe, None))
        empty_arm.append(_time_campaign(universe, FaultPlan.parse("", seed=SEED)))
    return min(none_arm), min(empty_arm)


def test_empty_plan_overhead_under_threshold():
    """The gate: an empty plan costs < 5 % over no plan at all."""
    universe = generate_universe(DatasetSpec.notify_email(scale=FAULT_SCALE), seed=SEED + 30)
    _time_campaign(universe, None)  # warm code paths and caches
    none_arm, empty_arm = [], []
    best_none, best_empty = _measure(universe, ROUNDS, none_arm, empty_arm)
    if best_empty / best_none - 1.0 >= 0.8 * THRESHOLD:
        # Borderline readings are usually scheduler noise; the minimum
        # estimator only improves with more samples.
        best_none, best_empty = _measure(universe, 2 * ROUNDS, none_arm, empty_arm)
    overhead = best_empty / best_none - 1.0
    emit(
        "fault overhead: empty plan",
        "NotifyEmail delivery   none %6.3f s  empty-plan %6.3f s  overhead %+5.1f %%"
        % (best_none, best_empty, 100.0 * overhead),
    )
    assert overhead < THRESHOLD, (
        "an empty FaultPlan costs %.1f %% of NotifyEmail campaign CPU time "
        "(gate is %.0f %%; the no-op path must stay free)"
        % (100 * overhead, 100 * THRESHOLD)
    )


def test_faulted_campaign_reported():
    """Reported, not gated: what a lightly faulted campaign costs, and
    that it keeps delivering (graceful degradation, not collapse)."""
    universe = generate_universe(DatasetSpec.notify_email(scale=FAULT_SCALE), seed=SEED + 30)
    plan = FaultPlan.parse(FAULTED_SPEC, seed=SEED)
    testbed = Testbed(universe, seed=SEED + 31, obs=NULL_OBS, faults=plan)
    tally = Observability()
    plan.attach_obs(tally)  # only the injections are counted
    campaign = NotifyEmailCampaign(testbed)
    gc.collect()
    t_start = time.process_time()
    result = campaign.run()
    elapsed = time.process_time() - t_start
    injected = sum(injected_by_kind(tally.metrics).values())
    delivered = sum(1 for d in result.deliveries if d.delivery.accepted_with_250)
    emit(
        "fault overhead: faulted",
        "NotifyEmail under %s: %6.3f s, %d injections, %d/%d delivered"
        % (FAULTED_SPEC, elapsed, injected, delivered, len(result.deliveries)),
    )
    assert injected > 0
    assert delivered > 0
