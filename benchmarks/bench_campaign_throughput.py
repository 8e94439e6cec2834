"""Throughput benches for the measurement machinery itself.

Not a paper table — these keep the harness honest about simulation cost:
one full probe conversation (39 policies) per MTA, one NotifyEmail
delivery per domain, and one raw synth resolution, measured
per-operation on a small fresh world — plus a sharded-vs-serial probe
campaign comparison (``repro.core.parallel``) with a never-slower gate.

The parallel bench times wall clock (``time.perf_counter``), not process
CPU time: worker processes burn their CPU outside this interpreter, and
wall clock is precisely what sharding buys.  Its gate scales with the
machine: >= 2x speedup with four or more CPUs, never-slower with two or
more, report-only on a single core (where a pool can only add overhead).

All throughput numbers land in ``benchmarks/out/BENCH_campaign.json``
via :func:`benchmarks.conftest.record_bench`.
"""

import os
import time

import pytest

from benchmarks.conftest import SEED, emit, record_bench
from repro.core.campaign import NotifyEmailCampaign, ProbeCampaign, Testbed, eligible_probe_mtas
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.parallel import run_probe_sharded

#: Universe scale for the sharded-vs-serial comparison.  Big enough that
#: per-worker testbed setup amortises; tune with the env knob in CI.
PAR_SCALE = float(os.environ.get("REPRO_BENCH_PAR_SCALE", "0.01"))


def _record_pedantic(benchmark, name: str, **extra) -> None:
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return
    mean = stats.stats.mean
    if mean > 0:
        record_bench(name, 1.0 / mean, workers=1, **extra)


@pytest.fixture(scope="module")
def small_testbed():
    universe = generate_universe(DatasetSpec.notify_email(scale=0.002), seed=SEED + 9)
    return universe, Testbed(universe, seed=SEED + 10)


def test_bench_notify_delivery(benchmark, small_testbed):
    universe, testbed = small_testbed
    campaign = NotifyEmailCampaign(testbed)
    domains = iter(universe.domains * 1000)

    def deliver_one():
        campaign_result = campaign.run([next(domains)])
        return campaign_result

    benchmark.pedantic(deliver_one, rounds=20, iterations=1)
    _record_pedantic(benchmark, "notify_delivery")


def test_bench_probe_conversation(benchmark, small_testbed):
    universe, testbed = small_testbed
    campaign = ProbeCampaign(testbed, "bench", testids=["t12"])
    pairs = eligible_probe_mtas(universe)
    assert pairs
    probe = campaign.probe
    host, rcpt_domain = pairs[0]
    counter = iter(range(10_000_000))

    def probe_once():
        return probe.probe(
            host.ipv4 or host.ipv6,
            "bench%d" % next(counter),  # fresh mtaid defeats resolver caching
            "t12",
            rcpt_domain,
            float(next(counter)) * 100.0,
        )

    benchmark.pedantic(probe_once, rounds=30, iterations=1)
    _record_pedantic(benchmark, "probe_conversation")


def test_bench_synth_resolution(benchmark, small_testbed):
    """Raw synthesizing-server throughput: one UDP query end to end."""
    from repro.dns import wire
    from repro.dns.message import Message
    from repro.dns.rdata import RdataType

    _, testbed = small_testbed
    synth = testbed.synth
    query = Message.make_query(
        "t12.mbench.%s" % testbed.synth_config.probe_suffix, RdataType.TXT, msg_id=7
    )
    payload = wire.to_wire(query)

    def resolve_once():
        return synth.udp_handler(payload, "203.0.113.99", "udp", 0.0)

    benchmark(resolve_once)
    _record_pedantic(benchmark, "synth_resolution")


def test_bench_sharded_vs_serial_probe():
    """Wall-clock speedup of the sharded probe campaign vs serial.

    Same universe, same seeds: by the differential-equivalence tests the
    two arms compute identical results, so the comparison is pure
    execution cost.  The serial arm runs the one in-process worker; the
    parallel arm runs four worker processes pulling MTA units from
    one work queue.
    """
    universe = generate_universe(DatasetSpec.notify_email(scale=PAR_SCALE), seed=SEED + 20)
    timings = {}
    probes = 0
    for workers in (1, 4):
        t_start = time.perf_counter()
        merged = run_probe_sharded(
            universe,
            "bench",
            workers=workers,
            testbed_seed=SEED + 21,
            campaign_seed=SEED,
        )
        timings[workers] = time.perf_counter() - t_start
        probes = len(merged.result.results)
        assert probes > 0
        record_bench(
            "probe_campaign_sharded",
            probes / timings[workers],
            workers=workers,
            scale=PAR_SCALE,
            probes=probes,
        )
    speedup = timings[1] / timings[4]
    cpus = os.cpu_count() or 1
    emit(
        "sharded vs serial: probe campaign",
        "probes=%d scale=%g cpus=%d\n"
        "serial   (workers=1): %8.2f s  (%7.1f probes/s)\n"
        "sharded  (workers=4): %8.2f s  (%7.1f probes/s)\n"
        "speedup: %.2fx"
        % (
            probes, PAR_SCALE, cpus,
            timings[1], probes / timings[1],
            timings[4], probes / timings[4],
            speedup,
        ),
    )
    if cpus >= 4:
        # The acceptance bar on a real 4-core runner.
        assert speedup >= 2.0, "expected >= 2x speedup on %d CPUs, got %.2fx" % (cpus, speedup)
    elif cpus >= 2:
        # Never slower (small tolerance for scheduler noise).
        assert speedup >= 0.9, "sharded run slower than serial: %.2fx" % speedup
