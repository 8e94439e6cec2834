"""Throughput bench for the differential trace-conformance checker.

The post-flight pass (:mod:`repro.lint.tracecheck`) runs over the full
campaign query log, so it must stay cheap relative to the campaigns
themselves.  This bench feeds it a synthetic, clean, 100k-entry log
(override with ``REPRO_BENCH_TRACE_ENTRIES``) spanning probe and notify
traffic across thousands of MTA identities, and reports
attributed-queries-checked per second.
"""

import os

import pytest

from benchmarks.conftest import emit
from repro.core.querylog import QueryIndex, attribute_queries_with_stats
from repro.core.synth import SynthConfig
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.server import QueryLogEntry
from repro.lint.tracecheck import check_index

ENTRIES = int(os.environ.get("REPRO_BENCH_TRACE_ENTRIES", "100000"))

CONFIG = SynthConfig()

#: One clean notify walk (7 queries) and one clean probe walk (3 queries)
#: per identity — mirrors the real traffic mix, all inside the footprints.
_NOTIFY_WALK = (
    ("", RdataType.TXT),
    ("l1.", RdataType.TXT),
    ("l2.", RdataType.TXT),
    ("l3.", RdataType.TXT),
    ("mta.", RdataType.A),
    ("_dmarc.", RdataType.TXT),
    ("sel._domainkey.", RdataType.TXT),
)
_PROBE_WALK = (("", RdataType.TXT), ("h.", RdataType.TXT), ("_dmarc.", RdataType.TXT))


def _synthesize_log(total):
    entries = []
    timestamp = 0.0
    identity = 0
    while len(entries) < total:
        identity += 1
        notify_base = "d%05d.%s" % (identity, CONFIG.notify_suffix)
        probe_base = "t01.m%05d.%s" % (identity, CONFIG.probe_suffix)
        for base, walk in ((notify_base, _NOTIFY_WALK), (probe_base, _PROBE_WALK)):
            for prefix, qtype in walk:
                timestamp += 0.01
                entries.append(
                    QueryLogEntry(
                        timestamp, Name(prefix + base), qtype, "udp", "203.0.113.9"
                    )
                )
    return entries[:total]


@pytest.fixture(scope="module")
def synthetic_index():
    attributed, stats = attribute_queries_with_stats(_synthesize_log(ENTRIES), CONFIG)
    return QueryIndex(attributed, stats)


def test_bench_tracecheck_throughput(benchmark, synthetic_index):
    index = synthetic_index

    def run():
        return check_index(index, config=CONFIG)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.clean, result.report.render_text()
    assert result.queries_checked == len(index)
    per_second = result.queries_checked / benchmark.stats.stats.mean
    emit(
        "tracecheck: conformance throughput",
        "%d attributed queries over %d pairs checked in %.4fs mean -> %.0f queries/s"
        % (
            result.queries_checked,
            result.pairs_checked,
            benchmark.stats.stats.mean,
            per_second,
        ),
    )
