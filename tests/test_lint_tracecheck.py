"""Tests for the differential trace-conformance checker
(repro.lint.tracecheck).

Two halves: the tier-1 guarantee that a clean, full campaign run over
all 39 probe policies (plus NotifyEmail) produces ZERO findings, and one
injected-fault test per TRACE rule proving the rule actually fires —
and fires alone."""

import pytest

from repro.core.campaign import (
    NotifyEmailCampaign,
    ProbeCampaign,
    Testbed,
    apply_reputation_effects,
)
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.policies import NOTIFY_POLICY, POLICIES
from repro.core.preflight import preflight_policies
from repro.core.querylog import QueryIndex, attribute_queries_with_stats
from repro.core.synth import SynthConfig
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.server import QueryLogEntry
from repro.lint.spfgraph import StaticPrediction
from repro.lint.tracecheck import build_footprint, check_index

CONFIG = SynthConfig()


# -- footprint derivation ------------------------------------------------


class TestFootprints:
    def test_notify_footprint_matches_policy(self):
        fp = build_footprint(NOTIFY_POLICY, CONFIG)
        by_labels = {(p.experiment, p.labels): p for p in fp.patterns}
        assert by_labels[("notify", ())].qtypes == frozenset({RdataType.TXT})
        # The include chain and the a:mta target, all rooted at the base.
        for sub in (("l1",), ("l2",), ("l3",)):
            assert by_labels[("notify", sub)].root == ("notify", ())
        assert by_labels[("notify", ("mta",))].qtypes == frozenset(
            {RdataType.A, RdataType.AAAA}
        )
        # DMARC / DKIM discovery names are always admissible.
        assert by_labels[("notify", ("_dmarc",))].root is None
        assert ("notify", ("*", "_domainkey")) in by_labels

    def test_every_policy_footprint_builds(self):
        for policy in POLICIES:
            fp = build_footprint(policy, CONFIG)
            assert fp.match("probe", ()) != [], policy.testid

    def test_v6_targets_belong_to_the_probe_walk(self):
        fp = build_footprint(next(p for p in POLICIES if p.testid == "t10"), CONFIG)
        v6 = [p for p in fp.patterns if p.experiment == "v6" and p.role == "mechanism"]
        assert v6 and all(p.root == ("probe", ()) for p in v6)

    def test_macro_targets_become_wildcards(self):
        fp = build_footprint(next(p for p in POLICIES if p.testid == "t20"), CONFIG)
        wild = [p for p in fp.patterns if not p.concrete and p.labels[0] == "**"]
        assert wild, "exists: macro must admit arbitrary expansion labels"
        # Any label stack in front of the static tail matches.
        tail = wild[0].labels[1:]
        assert fp.match("probe", ("250", "113", "0", "203") + tail)


# -- the clean-run guarantee ---------------------------------------------


@pytest.fixture(scope="module")
def clean_run():
    universe = generate_universe(DatasetSpec.notify_email(scale=0.005), seed=501)
    testbed = Testbed(universe, seed=502)
    NotifyEmailCampaign(testbed).run()
    apply_reputation_effects(universe, seed=503)
    ProbeCampaign(testbed, "NotifyMX", start_time=5e6).run()
    return testbed, testbed.query_index()


class TestCleanRun:
    def test_zero_findings_over_all_policies(self, clean_run):
        testbed, index = clean_run
        assert index.stats is not None
        testids = {testid for _, testid in index.pairs()}
        assert testids >= {policy.testid for policy in POLICIES}, "probe coverage"
        assert "notify" in testids
        result = check_index(index, config=testbed.synth_config)
        assert result.pairs_checked == len(index.pairs())
        assert result.queries_checked == len(index)
        assert result.clean, result.report.render_text()

    def test_zero_findings_with_preflight_predictions(self, clean_run):
        testbed, index = clean_run
        audits = preflight_policies(list(POLICIES) + [NOTIFY_POLICY])
        predictions = {testid: audit.prediction for testid, audit in audits.items()}
        result = check_index(index, config=testbed.synth_config, predictions=predictions)
        assert result.clean, result.report.render_text()


# -- injected faults: each rule fires, and fires alone --------------------


def _entry(name, qtype, ts=1.0, client="203.0.113.9", transport="udp"):
    return QueryLogEntry(
        timestamp=ts, qname=Name(name), qtype=qtype, transport=transport, client_ip=client
    )


def _index(entries):
    """An attributed index carrying its attribution's stats, as every
    index the harness builds does."""
    return QueryIndex(*attribute_queries_with_stats(entries, CONFIG))


PROBE_ROOT = "t01.mta1.%s" % CONFIG.probe_suffix
NOTIFY_ROOT = "d0.%s" % CONFIG.notify_suffix


class TestInjectedFaults:
    def test_trace001_impossible_name(self):
        index = _index(
            [
                _entry(PROBE_ROOT, RdataType.TXT, ts=1.0),
                _entry("no.such.name.%s" % PROBE_ROOT, RdataType.TXT, ts=2.0),
            ]
        )
        result = check_index(index, config=CONFIG)
        assert result.report.codes() == ["TRACE001"]

    def test_trace002_impossible_qtype(self):
        index = _index([_entry(NOTIFY_ROOT, RdataType.MX, ts=1.0)])
        result = check_index(index, config=CONFIG)
        assert result.report.codes() == ["TRACE002"]

    def test_trace003_negative_timestamp(self):
        index = _index([_entry(PROBE_ROOT, RdataType.TXT, ts=-4.0)])
        result = check_index(index, config=CONFIG)
        assert result.report.codes() == ["TRACE003"]

    def test_trace004_v6_suffix_over_ipv4(self):
        v6_name = "l1.t10.mta1.%s" % CONFIG.v6_suffix
        index = _index(
            [
                _entry("t10.mta1.%s" % CONFIG.probe_suffix, RdataType.TXT, ts=1.0),
                # An IPv4 client address: impossible, the v6 suffix is
                # delegated to the server's IPv6 address only.
                _entry(v6_name, RdataType.TXT, ts=2.0, client="203.0.113.9"),
            ]
        )
        result = check_index(index, config=CONFIG)
        assert result.report.codes() == ["TRACE004"]

    def test_trace004_silent_over_ipv6(self):
        v6_name = "l1.t10.mta1.%s" % CONFIG.v6_suffix
        index = _index(
            [
                _entry("t10.mta1.%s" % CONFIG.probe_suffix, RdataType.TXT, ts=1.0),
                _entry(v6_name, RdataType.TXT, ts=2.0, client="2001:db8:9::9"),
            ]
        )
        assert check_index(index, config=CONFIG).clean

    def test_trace005_walk_without_root_fetch(self):
        # The include target's TXT appears, but the L0 record that names
        # it was never fetched: no validator behaves that way.
        index = _index([_entry("l1.%s" % NOTIFY_ROOT, RdataType.TXT, ts=1.0)])
        result = check_index(index, config=CONFIG)
        assert result.report.codes() == ["TRACE005"]

    def test_trace006_footprint_exceeds_stale_prediction(self):
        # Simulates catalogue drift: the deployed policy walks two
        # mechanism targets while the (stale) static audit promised one.
        index = _index(
            [
                _entry(NOTIFY_ROOT, RdataType.TXT, ts=1.0),
                _entry("l1.%s" % NOTIFY_ROOT, RdataType.TXT, ts=2.0),
                _entry("mta.%s" % NOTIFY_ROOT, RdataType.A, ts=3.0),
            ]
        )
        stale = StaticPrediction(
            lookup_terms=1, void_lookups=0, first_abort=None, result=None,
            cycle=False, complete=True,
        )
        result = check_index(index, config=CONFIG, predictions={"notify": stale})
        assert result.report.codes() == ["TRACE006"]

    def test_trace007_unattributable_in_suffix_traffic(self):
        # One label under the probe suffix cannot carry (mtaid, testid).
        index = _index([_entry("orphan.%s" % CONFIG.probe_suffix, RdataType.TXT)])
        assert index.stats.dropped_short == 1
        result = check_index(index, config=CONFIG)
        assert result.report.codes() == ["TRACE007"]

    def test_trace007_from_a_testbed_index_alone(self):
        # The harness's own attributed index carries its stats, so the
        # check needs nothing beside the index to see unattributable
        # traffic.
        universe = generate_universe(DatasetSpec.notify_email(scale=0.003), seed=511)
        testbed = Testbed(universe, seed=512)
        testbed.synth.query_log.append(_entry("orphan.%s" % testbed.synth_config.probe_suffix, RdataType.TXT))
        index = testbed.query_index()
        assert index.stats.dropped_short == 1
        result = check_index(index, config=testbed.synth_config)
        assert result.report.codes() == ["TRACE007"]

    def test_trace007_needs_stats(self):
        # An index built from bare queries has no attribution stats to read.
        index = _index([_entry("orphan.%s" % CONFIG.probe_suffix, RdataType.TXT)])
        assert check_index(QueryIndex(index.queries), config=CONFIG).clean

    def test_trace008_unknown_testid(self):
        index = _index([_entry("zz99.mta1.%s" % CONFIG.probe_suffix, RdataType.TXT)])
        result = check_index(index, config=CONFIG)
        assert result.report.codes() == ["TRACE008"]

    def test_clean_pair_stays_clean(self):
        index = _index(
            [
                _entry(NOTIFY_ROOT, RdataType.TXT, ts=1.0),
                _entry("l1.%s" % NOTIFY_ROOT, RdataType.TXT, ts=2.0),
                _entry("mta.%s" % NOTIFY_ROOT, RdataType.A, ts=3.0),
                _entry("_dmarc.%s" % NOTIFY_ROOT, RdataType.TXT, ts=4.0),
                _entry("sel._domainkey.%s" % NOTIFY_ROOT, RdataType.TXT, ts=5.0),
            ]
        )
        assert check_index(index, config=CONFIG).clean
