"""Tests for the paper-vs-measured scorecard machinery."""

import pytest

from repro.core.compare import (
    PAPER_REFERENCE,
    Reference,
    Scorecard,
    ScorecardEntry,
    build_scorecard,
    collect_notify_measurements,
    collect_probe_measurements,
)


class TestReferenceTable:
    def test_keys_unique(self):
        keys = [reference.key for reference in PAPER_REFERENCE]
        assert len(keys) == len(set(keys))

    def test_every_reference_has_section_and_band(self):
        for reference in PAPER_REFERENCE:
            assert reference.section
            assert reference.tolerance >= 0
            assert 0.0 <= reference.paper_value <= 100.0

    def test_covers_all_paper_sections(self):
        sections = {reference.section for reference in PAPER_REFERENCE}
        assert {"6.1", "6.2", "6.3", "7.1", "7.2", "7.3"} <= sections


class TestScorecard:
    def _reference(self, value=50.0, tolerance=5.0):
        return Reference("k", "desc", value, tolerance, "6.1")

    def test_within_band(self):
        entry = ScorecardEntry(self._reference(), measured=53.0)
        assert entry.deviation == pytest.approx(3.0)
        assert entry.within_band

    def test_outside_band(self):
        entry = ScorecardEntry(self._reference(), measured=56.0)
        assert not entry.within_band

    def test_missing_measurement(self):
        entry = ScorecardEntry(self._reference(), measured=None)
        assert entry.within_band is None
        assert entry.deviation is None

    def test_hit_rate(self):
        entries = [
            ScorecardEntry(self._reference(), 51.0),
            ScorecardEntry(self._reference(), 70.0),
            ScorecardEntry(self._reference(), None),
        ]
        scorecard = Scorecard(entries)
        assert scorecard.hits == 1
        assert len(scorecard.evaluated) == 2
        assert scorecard.hit_rate == pytest.approx(0.5)

    def test_build_from_dict(self):
        scorecard = build_scorecard({"serial_lookups": 96.0})
        by_key = {entry.reference.key: entry for entry in scorecard.entries}
        assert by_key["serial_lookups"].measured == 96.0
        assert by_key["limit_all46"].measured is None

    def test_table_renders_misses_loudly(self):
        scorecard = build_scorecard({"serial_lookups": 10.0})
        text = scorecard.to_table().render()
        assert "NO" in text


class TestCollectors:
    @pytest.fixture(scope="class")
    def worlds(self):
        from repro.core.campaign import (
            NotifyEmailCampaign,
            ProbeCampaign,
            Testbed,
            apply_reputation_effects,
        )
        from repro.core.datasets import DatasetSpec, generate_universe

        universe = generate_universe(DatasetSpec.notify_email(scale=0.004), seed=601)
        testbed = Testbed(universe, seed=602)
        notify = NotifyEmailCampaign(testbed).run()
        apply_reputation_effects(universe, seed=603)
        probe = ProbeCampaign(testbed, "NotifyMX", start_time=1e7).run()
        return universe, notify, probe

    def test_notify_collector_covers_its_keys(self, worlds):
        universe, notify, _ = worlds
        measured = collect_notify_measurements(universe, notify)
        for key in ("notify_spf_domains", "combo_full", "partial_spf",
                    "providers_spf", "fig2_negative"):
            assert key in measured
            assert 0.0 <= measured[key] <= 100.0

    def test_probe_collector_covers_its_keys(self, worlds):
        universe, _, probe = worlds
        measured = collect_probe_measurements(universe, probe, "NotifyMX")
        for key in ("notifymx_spf_domains", "reject_spam", "serial_lookups",
                    "void_all_five", "mx_limit_all20"):
            assert key in measured

    def test_every_behavior_stat_label_mapped(self, worlds):
        """Every behaviour statistic that feeds the scorecard names a paper
        reference, and every s7 reference is fed by exactly one statistic."""
        from repro.core import analysis as A

        _, _, probe = worlds
        keys = [stat.key for stat in A.behavior_stats(probe) if stat.key is not None]
        unknown = set(keys) - {reference.key for reference in PAPER_REFERENCE}
        assert not unknown, "statistics feed nonexistent scorecard keys: %s" % unknown
        section7 = [reference.key for reference in PAPER_REFERENCE if reference.section.startswith("7")]
        assert sorted(keys) == sorted(section7)
