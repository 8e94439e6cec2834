"""Tests for the fault-matrix campaign."""

import pytest

from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.faultmatrix import (
    FAULT_SCENARIOS,
    classify_outcome,
    run_fault_matrix,
)
from repro.core.probe import ProbeResult
from repro.net.faults import FaultPlan


@pytest.fixture(scope="module")
def universe():
    return generate_universe(DatasetSpec.two_week_mx(scale=0.001), seed=13)


SCENARIOS = (
    ("baseline", ""),
    ("banner_absent", "banner_absent:1.0"),
    ("servfail", "servfail:0.5"),
)


class TestClassify:
    def test_done(self):
        result = ProbeResult(mtaid="m", testid="t", target_ip="ip", stage_reached="done")
        assert classify_outcome(result) == "done"

    def test_noconnect(self):
        result = ProbeResult(
            mtaid="m", testid="t", target_ip="ip", error_stage="connect"
        )
        assert classify_outcome(result) == "noconnect"

    def test_stalled(self):
        result = ProbeResult(
            mtaid="m", testid="t", target_ip="ip", stage_reached="mail", error_stage="rcpt"
        )
        assert classify_outcome(result) == "stalled"


class TestMatrix:
    def test_outcomes_shift_under_faults(self, universe):
        matrix = run_fault_matrix(universe, seed=13, scenarios=SCENARIOS)
        by_label = {o.label: o for o in matrix.outcomes}
        baseline = by_label["baseline"]
        absent = by_label["banner_absent"]
        assert baseline.injections == {}
        assert len(absent.results) == len(baseline.results)
        # Every conversation meets the missing banner: nothing connects.
        assert absent.buckets["noconnect"] == len(absent.results)
        assert absent.injections.get("banner_absent", 0) >= len(absent.results)
        # DNS-side faults degrade validation, not the conversation.
        assert by_label["servfail"].buckets["done"] == baseline.buckets["done"]
        assert by_label["servfail"].injections.get("servfail", 0) > 0
        assert matrix.reconciled and all(o.reconciled for o in matrix.outcomes)

    def test_reruns_identically(self, universe):
        first = run_fault_matrix(universe, seed=13, scenarios=SCENARIOS)
        second = run_fault_matrix(universe, seed=13, scenarios=SCENARIOS)
        assert first.to_table().render() == second.to_table().render()

    def test_table_is_the_same_for_every_worker_count(self, universe):
        one = run_fault_matrix(universe, seed=13, scenarios=SCENARIOS, workers=1)
        two = run_fault_matrix(universe, seed=13, scenarios=SCENARIOS, workers=2)
        assert one.to_table().render() == two.to_table().render()
        assert [o.injections for o in one.outcomes] == [o.injections for o in two.outcomes]

    def test_table_lists_every_scenario(self, universe):
        matrix = run_fault_matrix(universe, seed=13, scenarios=SCENARIOS)
        rendered = matrix.to_table().render()
        for label, _ in SCENARIOS:
            assert label in rendered
        assert "Fault matrix" in rendered

    def test_canonical_scenarios_cover_every_kind(self):
        specs = ",".join(spec for _, spec in FAULT_SCENARIOS if spec)
        kinds = {rule.kind for rule in FaultPlan.parse(specs).rules}
        from repro.net.faults import FaultKind

        assert kinds == set(FaultKind)
