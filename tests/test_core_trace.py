"""Tests for campaign trace export/import."""

import json

import pytest

from repro.core import analysis as A
from repro.core.campaign import ProbeCampaign, Testbed
from repro.core.datasets import DatasetSpec, generate_universe
from repro.core.trace import (
    TraceError,
    load_probe_results,
    load_query_index,
    load_query_log,
    save_probe_results,
    save_query_log,
)


@pytest.fixture(scope="module")
def campaign():
    universe = generate_universe(DatasetSpec.notify_email(scale=0.003), seed=301)
    testbed = Testbed(universe, seed=302)
    result = ProbeCampaign(testbed, "trace-test", testids=["t01", "t06", "t12"]).run()
    return result


class TestQueryLogRoundtrip:
    def test_roundtrip_preserves_everything(self, campaign, tmp_path):
        path = tmp_path / "queries.jsonl"
        written = save_query_log(campaign.index.queries, path)
        assert written == len(campaign.index)
        loaded = load_query_log(path)
        assert len(loaded) == written
        for original, copy in zip(campaign.index.queries, loaded):
            assert copy.timestamp == original.timestamp
            assert copy.entry.qname == original.entry.qname
            assert copy.qtype == original.qtype
            assert copy.transport == original.transport
            assert copy.mtaid == original.mtaid
            assert copy.testid == original.testid
            assert copy.sub == original.sub

    def test_analyses_run_on_loaded_index(self, campaign, tmp_path):
        path = tmp_path / "queries.jsonl"
        save_query_log(campaign.index.queries, path)
        index = load_query_index(path)
        assert index.mtas_observed() == campaign.index.mtas_observed()
        # A real classifier over the loaded data.
        from repro.core.classify import classify_serial_parallel

        for mtaid in index.mtas_observed("t01"):
            observation = classify_serial_parallel(mtaid, index.for_pair(mtaid, "t01"))
            original = classify_serial_parallel(mtaid, campaign.index.for_pair(mtaid, "t01"))
            assert observation.parallel == original.parallel

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0}\n')
        with pytest.raises(TraceError):
            load_query_log(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-probes", "version": 1}\n')
        with pytest.raises(TraceError):
            load_query_log(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-querylog", "version": 99}\n')
        with pytest.raises(TraceError):
            load_query_log(path)

    def test_corrupt_record_locates_line(self, campaign, tmp_path):
        path = tmp_path / "queries.jsonl"
        save_query_log(list(campaign.index.queries)[:3], path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({"t": 1.0})  # missing fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError) as info:
            load_query_log(path)
        assert ":3:" in str(info.value)

    @pytest.mark.parametrize(
        "field, value", [(None, [1]), ("t", None), ("qname", "a..b")], ids=["not-an-object", "null-t", "bad-qname"]
    )
    def test_wrong_json_record_locates_line(self, campaign, tmp_path, field, value):
        """A line that is valid JSON but not a query record raises
        TraceError naming its line, whatever the loader trips over."""
        path = tmp_path / "queries.jsonl"
        save_query_log(list(campaign.index.queries)[:3], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        if field is None:
            record = value
        else:
            record[field] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError) as info:
            load_query_log(path)
        assert ":3:" in str(info.value)


class TestProbeResultsRoundtrip:
    def test_roundtrip(self, campaign, tmp_path):
        path = tmp_path / "probes.jsonl"
        written = save_probe_results(campaign.results, path)
        assert written == len(campaign.results)
        loaded = load_probe_results(path)
        assert len(loaded) == written
        for original, copy in zip(campaign.results, loaded):
            assert copy.mtaid == original.mtaid
            assert copy.testid == original.testid
            assert copy.stage_reached == original.stage_reached
            assert copy.replies == original.replies
            assert copy.rejected_mentioning == original.rejected_mentioning

    def test_rejection_stats_from_loaded_results(self, campaign, tmp_path):
        path = tmp_path / "probes.jsonl"
        save_probe_results(campaign.results, path)
        loaded = load_probe_results(path)
        # Rebuild a result-like object for the analysis function.
        from repro.core.campaign import ProbeCampaignResult

        rebuilt = ProbeCampaignResult(
            name=campaign.name, results=loaded, index=campaign.index, probed=campaign.probed
        )
        assert A.rejection_stats(rebuilt).total_mtas == A.rejection_stats(campaign).total_mtas

    def test_wrong_format_rejected(self, campaign, tmp_path):
        path = tmp_path / "queries.jsonl"
        save_query_log(campaign.index.queries, path)
        with pytest.raises(TraceError):
            load_probe_results(path)
