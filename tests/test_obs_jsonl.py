"""Tests for the one JSON-lines writer and reader (repro.obs.jsonl).

The writer formats every line from a template instead of calling
``json.dumps`` per record, so the tests hold it to ``json.dumps``: each
line of each of the three artefacts — query log, probe transcripts,
span dump — must equal ``json.dumps`` of the record the format defines,
whatever the record holds; the memo table must never hand one value the
fragment of an equal but differently written one; and a real run's
artefacts must survive load and save byte for byte.
"""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import trace
from repro.core.probe import ProbeResult
from repro.core.querylog import AttributedQuery
from repro.core.runner import main as runner_main
from repro.core.trace import load_probe_results, load_query_log, save_probe_results, save_query_log
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.server import QueryLogEntry
from repro.obs import spans as span_module
from repro.obs.jsonl import CHUNK_LINES, Fragments
from repro.obs.spans import Span, load_spans, save_spans

# -- strategies ------------------------------------------------------------

#: Strings with everything the escaper must get right: quotes,
#: backslashes, control characters, non-ASCII, a lone surrogate.
TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", 'q"u\\o', "\x00", "\x1f\n\t", "café", " ", "\U0001f600", "\ud800"]),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
)
#: Mixed-case names, so equal names differ in their text.
NAMES = st.lists(st.from_regex(r"[A-Za-z0-9-]{1,8}", fullmatch=True), max_size=4).map(Name)


class Code(enum.IntEnum):
    OK = 250


class Opaque:
    def __str__(self):
        return 'opaque "thing"'


#: Every kind of span attribute value: JSON scalars as themselves, an int
#: subclass as its number, anything else through str().
ATTR_VALUES = st.one_of(
    TEXT,
    st.integers(),
    st.booleans(),
    st.none(),
    FLOATS,
    NAMES,
    st.sampled_from([1, True, 1.0, 0, False, -0.0, Code.OK, 250]),
    st.tuples(TEXT, st.integers()),
    st.lists(st.integers(), max_size=2),
    st.just(Opaque()),
)
ATTRS = st.dictionaries(st.sampled_from(["code", "qname", "command", "cached", "kéy"]) | TEXT, ATTR_VALUES,
                        max_size=4)
NUMBERS = st.one_of(FLOATS, st.integers(min_value=-5, max_value=5), st.booleans())
REPLIES = st.lists(
    st.tuples(st.sampled_from(["ehlo", "rcpt"]) | TEXT, st.sampled_from([250, 550, 1, True]) | st.integers(),
              st.sampled_from(["OK", "5.1.1 User unknown"]) | TEXT),
    max_size=4,
)


def _attr_json(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@st.composite
def spans(draw):
    span = Span(
        draw(TEXT),
        draw(NUMBERS),
        draw(st.integers(min_value=0) | st.booleans()),
        draw(st.none() | st.integers(min_value=0)),
        attrs=draw(ATTRS),
    )
    span.t_end = draw(st.none() | NUMBERS)
    return span


@st.composite
def queries(draw):
    entry = QueryLogEntry(draw(NUMBERS), draw(NAMES), draw(st.sampled_from(list(RdataType))), draw(TEXT), draw(TEXT))
    return AttributedQuery(entry, draw(TEXT), draw(TEXT), draw(TEXT), tuple(draw(st.lists(TEXT, max_size=3))))


@st.composite
def probes(draw):
    optional = st.none() | TEXT
    return ProbeResult(
        draw(TEXT), draw(TEXT), draw(TEXT), draw(TEXT), draw(optional), draw(optional), draw(optional),
        draw(REPLIES), draw(NUMBERS), draw(NUMBERS),
    )


# -- the records json.dumps is held to --------------------------------------


def _span_record(span):
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "t0": span.t_start,
        "t1": span.t_end if span.t_end is not None else span.t_start,
        "attrs": {key: _attr_json(value) for key, value in span.attrs.items()},
    }


def _query_record(query):
    return {
        "t": query.timestamp,
        "qname": str(query.entry.qname),
        "qtype": query.qtype.name,
        "transport": query.transport,
        "client": query.entry.client_ip,
        "experiment": query.experiment,
        "mtaid": query.mtaid,
        "testid": query.testid,
        "sub": list(query.sub),
    }


def _probe_record(result):
    return {
        "mtaid": result.mtaid,
        "testid": result.testid,
        "target": result.target_ip,
        "stage": result.stage_reached,
        "username": result.accepted_username,
        "error_stage": result.error_stage,
        "error_text": result.error_text,
        "replies": [[stage, code, text] for stage, code, text in result.replies],
        "t0": result.t_started,
        "t1": result.t_finished,
    }


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl")


def _written(save, items, path):
    assert save(items, path) == len(items)
    return path.read_text(encoding="utf-8").split("\n")


class TestLinesEqualJsonDumps:
    @settings(max_examples=150, deadline=None)
    @given(items=st.lists(spans(), max_size=6))
    def test_span_dump(self, out_dir, items):
        lines = _written(save_spans, items, out_dir / "spans.jsonl")
        assert lines == [json.dumps({"format": "repro-spans", "version": 1})] + [
            json.dumps(_span_record(span)) for span in items
        ] + [""]

    @settings(max_examples=150, deadline=None)
    @given(items=st.lists(queries(), max_size=6))
    def test_query_log(self, out_dir, items):
        lines = _written(save_query_log, items, out_dir / "queries.jsonl")
        assert lines == [json.dumps({"format": "repro-querylog", "version": 1})] + [
            json.dumps(_query_record(query)) for query in items
        ] + [""]

    @settings(max_examples=150, deadline=None)
    @given(items=st.lists(probes(), max_size=6))
    def test_probe_transcripts(self, out_dir, items):
        lines = _written(save_probe_results, items, out_dir / "probes.jsonl")
        assert lines == [json.dumps({"format": "repro-probes", "version": 1})] + [
            json.dumps(_probe_record(result)) for result in items
        ] + [""]

    @settings(max_examples=200, deadline=None)
    @given(attrs=ATTRS)
    def test_attrs_fragment(self, attrs):
        # The template path either writes exactly json.dumps's object or
        # declines, and the record goes to json.dumps whole.
        reference = json.dumps({key: _attr_json(value) for key, value in attrs.items()})
        try:
            fragment = Fragments().attrs(attrs)
        except TypeError:
            return
        assert fragment == reference

    @settings(max_examples=200, deadline=None)
    @given(replies=REPLIES)
    def test_replies_fragment(self, replies):
        reference = json.dumps([list(reply) for reply in replies])
        try:
            fragment = Fragments().replies(replies)
        except TypeError:
            return
        assert "[%s]" % fragment == reference


class TestMemo:
    def test_true_never_gets_the_fragment_of_one(self):
        fragments = Fragments()
        seen = [fragments.attrs({"code": value}) for value in (1, True, 1, False, 0, None)]
        assert seen == ['{"code": 1}', '{"code": true}', '{"code": 1}', '{"code": false}', '{"code": 0}',
                        '{"code": null}']

    def test_each_name_casing_keeps_its_own_text(self):
        fragments = Fragments()
        seen = [fragments.attrs({"qname": Name(text)}) for text in ("Foo.Example.", "foo.example.", "FOO.example.")]
        assert seen == ['{"qname": "Foo.Example."}', '{"qname": "foo.example."}', '{"qname": "FOO.example."}']

    def test_reply_memo_tells_true_from_one(self, tmp_path):
        results = [
            ProbeResult("m1", "t01", "10.0.0.1", replies=[("rcpt", 1, "x")]),
            ProbeResult("m1", "t01", "10.0.0.1", replies=[("rcpt", True, "x")]),
            ProbeResult("m1", "t01", "10.0.0.1", replies=[("rcpt", 1.0, "x")]),
            ProbeResult("m1", "t01", "10.0.0.1", replies=[("rcpt", 1, "x")]),
        ]
        lines = _written(save_probe_results, results, tmp_path / "probes.jsonl")[1:-1]
        assert [json.loads(line)["replies"] for line in lines] == [
            [["rcpt", 1, "x"]], [["rcpt", True, "x"]], [["rcpt", 1.0, "x"]], [["rcpt", 1, "x"]]
        ]
        assert '["rcpt", true, "x"]' in lines[1] and '["rcpt", 1.0, "x"]' in lines[2]

    def test_spans_stream_in_chunks(self, tmp_path):
        count = 2 * CHUNK_LINES + 7
        generated = (Span("s", float(i), i + 1, None, attrs={"code": 250}) for i in range(count))
        path = tmp_path / "spans.jsonl"
        assert save_spans(generated, path) == count
        loaded = load_spans(path)
        assert [span.span_id for span in loaded] == list(range(1, count + 1))


class TestRunnerArtefactsRoundTrip:
    """Loading a real run's artefacts and saving them again rewrites
    them byte for byte (span attributes come back as JSON types, and a
    loaded name keeps its casing, so nothing is lost)."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        code = runner_main([
            "--experiment", "twoweekmx", "--scale", "0.002", "--seed", "7", "--workers", "1",
            "--faults", "udp_loss:0.1,servfail:0.05,banner_delay:0.2:45", "--out", str(out), "--quiet",
        ])
        assert code == 0
        return out

    @pytest.mark.parametrize(
        "suffix, load, save",
        [
            ("queries", load_query_log, save_query_log),
            ("probes", load_probe_results, save_probe_results),
            ("spans", load_spans, save_spans),
        ],
    )
    def test_save_of_load_is_identity(self, run_dir, tmp_path, suffix, load, save):
        original = run_dir / ("twoweekmx_%s.jsonl" % suffix)
        records = load(original)
        assert records
        copy = tmp_path / original.name
        assert save(records, copy) == len(records)
        assert copy.read_bytes() == original.read_bytes()

    @pytest.mark.parametrize(
        "suffix, load, line",
        [
            ("queries", load_query_log, trace._query_line),
            ("probes", load_probe_results, trace._probe_line),
            ("spans", load_spans, span_module._span_line),
        ],
    )
    def test_template_path_writes_every_real_record(self, run_dir, suffix, load, line):
        # json.dumps is the fallback for odd records; a run's own records
        # must never need it, or the writer has silently lost its speed.
        fragments = Fragments()
        records = load(run_dir / ("twoweekmx_%s.jsonl" % suffix))
        assert all(line(record, fragments) is not None for record in records)
