"""Campaign artefact export/import ("data release" tooling).

Measurement papers live or die by their released artefacts.  This module
serialises a campaign's raw evidence — the attributed DNS query log and
the SMTP probe transcripts — to JSON-lines files and reads them back, so
analyses can be rerun (or challenged) without re-running the campaign.

Formats are line-oriented JSON with a one-line header record carrying a
format tag and version, so partially-written files fail loudly; the
header and the line streaming are :mod:`repro.obs.jsonl`'s, shared with
the span dump.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.core.probe import ProbeResult
from repro.core.querylog import AttributedQuery, QueryIndex
from repro.dns.errors import DnsError
from repro.dns.name import Name
from repro.dns.rdata import RdataType
from repro.dns.server import QueryLogEntry
from repro.obs.jsonl import Fragments, read_jsonl, string, write_jsonl

FORMAT_VERSION = 1
QUERYLOG_FORMAT = "repro-querylog"
PROBES_FORMAT = "repro-probes"


class TraceError(Exception):
    """Unreadable or incompatible trace file."""


# -- query logs --------------------------------------------------------------

_QUERY_LINE = (
    '{"t": %s, "qname": %s, "qtype": %s, "transport": %s, "client": %s, '
    '"experiment": %s, "mtaid": %s, "testid": %s, "sub": [%s]}\n'
)


def save_query_log(queries: Iterable[AttributedQuery], path: Union[str, Path]) -> int:
    """Write attributed queries as JSON lines; returns the record count."""
    return write_jsonl(path, QUERYLOG_FORMAT, FORMAT_VERSION, queries, _query_line, _query_record)


# One log line is json.dumps(_query_record(query)); _query_line writes the
# same bytes from _QUERY_LINE, or returns None to leave a query to json.dumps.


def _query_record(query: AttributedQuery) -> dict:
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


def _query_line(query: AttributedQuery, fragments: Fragments) -> Optional[str]:
    entry = query.entry
    t = entry.timestamp
    if t - t:  # NaN or ±Infinity
        return None
    return _QUERY_LINE % (
        float.__repr__(t),
        string(str(entry.qname)),
        string(entry.qtype._name_),  # the enum member's name, without the property call
        string(entry.transport),
        string(entry.client_ip),
        string(query.experiment),
        string(query.mtaid),
        string(query.testid),
        ", ".join(map(string, query.sub)),
    )


def load_query_log(path: Union[str, Path]) -> List[AttributedQuery]:
    """Read a query-log trace back into attributed queries."""
    queries: List[AttributedQuery] = []
    for line_number, record in read_jsonl(path, QUERYLOG_FORMAT, FORMAT_VERSION, TraceError, "trace"):
        try:
            entry = QueryLogEntry(
                timestamp=float(record["t"]),
                qname=Name(record["qname"]),
                qtype=RdataType[record["qtype"]],
                transport=record["transport"],
                client_ip=record["client"],
            )
            queries.append(
                AttributedQuery(
                    entry=entry,
                    experiment=record["experiment"],
                    mtaid=record["mtaid"],
                    testid=record["testid"],
                    sub=tuple(record["sub"]),
                )
            )
        except (KeyError, TypeError, ValueError, DnsError) as exc:
            raise TraceError("%s:%d: bad record: %s" % (path, line_number, exc)) from exc
    return queries


def load_query_index(path: Union[str, Path]) -> QueryIndex:
    """Convenience: a ready-to-analyse index from a trace file."""
    return QueryIndex(load_query_log(path))


# -- probe results -------------------------------------------------------------

_PROBE_LINE = (
    '{"mtaid": %s, "testid": %s, "target": %s, "stage": %s, "username": %s, '
    '"error_stage": %s, "error_text": %s, "replies": [%s], "t0": %s, "t1": %s}\n'
)


def save_probe_results(results: Iterable[ProbeResult], path: Union[str, Path]) -> int:
    """Write probe transcripts as JSON lines; returns the record count."""
    return write_jsonl(path, PROBES_FORMAT, FORMAT_VERSION, results, _probe_line, _probe_record)


# Likewise json.dumps(_probe_record(result)) and _probe_line.


def _probe_record(result: ProbeResult) -> dict:
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


def _probe_line(result: ProbeResult, fragments: Fragments) -> Optional[str]:
    t0 = result.t_started
    t1 = result.t_finished
    if t0 - t0 or t1 - t1:  # NaN or ±Infinity
        return None
    username = result.accepted_username
    error_stage = result.error_stage
    error_text = result.error_text
    # A campaign's replies are a few hundred distinct triples repeated
    # tens of thousands of times: each is formatted once per file.
    return _PROBE_LINE % (
        string(result.mtaid),
        string(result.testid),
        string(result.target_ip),
        string(result.stage_reached),
        "null" if username is None else string(username),
        "null" if error_stage is None else string(error_stage),
        "null" if error_text is None else string(error_text),
        fragments.replies(result.replies),
        float.__repr__(t0),
        float.__repr__(t1),
    )


def load_probe_results(path: Union[str, Path]) -> List[ProbeResult]:
    results: List[ProbeResult] = []
    for line_number, record in read_jsonl(path, PROBES_FORMAT, FORMAT_VERSION, TraceError, "trace"):
        try:
            results.append(
                ProbeResult(
                    mtaid=record["mtaid"],
                    testid=record["testid"],
                    target_ip=record["target"],
                    stage_reached=record["stage"],
                    accepted_username=record["username"],
                    error_stage=record["error_stage"],
                    error_text=record["error_text"],
                    replies=[(stage, code, text) for stage, code, text in record["replies"]],
                    t_started=float(record["t0"]),
                    t_finished=float(record["t1"]),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TraceError("%s:%d: bad record: %s" % (path, line_number, exc)) from exc
    return results
