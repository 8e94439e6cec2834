"""Span tracing over virtual time.

A :class:`Span` is one named interval of virtual time with attributes;
a :class:`Tracer` hands them out as context managers and keeps the
finished ones.  Because the whole simulation is single-threaded, call
nesting *is* causality: a span opened while another is open becomes its
child, so one probe conversation's tree contains the SMTP commands it
sent, the SPF checks those triggered on the server, and the DNS queries
each check performed — across simulated hosts.

Start and end instants are explicit virtual timestamps (the same values
threaded through every protocol API); a span that is never explicitly
ended closes at its start time.  Span dumps are JSON-lines files
written and read by :mod:`repro.obs.jsonl`, like the query log of
:mod:`repro.core.trace`, so the ``<name>_spans.jsonl`` runner artefact
is loadable next to the query log it must reconcile with
(:mod:`repro.obs.reconcile`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.jsonl import Fragments, read_jsonl, string, write_jsonl

SPAN_FORMAT = "repro-spans"
SPAN_FORMAT_VERSION = 1


class SpanError(Exception):
    """Unreadable or incompatible span dump."""


class Span:
    """One named interval of virtual time, with attributes."""

    __slots__ = ("name", "span_id", "parent_id", "t_start", "t_end", "attrs", "_tracer")

    def __init__(
        self,
        name: str,
        t_start: float,
        span_id: int,
        parent_id: Optional[int],
        attrs: Optional[dict] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self._tracer = tracer

    def set(self, **attrs: object) -> "Span":
        """Attach attributes; later values win."""
        self.attrs.update(attrs)
        return self

    def end(self, t_end: float) -> "Span":
        """Close the span at virtual instant ``t_end``."""
        if t_end < self.t_start:
            raise ValueError(
                "span %r ends before it starts (%r < %r)" % (self.name, t_end, self.t_start)
            )
        self.t_end = t_end
        return self

    @property
    def duration(self) -> float:
        return (self.t_end if self.t_end is not None else self.t_start) - self.t_start

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Hot path, so the tracer's bookkeeping is inlined here (one call
        # per span adds up — see benchmarks/bench_obs_overhead.py).
        # Context managers guarantee LIFO exits; a foreign span (one
        # constructed directly) leaves the stack alone.
        if exc is not None:
            self.attrs.setdefault("error", "%s: %s" % (type(exc).__name__, exc))
        if self.t_end is None:
            self.t_end = self.t_start
        tracer = self._tracer
        if tracer is not None:
            stack = tracer._stack
            if stack and stack[-1] is self:
                stack.pop()
            tracer.finished.append(self)
        return False

    def __repr__(self) -> str:
        return "Span(%r, t=[%s..%s], id=%d, parent=%r)" % (
            self.name, self.t_start, self.t_end, self.span_id, self.parent_id
        )


_new_span = object.__new__


class Tracer:
    """Creates spans and collects the finished ones."""

    enabled = True

    __slots__ = ("finished", "_stack", "_next_id")

    def __init__(self) -> None:
        #: Finished spans, in completion order.
        self.finished: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    def span(self, name: str, t_start: float, **attrs: object) -> Span:
        """Open a span; the innermost still-open span is its parent.

        Use as a context manager::

            with tracer.span("dns.query", t, qname=name) as sp:
                answer, t_done = ...
                sp.set(status=answer.status.value)
                sp.end(t_done)
        """
        # One per SMTP command and DNS exchange: the slots are filled
        # here directly, with no ``Span.__init__`` frame.
        stack = self._stack
        created = _new_span(Span)
        created.name = name
        created.t_start = t_start
        created.t_end = None
        created.span_id = self._next_id
        created.parent_id = stack[-1].span_id if stack else None
        created.attrs = attrs
        created._tracer = self
        self._next_id += 1
        stack.append(created)
        return created

    # -- queries ---------------------------------------------------------

    def find(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally filtered by name."""
        if name is None:
            return list(self.finished)
        return [span for span in self.finished if span.name == name]

    def roots(self) -> List[Span]:
        return [span for span in self.finished if span.parent_id is None]

    def children_index(self) -> Dict[Optional[int], List[Span]]:
        """parent_id -> children in start order, over finished spans."""
        index: Dict[Optional[int], List[Span]] = {}
        for span in self.finished:
            index.setdefault(span.parent_id, []).append(span)
        for offspring in index.values():
            offspring.sort(key=lambda span: (span.t_start, span.span_id))
        return index

    def clear(self) -> None:
        self.finished.clear()

    def __len__(self) -> int:
        return len(self.finished)


class NullSpan(Span):
    """A reusable do-nothing span (returned by :class:`NullTracer`).

    Hot call sites write an attribute straight into ``span.attrs``; on
    the shared null span those writes land in a dict nothing reads.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("", 0.0, 0, None, attrs={})

    def set(self, **attrs: object) -> "Span":
        return self

    def end(self, t_end: float) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = NullSpan()


class NullTracer(Tracer):
    """The no-op fast path: every span() call returns one shared span."""

    enabled = False

    def span(self, name: str, t_start: float, **attrs: object) -> Span:
        return _NULL_SPAN


# -- rendering ---------------------------------------------------------


def render_span(span: Span) -> str:
    """One line: name, virtual interval, attributes."""
    attrs = " ".join("%s=%s" % (key, _attr_text(value)) for key, value in sorted(span.attrs.items()))
    line = "%s [%0.3f .. %0.3f] (%0.3fs)" % (
        span.name, span.t_start, span.t_end if span.t_end is not None else span.t_start, span.duration
    )
    return "%s %s" % (line, attrs) if attrs else line


def render_tree(root: Span, spans: Iterable[Span]) -> str:
    """An ASCII tree of ``root`` and its descendants within ``spans``."""
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    for offspring in index.values():
        offspring.sort(key=lambda span: (span.t_start, span.span_id))
    lines = [render_span(root)]

    def walk(span: Span, prefix: str) -> None:
        offspring = index.get(span.span_id, [])
        for position, child in enumerate(offspring):
            last = position == len(offspring) - 1
            lines.append(prefix + ("`- " if last else "|- ") + render_span(child))
            walk(child, prefix + ("   " if last else "|  "))

    walk(root, "")
    return "\n".join(lines)


# -- JSON-lines export/import ------------------------------------------


def _attr_text(value: object) -> str:
    return value if isinstance(value, str) else str(value)


_SPAN_LINE = '{"id": %s, "parent": %s, "name": %s, "t0": %s, "t1": %s, "attrs": %s}\n'


def save_spans(spans: Iterable[Span], path: Union[str, Path]) -> int:
    """Write finished spans as JSON lines; returns the record count."""
    return write_jsonl(path, SPAN_FORMAT, SPAN_FORMAT_VERSION, spans, _span_line, _span_record)


def _attr_json(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# One dump line is json.dumps(_span_record(span)); _span_line writes the
# same bytes from _SPAN_LINE, or returns None to leave a span to json.dumps.


def _span_record(span: Span) -> dict:
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "t0": span.t_start,
        "t1": span.t_end if span.t_end is not None else span.t_start,
        "attrs": {key: _attr_json(value) for key, value in span.attrs.items()},
    }


def _span_line(span: Span, fragments: Fragments) -> Optional[str]:
    span_id = span.span_id
    parent = span.parent_id
    t_start = span.t_start
    t_end = span.t_end
    if t_end is None:
        t_end = t_start
    if (
        type(span_id) is not int
        or not (parent is None or type(parent) is int)
        or t_start - t_start  # NaN or ±Infinity
        or t_end - t_end
    ):
        return None
    return _SPAN_LINE % (
        int.__repr__(span_id),
        "null" if parent is None else int.__repr__(parent),
        string(span.name),
        float.__repr__(t_start),
        float.__repr__(t_end),
        fragments.attrs(span.attrs),
    )


def load_spans(path: Union[str, Path]) -> List[Span]:
    """Read a span dump back; attributes come back JSON-typed."""
    spans: List[Span] = []
    for line_number, record in read_jsonl(path, SPAN_FORMAT, SPAN_FORMAT_VERSION, SpanError, "span-dump"):
        try:
            span = Span(
                record["name"],
                float(record["t0"]),
                int(record["id"]),
                record["parent"],
                attrs=dict(record["attrs"]),
            )
            span.end(float(record["t1"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpanError("%s:%d: bad span record: %s" % (path, line_number, exc)) from exc
        spans.append(span)
    return spans
