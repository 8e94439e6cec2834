"""The per-layer ledger: which public entry points the traced run wraps,
and how their counts and self times become the per-layer metrics.

Every layer is measured from outside the program: :mod:`harness` wraps
the functions named here at every module that holds them, so no code in
``src/`` knows it is being traced.  A metric ending in ``_s`` is *self
time*: the wrapper's duration minus the time its wrapped children cover,
summed over every process of the run (shard workers included).

``PER_LAYER`` maps each metric to the end-to-end metric it should move
and the workloads on which it should move it; a change that claims a
gain on one layer cites these names.  ``nonzero`` lists the workloads on
which the layer must record work: a renamed or bypassed entry point then
fails the traced run instead of reporting zeros.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence, Tuple

PROBE_SERIAL, PROBE_SHARDED, NOTIFY_SERIAL = "probe-serial", "probe-sharded", "notify-serial"
ALL = (PROBE_SERIAL, PROBE_SHARDED, NOTIFY_SERIAL)
PROBE = (PROBE_SERIAL, PROBE_SHARDED)
SERIAL = (PROBE_SERIAL, NOTIFY_SERIAL)
SHARDED = (PROBE_SHARDED,)
NOTIFY = (NOTIFY_SERIAL,)
NONE: Tuple[str, ...] = ()

# (defining module, attribute path, ledger label).  A label is
# "<layer>:<operation>"; a layer's self time sums its operations.
SPANS: List[Tuple[str, str, str]] = [
    ("repro.core.datasets", "generate_universe", "core.datasets:generate"),
    ("repro.core.campaign", "Testbed.__init__", "core.campaign:testbed"),
    ("repro.core.campaign", "ProbeCampaign.run", "core.campaign:run"),
    ("repro.core.campaign", "NotifyEmailCampaign.run", "core.campaign:run"),
    ("repro.core.probe", "ProbeClient.probe", "core.probe:probe"),
    ("repro.mta.sender", "SendingMta.send", "mta.sender:send"),
    ("repro.smtp.client", "SmtpClient.connect", "smtp.client:connect"),
    ("repro.smtp.client", "SmtpClient.command", "smtp.client:command"),
    ("repro.smtp.client", "SmtpClient.send_message", "smtp.client:message"),
    ("repro.smtp.server", "SmtpSession.on_connect", "smtp.server:connect"),
    ("repro.smtp.server", "SmtpSession.on_data", "smtp.server:data"),
    ("repro.smtp.server", "SmtpSession.on_close", "smtp.server:close"),
    ("repro.spf.evaluator", "SpfEvaluator.check_host", "spf:check"),
    ("repro.dkim.sign", "DkimSigner.sign", "dkim.sign:sign"),
    ("repro.dkim.verify", "DkimVerifier.verify", "dkim.verify:verify"),
    ("repro.dns.resolver", "Resolver.query_at", "dns.resolver:query"),
    ("repro.dns.wire", "to_wire", "dns.wire:encode"),
    ("repro.dns.wire", "from_wire", "dns.wire:decode"),
    ("repro.core.synth", "SynthesizingAuthority.resolve", "core.synth:answer"),
    ("repro.dns.server", "AuthoritativeServer.resolve", "dns.server:answer"),
    ("repro.net.network", "Network.udp_request", "net.udp:request"),
    ("repro.net.network", "Network.connect_tcp", "net.tcp:connect"),
    ("repro.net.network", "TcpChannel.request", "net.tcp:request"),
    ("repro.net.network", "TcpChannel.close", "net.tcp:close"),
    ("repro.core.parallel", "run_probe_sharded", "core.parallel:campaign"),
    ("repro.core.parallel", "run_notify_sharded", "core.parallel:campaign"),
    ("repro.core.parallel", "run_shard", "core.parallel:shard"),
    ("repro.core.parallel", "merge_shard_results", "core.parallel:merge"),
    ("repro.core.querylog", "attribute_queries_with_stats", "core.querylog:attribute"),
    ("repro.lint.tracecheck", "check_index", "lint.tracecheck:check"),
    ("repro.obs.reconcile", "reconcile_spans", "obs.reconcile:reconcile"),
    ("repro.obs.spans", "save_spans", "obs.spans.dump:dump"),
    ("repro.core.trace", "save_query_log", "core.trace:write"),
    ("repro.core.trace", "save_probe_results", "core.trace:write"),
    ("repro.core.fingerprint", "fingerprint_fleet", "core.analysis:report"),
    ("repro.core.report", "Table.render", "core.analysis:report"),
    ("repro.core.report", "render_histogram", "core.analysis:report"),
]

# Every public function of this module is a report builder.
ANALYSIS_MODULE = ("repro.core.analysis", "core.analysis:report")

# Hot leaves: they take part in self-time accounting but record no span,
# which would multiply the span dump several times over.
LEAVES: List[Tuple[str, str, str]] = [
    ("repro.obs.spans", "Tracer.span", "obs.span:open"),
    ("repro.obs.spans", "Span.set", "obs.span:set"),
    ("repro.obs.spans", "Span.end", "obs.span:end"),
    ("repro.obs.spans", "Span.__exit__", "obs.span:exit"),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs.counter:counter"),
    ("repro.obs.metrics", "MetricsRegistry.observe", "obs.counter:observe"),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs.counter:gauge"),
]

# Pure counts: no timing at all.
COUNTS: List[Tuple[str, str, str]] = [
    ("repro.dns.name", "Name.__init__", "dns.name.constructed"),
]

# Labels whose inclusive durations are kept for percentiles.
SAMPLED = ("core.probe:probe", "mta.sender:send")


def _probe_op(args) -> str:
    # ProbeClient.probe(self, target_ip, mtaid, testid, rcpt_domain, t)
    return "%s/%s" % (args[2], args[3])


def _delivery_op(args) -> str:
    # SendingMta.send(self, message, sender, recipient, t, ...)
    return str(args[3]).rsplit("@", 1)[-1]


# Label -> function of the call's arguments giving the operation id that
# every span opened beneath it carries.
OPERATION = {"core.probe:probe": _probe_op, "mta.sender:send": _delivery_op}


def _add(counts: Dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _connect_error(counts, exc) -> None:
    # Refused, reset and silent servers raise without a parsed reply; an
    # unfriendly banner carries one and is a completed connection.
    if getattr(exc, "reply", True) is None:
        _add(counts, "smtp.client.connect_failed", 1)


def _server_lines(counts, args, result) -> None:
    _add(counts, "smtp.server.lines", args[1].count(b"\r\n"))


def _resolver_answer(counts, args, result) -> None:
    answer = result[0]
    if answer.from_cache:
        _add(counts, "dns.resolver.cache_hits", 1)
    if answer.status.is_error:
        _add(counts, "dns.resolver.failed", 1)


def _encoded(counts, args, result) -> None:
    _add(counts, "dns.wire.bytes", len(result))


def _decoded(counts, args, result) -> None:
    _add(counts, "dns.wire.bytes", len(args[0]))


def _dumped(counts, args, result) -> None:
    _add(counts, "obs.spans.dumped", result)


def _written(counts, args, result) -> None:
    _add(counts, "core.trace.bytes", os.path.getsize(args[1]))


ON_RESULT = {
    "smtp.server:data": _server_lines,
    "dns.resolver:query": _resolver_answer,
    "dns.wire:encode": _encoded,
    "dns.wire:decode": _decoded,
    "obs.spans.dump:dump": _dumped,
    "core.trace:write": _written,
}
ON_ERROR = {"smtp.client:connect": _connect_error}

# metric -> (end-to-end metric it should move, workloads where it moves,
#            workloads on which it must be non-zero)
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {
    "core.datasets.generate_s": ("setup_s", SERIAL, ALL),
    "core.campaign.testbed_s": ("setup_s on serial, ops_per_s on probe-sharded", ALL, ALL),
    "core.probe.calls": ("ops_per_s", PROBE, PROBE),
    "core.probe.p50_us": ("ops_per_s", PROBE, PROBE),
    "core.probe.p99_us": ("ops_per_s", PROBE, PROBE),
    "core.probe.samples": ("ops_per_s", PROBE, PROBE),
    "mta.sender.calls": ("ops_per_s", NOTIFY, NOTIFY),
    "mta.sender.p50_us": ("ops_per_s", NOTIFY, NOTIFY),
    "mta.sender.p99_us": ("ops_per_s", NOTIFY, NOTIFY),
    "mta.sender.samples": ("ops_per_s", NOTIFY, NOTIFY),
    "smtp.client.commands": ("ops_per_s", PROBE, ALL),
    "smtp.client.self_s": ("ops_per_s", PROBE, ALL),
    "smtp.client.connect_failed": ("ops_per_s", PROBE, NONE),
    "smtp.server.lines": ("ops_per_s", PROBE, ALL),
    "smtp.server.self_s": ("ops_per_s", PROBE, ALL),
    "spf.checks": ("ops_per_s", ALL, ALL),
    "spf.self_s": ("ops_per_s", ALL, ALL),
    "spf.checks_per_op": ("ops_per_s", ALL, ALL),
    "dns.resolver.queries": ("ops_per_s", ALL, ALL),
    "dns.resolver.self_s": ("ops_per_s", ALL, ALL),
    "dns.resolver.cache_hit_ratio": ("ops_per_s", ALL, PROBE),
    "dns.resolver.failed": ("ops_per_s", ALL, NONE),
    "dns.wire.encodes": ("ops_per_s on probe-serial, no loss on notify-serial", ALL, ALL),
    "dns.wire.encode_s": ("ops_per_s on probe-serial, no loss on notify-serial", ALL, ALL),
    "dns.wire.decodes": ("ops_per_s on probe-serial, no loss on notify-serial", ALL, ALL),
    "dns.wire.decode_s": ("ops_per_s on probe-serial, no loss on notify-serial", ALL, ALL),
    "dns.wire.bytes": ("ops_per_s on probe-serial, no loss on notify-serial", ALL, ALL),
    "dns.name.per_query": ("ops_per_s on probe-serial, no loss on notify-serial", ALL, ALL),
    "core.synth.answers": ("ops_per_s", PROBE, ALL),
    "core.synth.self_s": ("ops_per_s", PROBE, ALL),
    "dns.server.answers": ("ops_per_s", NOTIFY, NOTIFY),
    "dns.server.self_s": ("ops_per_s", NOTIFY, NOTIFY),
    "net.udp.requests": ("ops_per_s", ALL, ALL),
    "net.udp.self_s": ("ops_per_s", ALL, ALL),
    "net.tcp.requests": ("ops_per_s", ALL, ALL),
    "net.tcp.self_s": ("ops_per_s", ALL, ALL),
    "dkim.sign.calls": ("ops_per_s", NOTIFY, NOTIFY),
    "dkim.sign.self_s": ("ops_per_s", NOTIFY, NOTIFY),
    "dkim.verify.calls": ("ops_per_s", NOTIFY, NOTIFY),
    "dkim.verify.self_s": ("ops_per_s", NOTIFY, NOTIFY),
    "obs.spans": ("ops_per_s and peak_rss_mb", (PROBE_SERIAL,), ALL),
    "obs.span_s": ("ops_per_s and peak_rss_mb", (PROBE_SERIAL,), ALL),
    "obs.counters": ("ops_per_s", (PROBE_SERIAL,), ALL),
    "obs.counter_s": ("ops_per_s", (PROBE_SERIAL,), ALL),
    "core.parallel.shard_busy_max_s": ("ops_per_s and cpu_s", SHARDED, SHARDED),
    "core.parallel.shard_skew": ("ops_per_s and cpu_s", SHARDED, SHARDED),
    "core.parallel.overhead_s": ("ops_per_s and cpu_s", SHARDED, NONE),
    "core.parallel.job_bytes": ("ops_per_s and cpu_s", SHARDED, SHARDED),
    "core.parallel.result_bytes": ("ops_per_s and cpu_s", SHARDED, SHARDED),
    "core.parallel.merge_s": ("ops_per_s and cpu_s", SHARDED, SHARDED),
    "core.querylog.attribute_calls": ("postflight_s and wall_s", ALL, ALL),
    "core.querylog.attribute_s": ("postflight_s and wall_s", ALL, ALL),
    "lint.tracecheck.check_s": ("postflight_s and wall_s", ALL, ALL),
    "obs.reconcile.s": ("postflight_s and wall_s", ALL, ALL),
    "obs.spans.dump_s": ("postflight_s and wall_s", SERIAL, SERIAL),
    "obs.spans.dumped": ("postflight_s and wall_s", SERIAL, SERIAL),
    "core.trace.write_s": ("postflight_s and wall_s", ALL, ALL),
    "core.trace.bytes": ("postflight_s and wall_s", ALL, ALL),
    "core.analysis.report_s": ("postflight_s and wall_s", ALL, ALL),
    "trace.overhead_s": ("none: traced wall_s minus untraced wall_s", NONE, NONE),
    "trace.spans": ("none: spans the ledger recorded", NONE, ALL),
}


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(ledger: dict, ops: int, campaign_s: float, busy: List[float]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (all but the
    tracing overhead, which needs an untraced repetition to compare)."""
    stats: Dict[str, List[float]] = ledger["stats"]
    counts: Dict[str, float] = ledger["counts"]
    samples: Dict[str, List[float]] = ledger["samples"]

    def calls(label: str) -> float:
        return stats.get(label, (0, 0.0, 0.0))[0]

    def self_s(*labels: str) -> float:
        layers = [label for label in labels if ":" not in label]
        return sum(
            value[2]
            for key, value in stats.items()
            if key in labels or key.split(":", 1)[0] in layers
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    probe = [s * 1e6 for s in samples.get("core.probe:probe", [])]
    send = [s * 1e6 for s in samples.get("mta.sender:send", [])]
    queries = calls("dns.resolver:query")
    busiest = max(busy) if busy else 0.0
    return {
        "core.datasets.generate_s": self_s("core.datasets:generate"),
        "core.campaign.testbed_s": self_s("core.campaign:testbed"),
        "core.probe.calls": calls("core.probe:probe"),
        "core.probe.p50_us": _percentile(probe, 50),
        "core.probe.p99_us": _percentile(probe, 99),
        "core.probe.samples": len(probe),
        "mta.sender.calls": calls("mta.sender:send"),
        "mta.sender.p50_us": _percentile(send, 50),
        "mta.sender.p99_us": _percentile(send, 99),
        "mta.sender.samples": len(send),
        "smtp.client.commands": calls("smtp.client:command") + calls("smtp.client:message"),
        "smtp.client.self_s": self_s("smtp.client"),
        "smtp.client.connect_failed": ratio(
            counts.get("smtp.client.connect_failed", 0), calls("smtp.client:connect")
        ),
        "smtp.server.lines": counts.get("smtp.server.lines", 0),
        "smtp.server.self_s": self_s("smtp.server"),
        "spf.checks": calls("spf:check"),
        "spf.self_s": self_s("spf"),
        "spf.checks_per_op": ratio(calls("spf:check"), ops),
        "dns.resolver.queries": queries,
        "dns.resolver.self_s": self_s("dns.resolver"),
        "dns.resolver.cache_hit_ratio": ratio(counts.get("dns.resolver.cache_hits", 0), queries),
        "dns.resolver.failed": counts.get("dns.resolver.failed", 0),
        "dns.wire.encodes": calls("dns.wire:encode"),
        "dns.wire.encode_s": self_s("dns.wire:encode"),
        "dns.wire.decodes": calls("dns.wire:decode"),
        "dns.wire.decode_s": self_s("dns.wire:decode"),
        "dns.wire.bytes": counts.get("dns.wire.bytes", 0),
        "dns.name.per_query": ratio(counts.get("dns.name.constructed", 0), queries),
        "core.synth.answers": calls("core.synth:answer"),
        "core.synth.self_s": self_s("core.synth"),
        "dns.server.answers": calls("dns.server:answer"),
        "dns.server.self_s": self_s("dns.server"),
        "net.udp.requests": calls("net.udp:request"),
        "net.udp.self_s": self_s("net.udp"),
        "net.tcp.requests": calls("net.tcp:request"),
        "net.tcp.self_s": self_s("net.tcp"),
        "dkim.sign.calls": calls("dkim.sign:sign"),
        "dkim.sign.self_s": self_s("dkim.sign"),
        "dkim.verify.calls": calls("dkim.verify:verify"),
        "dkim.verify.self_s": self_s("dkim.verify"),
        "obs.spans": calls("obs.span:open"),
        "obs.span_s": self_s("obs.span"),
        "obs.counters": calls("obs.counter:counter"),
        "obs.counter_s": self_s("obs.counter"),
        "core.parallel.shard_busy_max_s": busiest,
        "core.parallel.shard_skew": ratio(busiest, statistics.mean(busy)) if busy else 0.0,
        "core.parallel.overhead_s": campaign_s - busiest if busy else 0.0,
        "core.parallel.job_bytes": counts.get("core.parallel.job_bytes", 0),
        "core.parallel.result_bytes": counts.get("core.parallel.result_bytes", 0),
        "core.parallel.merge_s": self_s("core.parallel:merge"),
        "core.querylog.attribute_calls": calls("core.querylog:attribute"),
        "core.querylog.attribute_s": self_s("core.querylog"),
        "lint.tracecheck.check_s": self_s("lint.tracecheck"),
        "obs.reconcile.s": self_s("obs.reconcile"),
        "obs.spans.dump_s": self_s("obs.spans.dump"),
        "obs.spans.dumped": counts.get("obs.spans.dumped", 0),
        "core.trace.write_s": self_s("core.trace"),
        "core.trace.bytes": counts.get("core.trace.bytes", 0),
        "core.analysis.report_s": self_s("core.analysis"),
        "trace.spans": len(ledger["spans"]),
    }


def silent_layers(metrics: Dict[str, float], workload: str) -> List[str]:
    """Metrics that must be non-zero on ``workload`` but read zero."""
    return [
        name
        for name, (_, _, nonzero) in PER_LAYER.items()
        if workload in nonzero and name in metrics and not metrics[name] > 0
    ]
