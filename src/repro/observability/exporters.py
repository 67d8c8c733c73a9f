"""Trace and metrics exporters.

Two formats:

* **Chrome trace-event JSON** (:func:`chrome_trace` /
  :func:`dumps_chrome_trace`): loadable in ``chrome://tracing`` or
  Perfetto.  Each span becomes a complete ("ph": "X") event; the
  process name maps to ``pid`` and the trace id to ``tid``, so one row
  per causal tree per process.
* **Metrics snapshot** (:func:`metrics_snapshot` /
  :func:`dumps_metrics`): the per-process registries as one JSON
  document, dumped on finalize alongside the Listing-1 statistics.

Both are deterministic: timestamps are simulated seconds (never wall
clocks), events are sorted by explicit keys, and JSON is rendered with
sorted keys -- two runs with the same seed produce byte-identical
output (tested).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .span import Span
from .tracer import Tracer

__all__ = [
    "collect_spans",
    "chrome_trace",
    "chrome_trace_profile",
    "dumps_chrome_trace",
    "dumps_chrome_trace_profile",
    "metrics_snapshot",
    "dumps_metrics",
    "build_trace_tree",
]


def collect_spans(*tracers: Tracer) -> list[Span]:
    """All completed spans across ``tracers``, wire spans included.

    A wire span lives in the tracer of the request's *server* (see
    :class:`~repro.observability.tracer.Tracer`), so exporting only the
    client's tracer yields none.
    """
    spans: list[Span] = []
    for tracer in tracers:
        spans.extend(tracer.spans)
        spans.extend(tracer.wire_spans)
    spans.sort(key=lambda s: (s.trace_id, s.start, s.span_id))
    return spans


def chrome_trace(
    *tracers: Tracer, highlight_critical: bool = False
) -> dict[str, Any]:
    """Render all spans as a Chrome trace-event document.

    With ``highlight_critical`` the per-trace critical path (longest
    blocking chain, see :mod:`repro.observability.xray.critical_path`)
    is marked: those events carry ``args.critical_path: true`` and the
    reserved ``cname`` color so the chain stands out in the viewer.
    """
    spans = collect_spans(*tracers)
    critical: set[tuple[str, str]] = set()
    if highlight_critical:
        from .xray.critical_path import critical_span_ids

        for trace_id in sorted({s.trace_id for s in spans}):
            critical.update(
                (trace_id, span_id)
                for span_id in critical_span_ids(spans, trace_id)
            )
    events: list[dict[str, Any]] = []
    for span in spans:
        args = {
            "span_id": span.span_id,
            "parent_span_id": span.parent_span_id,
            **span.attributes,
        }
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": round(span.start * 1e6, 3),  # microseconds
            "dur": round(span.duration * 1e6, 3),
            "pid": span.process,
            "tid": span.trace_id,
            "args": args,
        }
        if (span.trace_id, span.span_id) in critical:
            args["critical_path"] = True
            event["cname"] = "terrible"  # Chrome's reserved red
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dumps_chrome_trace(
    *tracers: Tracer, indent: int = 2, highlight_critical: bool = False
) -> str:
    return json.dumps(
        chrome_trace(*tracers, highlight_critical=highlight_critical),
        indent=indent,
        sort_keys=True,
    )


def chrome_trace_profile(*profilers: Any) -> dict[str, Any]:
    """Render continuous-profiler output as a Chrome trace document.

    Per-RPC waterfalls become nested complete events (one ``tid`` per
    waterfall, each phase an "X" slice), so ``chrome://tracing`` shows
    them as flamegraph-style stacks; closed-window xstream utilization
    becomes counter ("C") events on the same timeline.
    """
    events: list[dict[str, Any]] = []
    for profiler in profilers:
        process = profiler.margo.process.name
        for waterfall in profiler.waterfalls:
            tid = f"{waterfall['trace_id']}:{waterfall['span_id']}"
            events.append(
                {
                    "name": f"{waterfall['rpc']}/{waterfall['provider']}",
                    "cat": "rpc",
                    "ph": "X",
                    "ts": round(waterfall["start"] * 1e6, 3),
                    "dur": round((waterfall["end"] - waterfall["start"]) * 1e6, 3),
                    "pid": process,
                    "tid": tid,
                    "args": {
                        "trace_id": waterfall["trace_id"],
                        "provider": waterfall["provider"],
                        "weight": waterfall.get("weight", 1),
                    },
                }
            )
            for slice_ in waterfall["phases"]:
                events.append(
                    {
                        "name": slice_["phase"],
                        "cat": "rpc_phase",
                        "ph": "X",
                        "ts": round(slice_["start"] * 1e6, 3),
                        "dur": round((slice_["end"] - slice_["start"]) * 1e6, 3),
                        "pid": process,
                        "tid": tid,
                        "args": {
                            "phase": slice_["phase"],
                            "provider": waterfall["provider"],
                            "weight": waterfall.get("weight", 1),
                        },
                    }
                )
        for window in profiler.store.closed_windows():
            for xstream_name, sample in sorted(window["xstreams"].items()):
                events.append(
                    {
                        "name": f"utilization:{xstream_name}",
                        "cat": "profile",
                        "ph": "C",
                        "ts": round(window["end"] * 1e6, 3),
                        "pid": process,
                        "tid": f"utilization:{xstream_name}",
                        "args": {"utilization": sample["utilization"]},
                    }
                )
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], e["name"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dumps_chrome_trace_profile(*profilers: Any, indent: int = 2) -> str:
    return json.dumps(chrome_trace_profile(*profilers), indent=indent, sort_keys=True)


def metrics_snapshot(registries: Mapping[str, Any]) -> dict[str, Any]:
    """``{process_name: registry}`` -> one deterministic document."""
    return {name: registries[name].snapshot() for name in sorted(registries)}


def dumps_metrics(registries: Mapping[str, Any], indent: int = 2) -> str:
    return json.dumps(metrics_snapshot(registries), indent=indent, sort_keys=True)


def build_trace_tree(spans: list[Span], trace_id: str) -> list[dict[str, Any]]:
    """The parent/child tree of one trace.

    Returns the list of root nodes (normally one), each
    ``{"span": <span doc>, "children": [...]}``, children sorted by
    start time.  Spans whose parent was not captured (e.g. the peer ran
    untraced) surface as extra roots rather than disappearing.
    """
    nodes = {
        s.span_id: {"span": s.to_json(), "children": []}
        for s in spans
        if s.trace_id == trace_id
    }
    roots = []
    for span_id, node in sorted(
        nodes.items(), key=lambda item: (item[1]["span"]["start"], item[0])
    ):
        parent = nodes.get(node["span"]["parent_span_id"])
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots
