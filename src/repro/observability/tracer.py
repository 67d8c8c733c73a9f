"""The distributed tracer: monitor hooks -> causal span trees.

:class:`Tracer` plugs into the same monitor mechanism as the Listing-1
:class:`~repro.monitoring.stats_monitor.StatisticsMonitor` (it exposes
the standard hook methods and is attached with ``margo.add_monitor`` or
via ``ObservabilitySpec.tracing``), but instead of aggregating running
statistics it materializes **per-request spans**.  Each span is emitted
by the hook that closes it, with its start read off the request's
lifecycle record, so the tracer keeps no per-request state:

======== ======================= ===================================
span     id                      bounds (record field -> hook)
======== ======================= ===================================
forward  ``<span_id>``           forward_at -> on_forward_complete
wire     ``<span_id>/w``         sent_at -> on_request_received
queue    ``<span_id>/q``         enqueued_at -> on_ult_start
handler  ``<span_id>/h``         ult_start_at -> on_ult_complete
respond  ``<span_id>/r``         on_respond (instant)
======== ======================= ===================================

The forward span's ``status`` attribute is the forward's outcome, so a
timed-out call or one to an unknown destination closes as a ``forward``
span with status ``timeout`` / ``unknown_dest``.

``span_id`` is the request's call id, stamped by
:meth:`MargoInstance.forward <repro.margo.runtime.MargoInstance.forward>`;
a nested RPC's ``parent_span_id`` is its parent handler's span id, so a
HEPnOS store that fans out into Yokan puts -- or a Raft AppendEntries
fan-out -- yields one tree per root request.

A wire span needs the client's send time, which the request carries:
the *server's* tracer records it (in :attr:`Tracer.wire_spans`) when
the client's runtime observed the send, and
:func:`~repro.observability.exporters.collect_spans` merges it with
the other spans at export time.
"""

from __future__ import annotations

import zlib
from typing import Any, Optional

from .span import (
    HANDLER_SUFFIX,
    QUEUE_SUFFIX,
    RESPOND_SUFFIX,
    WIRE_SUFFIX,
    Span,
    SpanContext,
    child_span_id,
)

__all__ = ["OpenSpan", "Tracer", "current_span_context"]


def current_span_context() -> Optional[SpanContext]:
    """The span context of the RPC handler the calling ULT services.

    Manual instrumentation (Pufferscale rebalances, Bedrock migrations)
    uses this to attach its spans to the enclosing trace; ``None`` when
    the current ULT is not an RPC handler.
    """
    # Imported lazily: repro.margo imports this module at start-up (the
    # runtime owns a Tracer), so a top-level import would be circular.
    from ..margo.ult import current_ult

    ult = current_ult()
    request = getattr(ult, "rpc_context", None) if ult is not None else None
    if request is None or not getattr(request, "trace_id", ""):
        return None
    return SpanContext(
        trace_id=request.trace_id,
        span_id=child_span_id(request.span_id, HANDLER_SUFFIX),
    )


class Tracer:
    """Collects spans from monitor hooks on one or more Margo instances.

    Like every monitor, hook methods must not raise and must not issue
    RPCs; the tracer only appends to in-memory structures.  ``max_spans``
    bounds memory for long runs (oldest spans are retained; once the cap
    is hit new spans are dropped and counted in :attr:`dropped_spans`).
    """

    def __init__(
        self, max_spans: Optional[int] = None, sample_rate: float = 1.0
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.max_spans = max_spans
        #: Probabilistic trace sampling (ISSUE 6, adaptive observer
        #: sampling): the keep/drop decision hashes the *trace id*, so
        #: every span of one trace -- across all processes and tracer
        #: instances -- samples together and trees never come out
        #: partial.  CRC32 is seed-free and platform-stable, so the
        #: decision is deterministic across identical runs.
        self.sample_rate = sample_rate
        self._sample_cutoff = int(sample_rate * (1 << 32))
        self.spans: list[Span] = []
        self.dropped_spans = 0
        #: hook observations skipped by the sampling decision (distinct
        #: from ``dropped_spans``, the max_spans overflow count).
        self.sampled_out = 0
        #: server-recorded wire spans (see the module docstring).
        self.wire_spans: list[Span] = []
        #: RPC spans begun (client forward, server handler) and not yet
        #: closed by their terminal hook.
        self._rpc_open = 0
        self._manual_seq = 0
        #: spans begun via :meth:`start_span` and not yet ended.
        self._manual_open = 0

    # ------------------------------------------------------------------
    def _add(self, span: Span, into: Optional[list[Span]] = None) -> None:
        into = self.spans if into is None else into
        if self.max_spans is not None and len(into) >= self.max_spans:
            self.dropped_spans += 1
            return
        into.append(span)

    def _sampled(self, request: Any) -> bool:
        trace_id = request.trace_id
        if not trace_id:
            return False
        if self.sample_rate >= 1.0 or (
            self.sample_rate > 0.0
            and zlib.crc32(trace_id.encode("utf-8")) < self._sample_cutoff
        ):
            return True
        self.sampled_out += 1
        return False

    def _close_rpc(self) -> None:
        # A tracer attached while a forward or handler is in flight sees
        # its close without its open; clamping keeps the count from going
        # negative, where it would hide a later leak.  Once every open
        # this tracer saw has closed, the count reads 0 either way.
        if self._rpc_open:
            self._rpc_open -= 1

    def _rpc_span(
        self,
        margo: Any,
        request: Any,
        category: str,
        span_id: str,
        parent_span_id: str,
        start: float,
        end: float,
        attributes: dict[str, Any],
        into: Optional[list[Span]] = None,
    ) -> None:
        self._add(
            Span(
                name=request.rpc_name,
                category=category,
                trace_id=request.trace_id,
                span_id=span_id,
                parent_span_id=parent_span_id,
                process=margo.process.name,
                start=start,
                end=end,
                attributes=attributes,
            ),
            into,
        )

    # ------------------------------------------------------------------
    # client-side hooks
    # ------------------------------------------------------------------
    def on_forward_start(self, time: float, margo: Any, request: Any) -> None:
        if self._sampled(request):
            self._rpc_open += 1

    def on_forward_complete(self, time: float, margo: Any, request: Any) -> None:
        if not self._sampled(request):
            return
        self._close_rpc()
        self._rpc_span(
            margo, request, "forward", request.span_id, request.parent_span_id,
            request.forward_at, time,
            {
                "dst": request.dst_address,
                "provider_id": request.provider_id,
                "status": request.outcome,
                "payload_size": request.payload_size,
            },
        )

    # ------------------------------------------------------------------
    # server-side hooks
    # ------------------------------------------------------------------
    def on_request_received(self, time: float, margo: Any, request: Any) -> None:
        if request.sent_at is None or not self._sampled(request):
            return  # the client's runtime did not observe the send
        self._rpc_span(
            margo, request, "wire", child_span_id(request.span_id, WIRE_SUFFIX),
            request.span_id, request.sent_at, time,
            {
                "src": request.src_address.rsplit("/", 1)[-1],
                "dst": margo.process.name,
            },
            into=self.wire_spans,
        )

    def on_ult_start(self, time: float, margo: Any, request: Any, pool: Any) -> None:
        if not self._sampled(request):
            return
        self._rpc_open += 1
        self._rpc_span(
            margo, request, "queue", child_span_id(request.span_id, QUEUE_SUFFIX),
            request.span_id, request.enqueued_at, time, {"pool": pool.name},
        )

    def on_ult_complete(self, time: float, margo: Any, request: Any) -> None:
        if not self._sampled(request):
            return
        self._close_rpc()
        self._rpc_span(
            margo, request, "handler", child_span_id(request.span_id, HANDLER_SUFFIX),
            request.span_id, request.ult_start_at, time, {"src": request.src_address},
        )

    def on_respond(self, time: float, margo: Any, request: Any, response: Any) -> None:
        if not self._sampled(request):
            return
        self._rpc_span(
            margo, request, "respond", child_span_id(request.span_id, RESPOND_SUFFIX),
            child_span_id(request.span_id, HANDLER_SUFFIX), time, time,
            {"status": response.status},
        )

    # ------------------------------------------------------------------
    # either-side hooks
    # ------------------------------------------------------------------
    def on_bulk_transfer(
        self, time: float, margo: Any, remote: str, size: int, op: str, duration: float
    ) -> None:
        context = current_span_context()
        self._manual_seq += 1
        span_id = f"bulk:{margo.process.name}:{self._manual_seq}"
        self._add(
            Span(
                name=f"bulk_{op}",
                category="bulk",
                trace_id=context.trace_id if context else span_id,
                span_id=span_id,
                parent_span_id=context.span_id if context else "",
                process=margo.process.name,
                start=time - duration,
                end=time,
                attributes={"remote": remote, "size": size, "op": op},
            )
        )

    # ------------------------------------------------------------------
    # manual instrumentation (Pufferscale rebalances, migrations, ...)
    # ------------------------------------------------------------------
    def record_span(
        self,
        name: str,
        category: str,
        process: str,
        start: float,
        end: float,
        attributes: Optional[dict[str, Any]] = None,
        context: Optional[SpanContext] = None,
    ) -> Span:
        """Record an explicitly-timed span.

        When ``context`` is None the current ULT's RPC context is used if
        there is one; otherwise the span roots a trace of its own.
        """
        if context is None:
            context = current_span_context()
        self._manual_seq += 1
        span_id = f"op:{process}:{self._manual_seq}"
        span = Span(
            name=name,
            category=category,
            trace_id=context.trace_id if context else span_id,
            span_id=span_id,
            parent_span_id=context.span_id if context else "",
            process=process,
            start=start,
            end=end,
            attributes=dict(attributes or {}),
        )
        self._add(span)
        return span

    def start_span(
        self,
        name: str,
        category: str,
        process: str,
        start: float,
        attributes: Optional[dict[str, Any]] = None,
        context: Optional[SpanContext] = None,
    ) -> "OpenSpan":
        """Begin a manually-timed span; close it with ``.end(t)``.

        The begin/end form exists for operations whose duration is not
        known up front (a migration that can fail halfway, a rebalance
        spanning nested RPCs).  The protocol is *end exactly once, on
        every path*: a started span that escapes on an exception path
        without ``end()`` never reaches the span buffer and counts in
        :attr:`open_span_count` forever -- wrap the risky region in
        ``try/finally`` (mochi-flow reports violations as MCH074).
        """
        if context is None:
            context = current_span_context()
        self._manual_open += 1
        return OpenSpan(self, name, category, process, start, attributes, context)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def open_span_count(self) -> int:
        """Spans begun but not completed: client forwards not yet ended
        (every outcome, timeouts included, ends one), server handlers in
        flight, and manual :meth:`start_span` spans not yet ended (a
        steady growth here is the run-time signature of the MCH074
        leak)."""
        return self._rpc_open + self._manual_open

    def trace_ids(self) -> list[str]:
        return sorted({s.trace_id for s in self.spans})

    def spans_of(self, trace_id: str) -> list[Span]:
        return sorted(
            (s for s in self.spans if s.trace_id == trace_id),
            key=lambda s: (s.start, s.span_id),
        )

    def to_json(self) -> dict[str, Any]:
        spans = sorted(self.spans, key=lambda s: (s.trace_id, s.start, s.span_id))
        return {
            "spans": [s.to_json() for s in spans],
            "dropped_spans": self.dropped_spans,
        }


class OpenSpan:
    """A span begun with :meth:`Tracer.start_span`, awaiting ``end()``.

    ``end`` is idempotent (the first call records, later calls no-op),
    but it must be *reached* on every path, exception paths included --
    otherwise the span is silently lost and the tracer's
    ``open_span_count`` never drains.
    """

    __slots__ = (
        "tracer",
        "name",
        "category",
        "process",
        "start",
        "attributes",
        "context",
        "ended",
    )

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        category: str,
        process: str,
        start: float,
        attributes: Optional[dict[str, Any]],
        context: Optional[SpanContext],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.process = process
        self.start = start
        self.attributes = dict(attributes or {})
        self.context = context
        self.ended = False

    def end(
        self, end: float, attributes: Optional[dict[str, Any]] = None
    ) -> Optional[Span]:
        """Close the span at simulated time ``end`` and record it."""
        if self.ended:
            return None
        self.ended = True
        self.tracer._manual_open -= 1
        merged = dict(self.attributes)
        if attributes:
            merged.update(attributes)
        return self.tracer.record_span(
            self.name,
            self.category,
            self.process,
            self.start,
            end,
            attributes=merged,
            context=self.context,
        )
