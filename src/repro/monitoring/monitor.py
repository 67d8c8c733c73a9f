"""The customizable monitoring interface (paper section 4).

Margo "lets users inject callbacks to be invoked at various points in
the lifetime of an RPC, for example when the RPC is sent, when it is
received, and when it starts and stops executing."  :class:`Monitor`
defines those points as no-op methods; :class:`CallbackMonitor` turns a
dict of user callbacks into a monitor; the default
:class:`~repro.monitoring.stats_monitor.StatisticsMonitor` captures the
Listing-1 statistics.

Every hook receives ``time`` (simulated seconds), ``margo`` (the
instance firing the hook), and hook-specific keyword arguments.  The
eight request hooks receive ``request``, which is also the RPC's
lifecycle record: before each hook the runtime has stamped the matching
time (``forward_at``, ``sent_at``, ``received_at``, ``enqueued_at``,
``ult_start_at``, ``ult_end_at``, ``responded_at``), so a monitor
derives every phase from the record and keeps no per-request state.
``on_forward_complete`` fires exactly once per observed ``forward()``,
on every exit path, with ``request.outcome`` one of ``ok``, ``error``,
``no_rpc`` (a response arrived), ``timeout`` or ``unknown_dest``.

Each attached monitor costs ``monitoring_cost_per_event`` of simulated
CPU at five points of an observed RPC (forward start, forward sent and
forward complete on the client; ULT start and ULT complete on the
server) whichever hooks it defines; the terminal hook of a forward that
ends without a response is not charged (see benchmark E2).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

__all__ = ["Monitor", "CallbackMonitor", "HOOK_NAMES"]

HOOK_NAMES = (
    "on_forward_start",
    "on_forward_sent",
    "on_forward_complete",
    "on_request_received",
    "on_ult_enqueued",
    "on_ult_start",
    "on_ult_complete",
    "on_respond",
    "on_bulk_transfer",
    "on_finalize",
)


class Monitor:
    """Base monitor: every lifecycle hook is a no-op.

    Subclass and override the hooks of interest.  Hooks must not raise;
    a monitoring failure must never take the data path down.
    """

    def on_forward_start(self, time: float, margo: Any, request: Any) -> None:
        """Client side: an RPC is about to be serialized and sent."""

    def on_forward_sent(self, time: float, margo: Any, request: Any) -> None:
        """Client side: the request hit the wire."""

    def on_forward_complete(self, time: float, margo: Any, request: Any) -> None:
        """Client side: ``forward()`` ended; ``request.outcome`` says how."""

    def on_request_received(self, time: float, margo: Any, request: Any) -> None:
        """Server side: the progress loop pulled the request off the wire."""

    def on_ult_enqueued(self, time: float, margo: Any, request: Any, pool: Any) -> None:
        """Server side: a handler ULT was pushed to ``pool``."""

    def on_ult_start(self, time: float, margo: Any, request: Any, pool: Any) -> None:
        """Server side: the handler ULT started running out of ``pool``."""

    def on_ult_complete(self, time: float, margo: Any, request: Any) -> None:
        """Server side: the handler body finished executing."""

    def on_respond(self, time: float, margo: Any, request: Any, response: Any) -> None:
        """Server side: the response hit the wire."""

    def on_bulk_transfer(
        self, time: float, margo: Any, remote: str, size: int, op: str, duration: float
    ) -> None:
        """Either side: a one-sided bulk (RDMA) transfer completed."""

    def on_finalize(self, time: float, margo: Any) -> None:
        """The Margo instance is shutting down (dump/flush point)."""


class CallbackMonitor(Monitor):
    """Adapts a ``{hook_name: callable}`` mapping into a monitor.

    This is the paper's "inject callbacks" API: users provide plain
    functions for just the lifecycle points they care about.
    """

    def __init__(self, callbacks: Mapping[str, Callable[..., None]]) -> None:
        unknown = set(callbacks) - set(HOOK_NAMES)
        if unknown:
            raise ValueError(
                f"unknown monitoring hooks {sorted(unknown)}; valid hooks: {HOOK_NAMES}"
            )
        for name, fn in callbacks.items():
            setattr(self, name, self._wrap(fn))

    @staticmethod
    def _wrap(fn: Callable[..., None]) -> Callable[..., None]:
        def hook(**kwargs: Any) -> None:
            fn(**kwargs)

        return hook
