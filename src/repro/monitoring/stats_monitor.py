"""The default monitoring implementation: Listing-1 statistics.

Captures, per RPC *context key*
``"<parent_rpc_id>:<parent_provider_id>:<rpc_id>:<provider_id>"``
(exactly the key format of paper Listing 1), streaming statistics for
every phase of the RPC lifecycle, split by origin/target role and by
peer address ("received from na+sm://..." / "sent to ...").

The collected document is available at run time via :meth:`to_json`
(the paper: "makes them available at run time via an API") and is
dumped as JSON on finalize when a ``dump_callback`` is provided (the
paper: "outputs them as JSON when shutting down the service").
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

from ..mercury import ANSWERED
from .monitor import Monitor
from .statistics import RunningStats

__all__ = ["StatisticsMonitor", "rpc_key"]


def rpc_key(request: Any) -> str:
    """Listing-1 context key for a request."""
    return (
        f"{request.parent_rpc_id}:{request.parent_provider_id}:"
        f"{request.rpc_id}:{request.provider_id}"
    )


class _RpcRecord:
    """Statistics for one RPC context key."""

    __slots__ = ("rpc_id", "provider_id", "parent_rpc_id", "parent_provider_id", "name",
                 "origin", "target")

    def __init__(self, request: Any) -> None:
        self.rpc_id = request.rpc_id
        self.provider_id = request.provider_id
        self.parent_rpc_id = request.parent_rpc_id
        self.parent_provider_id = request.parent_provider_id
        self.name = request.rpc_name
        # origin: per "sent to <addr>" -> phase -> RunningStats
        self.origin: dict[str, dict[str, RunningStats]] = {}
        # target: per "received from <addr>" -> phase -> RunningStats
        self.target: dict[str, dict[str, RunningStats]] = {}

    def _phase(self, side: dict, peer_label: str, phase: str) -> RunningStats:
        peer = side.setdefault(peer_label, {})
        stats = peer.get(phase)
        if stats is None:
            stats = RunningStats()
            peer[phase] = stats
        return stats

    def to_json(self) -> dict[str, Any]:
        def render(side: dict[str, dict[str, RunningStats]]) -> dict:
            out: dict[str, Any] = {}
            for peer, phases in side.items():
                peer_doc: dict[str, Any] = {}
                for phase, stats in phases.items():
                    if phase.startswith("ult_"):
                        # Listing 1 nests ULT phases under "ult".
                        peer_doc.setdefault("ult", {})[phase[4:]] = stats.to_json()
                    else:
                        peer_doc[phase] = stats.to_json()
                out[peer] = peer_doc
            return out

        return {
            "rpc_id": self.rpc_id,
            "provider_id": self.provider_id,
            "parent_rpc_id": self.parent_rpc_id,
            "parent_provider_id": self.parent_provider_id,
            "name": self.name,
            "origin": render(self.origin),
            "target": render(self.target),
        }


class StatisticsMonitor(Monitor):
    """Aggregates per-RPC statistics in the paper's Listing-1 schema.

    Parameters
    ----------
    dump_callback:
        Optional ``callable(json_text)`` invoked on finalize with the
        full JSON document (models Margo writing the stats file at
        shutdown).
    """

    def __init__(self, dump_callback: Optional[Callable[[str], None]] = None) -> None:
        self._rpcs: dict[str, _RpcRecord] = {}
        self._bulk = RunningStats()
        self._bulk_bytes = RunningStats()
        self.dump_callback = dump_callback
        self.finalized_at: Optional[float] = None

    # ------------------------------------------------------------------
    def _stats(self, request: Any, side: str, peer: str, phase: str) -> RunningStats:
        """The accumulator of one phase, under the request's context key
        and the peer label on the ``origin`` or ``target`` side."""
        key = rpc_key(request)
        record = self._rpcs.get(key)
        if record is None:
            record = self._rpcs[key] = _RpcRecord(request)
        return record._phase(getattr(record, side), peer, phase)

    # ---- origin (client) side: phases read off the lifecycle record --
    def on_forward_sent(self, time: float, margo: Any, request: Any) -> None:
        # wire-bound serialization+send phase
        self._stats(request, "origin", f"sent to {request.dst_address}", "serialize") \
            .update(time - request.forward_at)

    def on_forward_complete(self, time: float, margo: Any, request: Any) -> None:
        # A call that got its response counts under "forward"; one that
        # did not counts under its outcome ("timeout" / "unknown_dest").
        phase = "forward" if request.outcome in ANSWERED else request.outcome
        self._stats(request, "origin", f"sent to {request.dst_address}", phase) \
            .update(time - request.forward_at)

    # ---- target (server) side ----------------------------------------
    def on_request_received(self, time: float, margo: Any, request: Any) -> None:
        self._stats(
            request, "target", f"received from {request.src_address}", "received"
        ).update(0.0)

    def on_ult_start(self, time: float, margo: Any, request: Any, pool: Any) -> None:
        self._stats(
            request, "target", f"received from {request.src_address}", "ult_queued"
        ).update(request.ult_start_at - request.enqueued_at)

    def on_ult_complete(self, time: float, margo: Any, request: Any) -> None:
        self._stats(
            request, "target", f"received from {request.src_address}", "ult_duration"
        ).update(request.ult_end_at - request.ult_start_at)

    # ---- bulk ----------------------------------------------------------
    def on_bulk_transfer(
        self, time: float, margo: Any, remote: str, size: int, op: str, duration: float
    ) -> None:
        self._bulk.update(duration)
        self._bulk_bytes.update(float(size))

    # ---- finalize -------------------------------------------------------
    def on_finalize(self, time: float, margo: Any) -> None:
        self.finalized_at = time
        if self.dump_callback is not None:
            self.dump_callback(self.dumps())

    # ------------------------------------------------------------------
    # query API (available at run time, paper section 4)
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"rpcs": {k: r.to_json() for k, r in self._rpcs.items()}}
        if self._bulk.num:
            doc["bulk"] = {
                "duration": self._bulk.to_json(),
                "size": self._bulk_bytes.to_json(),
            }
        return doc

    def dumps(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def find_by_name(self, name: str) -> list[dict[str, Any]]:
        """All records whose RPC name matches (there may be several
        context keys: one per parent context / provider id)."""
        return [r.to_json() for r in self._rpcs.values() if r.name == name]

    def rpc_names(self) -> set[str]:
        return {r.name for r in self._rpcs.values()}

    @property
    def num_contexts(self) -> int:
        return len(self._rpcs)

