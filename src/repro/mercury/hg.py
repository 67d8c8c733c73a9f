"""Mercury core concepts: RPC identifiers and wire messages.

Mercury identifies an RPC by a 32-bit hash of its registered name; the
paper's Listing 1 shows such an id (2924675071 for "echo"-adjacent
registration).  We use CRC-32 of the name, which is stable across
processes -- a property the dispatch path relies on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Optional

__all__ = [
    "rpc_id_of",
    "NULL_PROVIDER",
    "NULL_RPC",
    "RPCRequest",
    "RPCResponse",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_NO_RPC",
    "OUTCOME_TIMEOUT",
    "OUTCOME_UNKNOWN_DEST",
    "ANSWERED",
]

#: Provider id used when an RPC is not directed at a specific provider,
#: and as the "no parent" marker in monitoring keys (paper Listing 1).
NULL_PROVIDER = 65535

#: RPC id used as the "no parent RPC" marker.
NULL_RPC = 65535

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_NO_RPC = "no_rpc"

#: Terminal outcomes of a forward that never got a response: the timeout
#: fired, or the destination address is not on the network.  A forward
#: that got one ends with the response status (ok / error / no_rpc).
OUTCOME_TIMEOUT = "timeout"
OUTCOME_UNKNOWN_DEST = "unknown_dest"
#: The outcomes whose response reached the caller.
ANSWERED = (STATUS_OK, STATUS_ERROR, STATUS_NO_RPC)


@lru_cache(maxsize=4096)
def rpc_id_of(name: str) -> int:
    """Stable 32-bit id for an RPC name (CRC-32, like Mercury's hash).

    Memoized: the id is recomputed on every ``forward()`` and the set of
    RPC names in a deployment is small and fixed.
    """
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


@dataclass(slots=True)
class RPCRequest:
    """A request message on the wire, and its lifecycle record.

    The fields after the trace context are the record of one observed
    RPC (paper section 4: callbacks "at various points in the lifetime
    of an RPC").  Only the Margo runtime writes them, and only for a
    request it observes; monitors read them.  The request crosses the
    simulated wire by reference, so the client's and the server's
    runtimes fill in one record and both sides' monitors see all of it.
    Every time is simulated seconds; ``None`` means "not reached" or
    "that endpoint was not observed".
    """

    seq: int
    rpc_id: int
    rpc_name: str
    provider_id: int
    args: Any
    payload_size: int
    src_address: str
    dst_address: str = ""
    parent_rpc_id: int = NULL_RPC
    parent_provider_id: int = NULL_PROVIDER
    #: Trace context (repro.observability): the causal tree this call
    #: belongs to, this call's span id, and the span that issued it.
    #: Stamped by the Margo forward path; generalizes the Listing-1
    #: parent_rpc_id chain to per-call identity.
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""
    #: Profiler sampling weight: 0 = sampled out, N >= 1 = sampled and
    #: standing for N requests, None = no profiler has decided yet.
    sample_weight: Optional[int] = None
    #: Client: forward() started, request hit the wire.
    forward_at: Optional[float] = None
    sent_at: Optional[float] = None
    #: Server: progress loop took it off the wire, handler ULT pushed,
    #: handler started, handler finished, reply hit the wire.
    received_at: Optional[float] = None
    enqueued_at: Optional[float] = None
    ult_start_at: Optional[float] = None
    ult_end_at: Optional[float] = None
    responded_at: Optional[float] = None
    #: Client: how forward() ended -- a response status from
    #: :data:`ANSWERED`, or :data:`OUTCOME_TIMEOUT` /
    #: :data:`OUTCOME_UNKNOWN_DEST`.  Empty until it ends.
    outcome: str = ""
    #: mochi-xray causal wait edges ``(kind, name, duration)`` of a
    #: sampled request; None when xray does not record this request.
    waits: Optional[list] = None

    #: Fixed header size added to the payload on the wire.
    HEADER_SIZE = 64

    @property
    def wire_size(self) -> int:
        return self.HEADER_SIZE + self.payload_size


@dataclass
class RPCResponse:
    """A response message on the wire."""

    seq: int
    status: str
    value: Any
    payload_size: int
    src_address: str
    error_message: Optional[str] = None

    HEADER_SIZE = 48

    @property
    def wire_size(self) -> int:
        return self.HEADER_SIZE + self.payload_size
