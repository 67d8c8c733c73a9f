"""The Margo runtime: shared threading + networking for all components.

One :class:`MargoInstance` lives in each simulated process.  It owns the
Argobots-style pools and execution streams (built from a Listing-2 JSON
configuration), runs the network progress loop as a ULT in the
``progress_pool`` (paper Fig. 2), dispatches incoming RPCs to handler
ULTs in per-registration pools, and exposes:

* a client path (:meth:`forward`) that serializes, sends, and blocks the
  calling ULT until the response arrives (or a timeout fires);
* a bulk path (:meth:`bulk_transfer`) modelling one-sided RDMA;
* **online reconfiguration** (paper section 5): ``add_pool``,
  ``remove_pool``, ``add_xstream``, ``remove_xstream``, with the validity
  checks the paper describes ("not allowing adding multiple pools with
  the same name or removing a pool that is in use by an ES");
* monitoring hooks fired at every step of the RPC lifecycle (section 4).
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Iterable, Optional

from ..analysis import sanitize as _sanitize
from ..analysis.race import hooks as _race
from ..mercury import (
    BULK_OP_PULL,
    BULK_OP_PUSH,
    BULK_SETUP_COST,
    NULL_PROVIDER,
    NULL_RPC,
    OUTCOME_TIMEOUT,
    OUTCOME_UNKNOWN_DEST,
    RPCRequest,
    RPCResponse,
    STATUS_ERROR,
    STATUS_NO_RPC,
    STATUS_OK,
    deserialize_cost,
    estimate_size,
    rpc_id_of,
    serialize_cost,
)
from ..observability.metrics import MetricsRegistry
from ..observability.profile import ContinuousProfiler
from ..observability.span import HANDLER_SUFFIX, child_span_id
from ..observability.tracer import Tracer
from ..sim.kernel import TIMED_OUT, SimKernel
from ..sim.network import Network, Process
from .config import MargoConfig, PoolSpec, XStreamSpec
from .errors import (
    ConfigError,
    DuplicateNameError,
    FinalizedError,
    MargoError,
    NoSuchPoolError,
    NoSuchRpcError,
    NoSuchXStreamError,
    PoolInUseError,
    RpcError,
    RpcFailedError,
    RpcTimeoutError,
)
from .pool import Pool
from .ult import ULT, Compute, Park, UltEvent, UltSleep, current_ult
from .xstream import XStream

__all__ = ["MargoInstance", "RequestContext", "Registration"]

_UNSET = object()


@dataclass
class RequestContext:
    """What a handler sees: the request plus accessors for the runtime."""

    margo: "MargoInstance"
    request: RPCRequest
    #: per-request sampling decision made at dispatch (monitor emissions
    #: inside :meth:`respond` honor it, same as the implicit reply path).
    observed: bool = False
    #: set once a reply for this request has hit the wire.
    _responded: bool = False

    @property
    def args(self) -> Any:
        return self.request.args

    @property
    def source(self) -> str:
        return self.request.src_address

    @property
    def provider_id(self) -> int:
        return self.request.provider_id

    @property
    def rpc_name(self) -> str:
        return self.request.rpc_name

    def respond(self, value: Any = None) -> Generator:
        """Explicit early reply (``margo_respond`` equivalent).

        Drive with ``yield from context.respond(result)``.  The caller's
        ``forward`` unblocks as soon as this reply lands, while the
        handler ULT keeps running (post-reply cleanup, deferred work).
        The protocol is *respond exactly once*: the implicit reply the
        runtime sends on handler return is skipped once this has fired,
        a second ``respond()`` is dropped on the floor, and the
        sanitizer reports both misuses under MCH070.
        """
        margo = self.margo
        payload_size = estimate_size(value)
        yield Compute(serialize_cost(payload_size))
        already = self._responded
        self._responded = True
        if _sanitize.ENABLED:
            _sanitize.note_explicit_respond(margo, self.request, already)
        if already:
            return
        response = RPCResponse(
            seq=self.request.seq,
            status=STATUS_OK,
            value=value,
            payload_size=payload_size,
            src_address=margo.process.address,
            error_message=None,
        )
        margo.network.send(
            margo.process, self.request.src_address, response, response.wire_size
        )
        if _sanitize.ENABLED:
            _sanitize.note_handler_responded(margo, self.request.seq)
        if self.observed:
            self.request.responded_at = margo.kernel.now
            margo._emit("on_respond", request=self.request, response=response)


@dataclass
class Registration:
    """One registered (rpc name, provider id) handler."""

    name: str
    rpc_id: int
    provider_id: int
    handler: Callable[[RequestContext], Any]
    pool: Pool


class _MonitorList(list):
    """Monitor list that notifies its owning :class:`MargoInstance` on
    every mutation -- including direct ``append`` and in-place index
    assignment -- so the per-hook cache and the sampling-skip flag never
    go stale, and the emit fast path needs only an integer compare."""

    def __init__(self, owner: "MargoInstance", iterable: Iterable[Any] = ()) -> None:
        super().__init__(iterable)
        self._owner = owner

    def _touch(self) -> None:
        self._owner._monitors_changed()

    def append(self, item: Any) -> None:
        super().append(item)
        self._touch()

    def extend(self, items: Iterable[Any]) -> None:
        super().extend(items)
        self._touch()

    def insert(self, index: int, item: Any) -> None:
        super().insert(index, item)
        self._touch()

    def remove(self, item: Any) -> None:
        super().remove(item)
        self._touch()

    def pop(self, index: int = -1) -> Any:
        item = super().pop(index)
        self._touch()
        return item

    def clear(self) -> None:
        super().clear()
        self._touch()

    def __setitem__(self, index: Any, item: Any) -> None:
        super().__setitem__(index, item)
        self._touch()

    def __delitem__(self, index: Any) -> None:
        super().__delitem__(index)
        self._touch()

    def __iadd__(self, items: Iterable[Any]) -> "_MonitorList":
        super().extend(items)
        self._touch()
        return self


class MargoInstance:
    """The per-process runtime shared by all Mochi components."""

    def __init__(
        self,
        process: Process,
        network: Network,
        config: str | dict[str, Any] | MargoConfig | None = None,
        monitors: Iterable[Any] = (),
        default_rpc_timeout: Optional[float] = None,
    ) -> None:
        self.process = process
        self.network = network
        self.kernel: SimKernel = network.kernel
        if isinstance(config, MargoConfig):
            self.config = config
        else:
            self.config = MargoConfig.from_json(config)
        self.default_rpc_timeout = default_rpc_timeout
        self._finalized = False
        # Per-hook monitor-method cache (the RPC fast path): with no
        # monitors attached, emit sites skip kwargs construction and
        # monitor iteration entirely; with monitors, each hook resolves
        # its bound methods once instead of getattr-ing per event.  Any
        # mutation of ``self.monitors`` (the _MonitorList notifies back)
        # bumps the version, so the hot path invalidation check is a
        # single integer compare instead of an identity-tuple rebuild.
        self._hook_cache: dict[str, tuple[Callable[..., None], ...]] = {}
        self._hook_cache_key: Optional[int] = None
        self._monitors_version = 0
        # True when every attached monitor declares
        # ``respects_profile_sampling``: request-scoped hooks may then be
        # skipped wholesale for sampled-out requests (the RPC paths
        # fold this into their per-request ``observed`` decision).
        self._skip_unsampled = False
        self.monitors: list[Any] = _MonitorList(self, monitors)
        self._monitors_changed()

        self.pools: dict[str, Pool] = {}
        self.xstreams: dict[str, XStream] = {}
        self._pool_claims: dict[str, set[str]] = {}

        self._registry: dict[tuple[int, int], Registration] = {}
        # Race-hook label cache: dispatch/resolve run per RPC, and
        # formatting their report labels fresh each time is measurable.
        self._race_labels: dict[Any, str] = {}
        self._seq = 0
        #: seq -> the event a forward() awaiting its response parks on.
        self._pending: dict[int, UltEvent] = {}
        self._incoming: deque[Any] = deque()
        self._progress_event: Optional[UltEvent] = None

        # Live runtime metrics (sampled by the monitoring sampler,
        # section 4: "periodically tracks the number of in-flight RPCs
        # and the sizes of user-level thread pools").  Components on
        # this instance register their own metrics into this registry;
        # the public counter attributes below are views over it.
        obs = self.config.observability
        self.metrics = MetricsRegistry(enabled=obs.metrics)
        self._rpcs_sent = self.metrics.counter(
            "margo_rpcs_sent", "RPCs issued by the client path"
        )
        self._rpcs_handled = self.metrics.counter(
            "margo_rpcs_handled", "RPCs whose handler ULT completed"
        )
        self._monitor_errors = self.metrics.counter(
            "margo_monitor_errors",
            "monitor hooks that raised (swallowed: monitoring must "
            "never take the data path down)",
        )
        self._inflight_out = self.metrics.gauge(
            "margo_inflight_outgoing", "RPCs sent and awaiting a response"
        )
        self._inflight_in = self.metrics.gauge(
            "margo_inflight_incoming", "handler ULTs currently executing"
        )
        self.tracer: Optional[Tracer] = None
        if obs.tracing:
            self.tracer = Tracer(
                max_spans=obs.max_spans, sample_rate=obs.trace_sample_rate
            )
            self.add_monitor(self.tracer)

        self._build()
        # Continuous profiler (after _build: it hooks the live pools).
        # As a monitor it fires on the same hooks as the tracer and is
        # charged the same modeled monitoring cost per event; off, it
        # does not exist and the fast paths above stay monitor-free.
        self.profiler: Optional[ContinuousProfiler] = None
        self.slo_engine: Optional[Any] = None
        if obs.profiling:
            self.profiler = ContinuousProfiler(
                self,
                window=obs.profile_window,
                history=obs.profile_history,
                waterfalls=obs.profile_waterfalls,
                sample_every=obs.profile_sample_every,
            )
            self.add_monitor(self.profiler)
            self.profiler.start()
            if obs.slos:
                # Declarative objectives (ISSUE 6): evaluated off the
                # RPC path, once per closed profiler window.
                from ..observability.health.slo import SLOEngine

                self.slo_engine = SLOEngine(self, list(obs.slos))
                self.profiler.on_window_close.append(
                    self.slo_engine.observe_window
                )
        # mochi-xray (ISSUE 10): per-request causal-path recording.  A
        # monitor like the profiler it rides on (the spec guarantees
        # profiling is enabled); off, nothing here exists and the hot
        # paths keep their existing single-check gates.
        self.xray: Optional[Any] = None
        if obs.xray and self.profiler is not None:
            from ..observability.xray import XrayRecorder

            self.xray = XrayRecorder(self, max_paths=obs.xray_paths)
            self.add_monitor(self.xray)
        process.on_message = self._on_message
        process.on_killed.append(self.shutdown)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for spec in self.config.pools:
            self.pools[spec.name] = Pool(spec.name, spec.kind, spec.access)
        for spec in self.config.xstreams:
            xstream = XStream(
                self.kernel,
                spec.name,
                [self.pools[p] for p in spec.pools],
                scheduler=spec.scheduler,
            )
            self.xstreams[spec.name] = xstream
            xstream.start()
        self._progress_event = UltEvent(self.kernel, name=f"progress:{self.process.name}")
        self.spawn_ult(
            self._progress_loop(),
            pool=self.config.progress_pool,
            name=f"progress:{self.process.name}",
        )
        self.claim_pool(self.config.progress_pool, "__margo_progress__")

    @property
    def address(self) -> str:
        return self.process.address

    @property
    def finalized(self) -> bool:
        return self._finalized

    # Backwards-compatible counter views (now backed by the registry).
    @property
    def inflight_outgoing(self) -> int:
        return int(self._inflight_out.value)

    @property
    def inflight_incoming(self) -> int:
        return int(self._inflight_in.value)

    @property
    def rpcs_sent(self) -> int:
        return int(self._rpcs_sent.value)

    @property
    def rpcs_handled(self) -> int:
        return int(self._rpcs_handled.value)

    @property
    def monitor_errors(self) -> int:
        return int(self._monitor_errors.value)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def add_monitor(self, monitor: Any) -> None:
        """Attach a monitoring object (see :mod:`repro.monitoring`)."""
        self.monitors.append(monitor)

    def remove_monitor(self, monitor: Any) -> None:
        self.monitors.remove(monitor)

    def _monitors_changed(self) -> None:
        """Called by the _MonitorList on every mutation (append, remove,
        in-place replacement, ...): invalidates the hook cache and
        recomputes whether sampled-out requests may skip dispatch."""
        self._monitors_version += 1
        self._skip_unsampled = all(
            getattr(m, "respects_profile_sampling", False) for m in self.monitors
        )

    def _hook_fns(self, hook: str) -> tuple[Callable[..., None], ...]:
        """The bound hook methods of all attached monitors (cached).

        Every mutation of ``self.monitors`` -- via add/remove_monitor or
        direct list mutation, including same-length in-place replacement
        -- bumps ``_monitors_version`` through the _MonitorList, so a
        plain integer compare detects staleness.  An identity-tuple key
        here would rebuild a tuple per RPC event -- measurably hot with
        a profiler attached.
        """
        monitors = self.monitors
        key = self._monitors_version
        if key != self._hook_cache_key:
            self._hook_cache.clear()
            self._hook_cache_key = key
        fns = self._hook_cache.get(hook)
        if fns is None:
            fns = tuple(
                fn
                for fn in (getattr(m, hook, None) for m in monitors)
                if fn is not None
            )
            self._hook_cache[hook] = fns
        return fns

    def _emit(self, hook: str, **kwargs: Any) -> None:
        """Fire ``hook`` on every monitor that defines it.

        The ``Monitor`` contract says hooks must not raise; if one does
        anyway, the failure is contained here -- counted in
        ``margo_monitor_errors`` -- rather than crashing the RPC fast
        path: a monitoring failure must never take the data path down.
        """
        now = self.kernel.now
        for fn in self._hook_fns(hook):
            try:
                fn(time=now, margo=self, **kwargs)
            except Exception:
                self._monitor_errors.inc()

    # Request-scoped lifecycle hooks are emitted inline by forward /
    # _dispatch_request / _handler_body: each path decides ``observed``
    # once per request (False when every attached monitor respects the
    # profiler's sampling weight and the request was sampled out) and
    # then branches, so a sampled-out request pays one attribute read
    # total instead of a helper call per hook.  Inside those branches,
    # and only there, the runtime writes the request's lifecycle record
    # (the time fields of RPCRequest) just before the matching hook.
    #
    # Charge model: each attached monitor costs
    # ``monitoring_cost_per_event`` of simulated CPU at five points of an
    # observed RPC -- on_forward_start, on_forward_sent and
    # on_forward_complete on the client, on_ult_start and on_ult_complete
    # on the server -- whichever hook methods it defines.  Each charge
    # rides an adjacent Compute (serialize / deserialize), never a kernel
    # event of its own.  A forward that ends without a response
    # (timeout, unknown destination) fires on_forward_complete uncharged.

    # ------------------------------------------------------------------
    # ULT utilities
    # ------------------------------------------------------------------
    def spawn_ult(self, gen: Generator, pool: str | Pool | None = None, name: str = "") -> ULT:
        """Create a ULT in ``pool`` (default: the rpc pool) and make it ready."""
        if self._finalized:
            raise FinalizedError(f"margo instance on {self.process.name} is finalized")
        target = self._resolve_pool(pool) if pool is not None else self.pools[self.config.rpc_pool]
        ult = ULT(gen, name=name)
        ult.done_event = UltEvent(self.kernel, name=f"done:{ult.name}")
        target.push(ult)
        return ult

    def make_event(self, name: str = "") -> UltEvent:
        return UltEvent(self.kernel, name=name)

    def _resolve_pool(self, pool: str | Pool) -> Pool:
        if isinstance(pool, Pool):
            return pool
        if _race.ENABLED:
            label = self._race_labels.get(pool)
            if label is None:
                label = self._race_labels[pool] = (
                    f"margo:{self.process.name}.resolve_pool:{pool}"
                )
            _race.note_read(self.pools, pool, label)
        try:
            return self.pools[pool]
        except KeyError as err:
            raise NoSuchPoolError(f"no pool named {pool!r} on {self.process.name}") from err

    # ------------------------------------------------------------------
    # RPC registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        handler: Callable[[RequestContext], Any],
        provider_id: int = NULL_PROVIDER,
        pool: str | Pool | None = None,
    ) -> int:
        """Register ``handler`` for RPC ``name`` at ``provider_id``.

        Returns the RPC id.  Handlers receive a :class:`RequestContext`
        and may be plain functions or generators (which may issue nested
        RPCs via ``yield from``).
        """
        if self._finalized:
            raise FinalizedError("cannot register on a finalized instance")
        rpc_id = rpc_id_of(name)
        key = (rpc_id, provider_id)
        if key in self._registry:
            raise DuplicateNameError(
                f"RPC {name!r} already registered for provider {provider_id}"
            )
        target = self._resolve_pool(pool) if pool is not None else self.pools[self.config.rpc_pool]
        self._registry[key] = Registration(name, rpc_id, provider_id, handler, target)
        if _race.ENABLED:
            _race.track(self._registry, f"{self.process.name}.rpc_registry")
            _race.note_write(
                self._registry, key,
                f"margo:{self.process.name}.register:{name}/{provider_id}",
            )
        return rpc_id

    def deregister(self, name: str, provider_id: int = NULL_PROVIDER) -> None:
        key = (rpc_id_of(name), provider_id)
        if key not in self._registry:
            raise NoSuchRpcError(f"RPC {name!r} not registered for provider {provider_id}")
        del self._registry[key]
        if _race.ENABLED:
            _race.track(self._registry, f"{self.process.name}.rpc_registry")
            _race.note_write(
                self._registry, key,
                f"margo:{self.process.name}.deregister:{name}/{provider_id}",
            )

    def registered_rpcs(self) -> list[tuple[str, int]]:
        """(name, provider_id) pairs currently registered."""
        return sorted((r.name, r.provider_id) for r in self._registry.values())

    # ------------------------------------------------------------------
    # client path
    # ------------------------------------------------------------------
    def forward(
        self,
        address: str,
        rpc_name: str,
        args: Any = None,
        provider_id: int = NULL_PROVIDER,
        timeout: Any = _UNSET,
    ) -> Generator:
        """Send an RPC and block the calling ULT until the response.

        ``yield from margo.forward(...)`` returns the handler's return
        value, or raises :class:`RpcTimeoutError` /
        :class:`RpcFailedError` / :class:`NoSuchRpcError`.
        """
        if self._finalized:
            raise FinalizedError("forward on finalized margo instance")
        if timeout is _UNSET:
            timeout = self.default_rpc_timeout
        caller = current_ult()
        parent = caller.rpc_context if caller is not None else None
        payload_size = estimate_size(args)
        self._seq += 1
        seq = self._seq
        # Trace-context propagation (repro.observability): every call
        # gets a deterministic span id; a call issued from inside a
        # handler joins its parent's trace as a child of the handler
        # span, so nested RPCs form one causal tree end to end.
        span_id = f"{self.process.name}:{seq}"
        if parent is not None and getattr(parent, "trace_id", ""):
            trace_id = parent.trace_id
            parent_span_id = child_span_id(parent.span_id, HANDLER_SUFFIX)
        else:
            trace_id = span_id
            parent_span_id = ""
        request = RPCRequest(
            seq=seq,
            rpc_id=rpc_id_of(rpc_name),
            rpc_name=rpc_name,
            provider_id=provider_id,
            args=args,
            payload_size=payload_size,
            src_address=self.process.address,
            dst_address=address,
            parent_rpc_id=parent.rpc_id if parent is not None else NULL_RPC,
            parent_provider_id=parent.provider_id if parent is not None else NULL_PROVIDER,
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=parent_span_id,
        )
        # Observability fast path: one ``observed`` decision per request
        # -- False with no monitors attached, and False when every
        # attached monitor honors the profiler's sampling weight and this
        # request was sampled out.  The emit sites below are then plain
        # branches (this is what makes every-Nth observer sampling
        # actually cheap).
        observed = bool(self.monitors)
        prof = self.profiler
        if observed and prof is not None:
            # Weigh the request before the first hook so a sampled-out
            # request skips even on_forward_start.
            request.sample_weight = prof.next_sample_weight()
            if request.sample_weight == 0 and self._skip_unsampled:
                observed = False
        if observed:
            charge = len(self.monitors) * self.config.monitoring_cost_per_event
            request.forward_at = self.kernel.now
            if self.xray is not None and request.sample_weight:
                request.waits = []
            self._emit("on_forward_start", request=request)
            # Pre-charged: on_forward_start and on_forward_sent share the
            # serialize Compute instead of a second kernel event per send.
            yield Compute(serialize_cost(payload_size) + 2 * charge)
        else:
            yield Compute(serialize_cost(payload_size))

        event = UltEvent(self.kernel, name=f"rpc:{rpc_name}:{seq}")
        self._pending[seq] = event
        self._inflight_out.inc()
        self._rpcs_sent.inc()
        known = self.network.send(self.process, address, request, request.wire_size)
        if observed:
            request.sent_at = self.kernel.now
            self._emit("on_forward_sent", request=request)
        # Every exit below ends an observed forward with exactly one
        # on_forward_complete, its outcome in the record.
        if not known and timeout is None:
            # The destination does not exist and no timeout would ever
            # fire: fail fast instead of hanging the simulation.
            self._pending.pop(seq, None)
            self._inflight_out.dec()
            if observed:
                request.outcome = OUTCOME_UNKNOWN_DEST
                self._emit("on_forward_complete", request=request)
            raise RpcError(f"unknown destination address {address!r}")

        value = yield Park(event, timeout)
        self._inflight_out.dec()
        if value is TIMED_OUT:
            self._pending.pop(seq, None)
            if observed:
                request.outcome = OUTCOME_TIMEOUT if known else OUTCOME_UNKNOWN_DEST
                self._emit("on_forward_complete", request=request)
            raise RpcTimeoutError(
                f"RPC {rpc_name!r} to {address} (provider {provider_id}) "
                f"timed out after {timeout}s"
            )
        response: RPCResponse = value
        if observed:
            request.outcome = response.status
            self._emit("on_forward_complete", request=request)
            yield Compute(deserialize_cost(response.payload_size) + charge)
        else:
            yield Compute(deserialize_cost(response.payload_size))
        if response.status == STATUS_OK:
            return response.value
        if response.status == STATUS_NO_RPC:
            raise NoSuchRpcError(
                f"no handler for RPC {rpc_name!r} provider {provider_id} at {address}"
            )
        raise RpcFailedError(response.error_message or "remote handler failed")

    # ------------------------------------------------------------------
    # bulk (RDMA) path
    # ------------------------------------------------------------------
    def bulk_transfer(
        self, remote_address: str, size: int, op: str = BULK_OP_PULL
    ) -> Generator:
        """One-sided bulk transfer of ``size`` bytes to/from ``remote_address``.

        Models RDMA: the remote CPU (and its progress loop) is not
        involved; the calling ULT blocks for the wire time only.
        """
        if op not in (BULK_OP_PULL, BULK_OP_PUSH):
            raise ValueError(f"unknown bulk op {op!r}")
        if size < 0:
            raise ValueError(f"negative bulk size {size}")
        try:
            remote = self.network.lookup(remote_address)
        except Exception as err:
            raise RpcError(f"bulk transfer to unknown address {remote_address!r}") from err
        if not remote.alive:
            raise RpcError(f"bulk transfer peer {remote_address} is dead")
        if self.network.is_partitioned(self.process.node, remote.node):
            raise RpcTimeoutError(f"bulk transfer to {remote_address} unreachable (partition)")
        duration = self.network.transfer_time(self.process, remote, size, bulk=True)
        started = self.kernel.now
        if self.monitors:
            # Pre-charged like the RPC path: the hook fires after the
            # transfer, its cost rides the setup Compute.
            yield Compute(
                BULK_SETUP_COST
                + len(self.monitors) * self.config.monitoring_cost_per_event
            )
        else:
            yield Compute(BULK_SETUP_COST)
        yield UltSleep(duration)
        self.network.bytes_sent += size
        if self.monitors:
            self._emit(
                "on_bulk_transfer",
                remote=remote_address,
                size=size,
                op=op,
                duration=self.kernel.now - started,
            )
        return duration

    # ------------------------------------------------------------------
    # progress loop and dispatch (paper Fig. 2)
    # ------------------------------------------------------------------
    def _on_message(self, payload: Any) -> None:
        if self._finalized:
            return
        self._incoming.append(payload)
        assert self._progress_event is not None
        self._progress_event.set()

    def _progress_loop(self) -> Generator:
        event = self._progress_event
        assert event is not None
        while not self._finalized:
            if self._incoming:
                message = self._incoming.popleft()
                yield Compute(self.config.dispatch_cost)
                self._dispatch(message)
            else:
                event.clear()
                yield Park(event, None)

    def _dispatch(self, message: Any) -> None:
        if isinstance(message, RPCRequest):
            self._dispatch_request(message)
        elif isinstance(message, RPCResponse):
            self._dispatch_response(message)
        else:
            raise MargoError(f"unexpected message on the wire: {message!r}")

    def _dispatch_request(self, request: RPCRequest) -> None:
        # Same per-request ``observed`` decision as forward(); a request
        # from an unprofiled client arrives unweighed, so the server-side
        # profiler decides here, before the first hook.
        observed = bool(self.monitors)
        prof = self.profiler
        if observed and prof is not None:
            if request.sample_weight is None:
                request.sample_weight = prof.next_sample_weight()
            if request.sample_weight == 0 and self._skip_unsampled:
                observed = False
        if observed:
            request.received_at = self.kernel.now
            self._emit("on_request_received", request=request)
        key = (request.rpc_id, request.provider_id)
        if _race.ENABLED:
            label = self._race_labels.get(key)
            if label is None:
                label = self._race_labels[key] = (
                    f"margo:{self.process.name}.dispatch:"
                    f"{request.rpc_name}/{request.provider_id}"
                )
            _race.note_read(self._registry, key, label)
        registration = self._registry.get(key)
        if registration is None:
            response = RPCResponse(
                seq=request.seq,
                status=STATUS_NO_RPC,
                value=None,
                payload_size=0,
                src_address=self.process.address,
                error_message=f"no handler for {request.rpc_name!r}/{request.provider_id}",
            )
            self.network.send(self.process, request.src_address, response, response.wire_size)
            return
        ult = ULT(
            self._handler_body(registration, request, observed),
            name=f"rpc:{request.rpc_name}:{request.seq}",
        )
        ult.rpc_context = request
        if _sanitize.ENABLED:
            _sanitize.note_handler_dispatched(self, request, ult)
        registration.pool.push(ult)
        if observed:
            request.enqueued_at = self.kernel.now
            self._emit("on_ult_enqueued", request=request, pool=registration.pool)

    def _handler_body(
        self,
        registration: Registration,
        request: RPCRequest,
        observed: bool,
    ) -> Generator:
        # ``observed`` is the per-request sampling decision made at
        # dispatch; it covers the whole handler ULT.
        self._inflight_in.inc()
        if observed:
            charge = len(self.monitors) * self.config.monitoring_cost_per_event
            request.ult_start_at = self.kernel.now
            self._emit("on_ult_start", request=request, pool=registration.pool)
            yield Compute(deserialize_cost(request.payload_size) + charge)
        else:
            yield Compute(deserialize_cost(request.payload_size))
        context = RequestContext(margo=self, request=request, observed=observed)
        status = STATUS_OK
        value: Any = None
        error_message: Optional[str] = None
        try:
            result = registration.handler(context)
            if type(result) is GeneratorType or isinstance(result, Generator):
                result = yield from result
            value = result
        except Exception as err:  # noqa: BLE001 - handler error -> error response
            # Any handler failure -- including a *nested* RPC that failed
            # or timed out -- becomes an error response; the caller must
            # never be left waiting.
            status = STATUS_ERROR
            error_message = f"{type(err).__name__}: {err}"
        payload_size = estimate_size(value) if status == STATUS_OK else 0
        if context._responded:
            # context.respond() already serialized and sent the reply;
            # the implicit path must not charge or send a second one.
            payload_size = 0
        if observed:
            # Pre-charged on_ult_complete.  The handler's span in the
            # record covers the whole ULT: input deserialization, the
            # handler body, output serialization and the monitoring
            # charge (the phases Listing 1's "ult"/"duration" aggregates).
            yield Compute(serialize_cost(payload_size) + charge)
            request.ult_end_at = self.kernel.now
            self._emit("on_ult_complete", request=request)
        else:
            yield Compute(serialize_cost(payload_size))
        self._inflight_in.dec()
        self._rpcs_handled.inc()
        if context._responded:
            # Respond exactly once: the explicit reply already went out.
            # A raise or a returned value after respond() is invisible
            # to the caller -- the sanitizer reports it under MCH070.
            if _sanitize.ENABLED:
                _sanitize.note_post_respond(
                    self, request, status == STATUS_OK, value, error_message
                )
            return
        response = RPCResponse(
            seq=request.seq,
            status=status,
            value=value,
            payload_size=payload_size,
            src_address=self.process.address,
            error_message=error_message,
        )
        self.network.send(self.process, request.src_address, response, response.wire_size)
        if _sanitize.ENABLED:
            _sanitize.note_handler_responded(self, request.seq)
        if observed:
            request.responded_at = self.kernel.now
            self._emit("on_respond", request=request, response=response)

    def _dispatch_response(self, response: RPCResponse) -> None:
        event = self._pending.pop(response.seq, None)
        if event is None:
            return  # late response after timeout: drop
        event.set(response)

    # ------------------------------------------------------------------
    # online reconfiguration (paper section 5, Observation 2)
    # ------------------------------------------------------------------
    def find_pool(self, name: str) -> Pool:
        """``margo_find_pool_by_name`` equivalent."""
        return self._resolve_pool(name)

    def add_pool(self, spec: str | dict[str, Any] | PoolSpec) -> Pool:
        """``margo_add_pool_from_json`` equivalent."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        if isinstance(spec, dict):
            spec = PoolSpec.from_json(spec)
        if spec.name in self.pools:
            raise DuplicateNameError(f"pool {spec.name!r} already exists")
        pool = Pool(spec.name, spec.kind, spec.access)
        if self.profiler is not None:
            pool._profiler = self.profiler
        self.pools[spec.name] = pool
        self.config.pools.append(spec)
        if _race.ENABLED:
            _race.track(self.pools, f"{self.process.name}.pools")
            _race.note_write(
                self.pools, spec.name, f"margo:{self.process.name}.add_pool:{spec.name}"
            )
        return pool

    def remove_pool(self, name: str) -> None:
        """Remove a pool; refuses if the pool is in use (paper: "Margo
        ensures that the changes are always valid")."""
        pool = self._resolve_pool(name)
        if pool.xstreams:
            raise PoolInUseError(
                f"pool {name!r} is used by xstreams "
                f"{[x.name for x in pool.xstreams]}"
            )
        claims = self._pool_claims.get(name)
        if claims:
            raise PoolInUseError(f"pool {name!r} is claimed by {sorted(claims)}")
        if pool.size:
            raise PoolInUseError(f"pool {name!r} still has {pool.size} queued ULTs")
        users = [r.name for r in self._registry.values() if r.pool is pool]
        if users:
            raise PoolInUseError(f"pool {name!r} is the handler pool of RPCs {users}")
        del self.pools[name]
        self.config.pools = [p for p in self.config.pools if p.name != name]
        if _race.ENABLED:
            _race.track(self.pools, f"{self.process.name}.pools")
            _race.note_write(
                self.pools, name, f"margo:{self.process.name}.remove_pool:{name}"
            )

    def add_xstream(self, spec: str | dict[str, Any] | XStreamSpec) -> XStream:
        if isinstance(spec, str):
            spec = json.loads(spec)
        if isinstance(spec, dict):
            spec = XStreamSpec.from_json(spec)
        if spec.name in self.xstreams:
            raise DuplicateNameError(f"xstream {spec.name!r} already exists")
        pools = [self._resolve_pool(p) for p in spec.pools]
        xstream = XStream(self.kernel, spec.name, pools, scheduler=spec.scheduler)
        self.xstreams[spec.name] = xstream
        self.config.xstreams.append(spec)
        if _race.ENABLED:
            _race.track(self.xstreams, f"{self.process.name}.xstreams")
            _race.note_write(
                self.xstreams, spec.name,
                f"margo:{self.process.name}.add_xstream:{spec.name}",
            )
        xstream.start()
        return xstream

    def remove_xstream(self, name: str) -> None:
        """Remove an xstream; refuses to orphan a pool that has users."""
        xstream = self.xstreams.get(name)
        if xstream is None:
            raise NoSuchXStreamError(f"no xstream named {name!r}")
        for pool in xstream.pools:
            others = [x for x in pool.xstreams if x is not xstream]
            if not others and self._pool_has_users(pool):
                raise PoolInUseError(
                    f"removing xstream {name!r} would orphan pool {pool.name!r} "
                    "which still has users"
                )
        xstream.stop()
        del self.xstreams[name]
        self.config.xstreams = [x for x in self.config.xstreams if x.name != name]
        if _race.ENABLED:
            _race.track(self.xstreams, f"{self.process.name}.xstreams")
            _race.note_write(
                self.xstreams, name, f"margo:{self.process.name}.remove_xstream:{name}"
            )

    def _pool_has_users(self, pool: Pool) -> bool:
        if pool.size:
            return True
        if self._pool_claims.get(pool.name):
            return True
        return any(r.pool is pool for r in self._registry.values())

    # Providers (and the progress loop) claim pools so that Margo can
    # refuse to remove a pool out from under them.
    def claim_pool(self, name: str, owner: str) -> Pool:
        pool = self._resolve_pool(name)
        self._pool_claims.setdefault(name, set()).add(owner)
        return pool

    def release_pool(self, name: str, owner: str) -> None:
        claims = self._pool_claims.get(name)
        if claims:
            claims.discard(owner)

    def get_config(self) -> dict[str, Any]:
        """The live configuration as a JSON document (queryable at run
        time, paper section 5)."""
        doc = self.config.to_json()
        # Reflect live xstream->pool mappings (they can drift from the
        # original spec through add_pool/remove_pool on xstreams).
        doc["argobots"]["xstreams"] = [
            x.to_json() for x in self.xstreams.values()
        ]
        doc["argobots"]["pools"] = [p.to_json() for p in self.pools.values()]
        return doc

    def snapshot(self) -> dict[str, Any]:
        """Live state sample used by the periodic monitoring sampler."""
        return {
            "time": self.kernel.now,
            "inflight_outgoing": self.inflight_outgoing,
            "inflight_incoming": self.inflight_incoming,
            "pools": {name: pool.size for name, pool in self.pools.items()},
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Finalize: stop xstreams, drop pending work, emit final stats."""
        if self._finalized:
            return
        self._finalized = True
        if _sanitize.ENABLED:
            _sanitize.check_margo_shutdown(self)
        self._emit("on_finalize")
        if self.profiler is not None:
            self.profiler.stop()
        for xstream in self.xstreams.values():
            xstream.stop()
        self._incoming.clear()
        self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MargoInstance {self.process.address}>"
