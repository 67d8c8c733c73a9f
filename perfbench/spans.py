"""Span recorder for the traced run: host time per layer, from outside.

:class:`Recorder` wraps public entry points of each layer of ``repro``
(class attributes and module-level names, restored by :meth:`uninstall`)
and records one span per call.  Generator functions -- ULT bodies,
``MargoInstance.forward``, Bedrock ``ServiceHandle`` methods -- are timed
per *resume*: a generator is wrapped in :class:`TimedGen`, which opens a
span around every ``send``/``throw``, so a ULT parked for a reply costs
nothing while parked.  Spans nest through a stack; a span's self time is
its duration minus the durations of its direct children.  Every span
feeds per-name aggregates (count, total, self), and the first
``keep_spans`` are kept in memory and written out as a Chrome trace at
the end of the run.

Install before building clusters: tasks, ULTs and xstreams created
earlier were not wrapped, and their time would be charged to the kernel.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- spans time the simulator on the host
# clock on purpose; no host-clock value enters simulated state.

import functools
import inspect
import json
import os
import statistics
import time

from repro.bedrock.client import ServiceHandle
from repro.hepnos import service as hepnos_service
from repro.hepnos import workflow as hepnos_workflow
from repro.hepnos.service import HEPnOSClient, HEPnOSService
from repro.margo import runtime as margo_runtime
from repro.margo.errors import RpcError, RpcTimeoutError
from repro.margo.pool import Pool
from repro.margo.runtime import MargoInstance
from repro.margo.ult import ULT
from repro.margo.xstream import XStream
from repro.monitoring.stats_monitor import StatisticsMonitor
from repro.observability.profile.profiler import SAMPLE_STAMP, ContinuousProfiler
from repro.observability.tracer import Tracer
from repro.observability.xray.plane import XrayRecorder
from repro.security import guard as security_guard
from repro.sim.kernel import SimKernel, Timer
from repro.sim.network import Network, Process
from repro.yokan.backend import KVBackend
from repro.yokan.client import DatabaseHandle
from repro.yokan.provider import YokanProvider

_now = time.perf_counter_ns

#: Observer classes whose ``on_*`` hooks are spans, by span name.
OBSERVERS = {
    "observability.tracer": Tracer,
    "observability.profile": ContinuousProfiler,
    "observability.xray": XrayRecorder,
    "monitoring.stats": StatisticsMonitor,
}
#: Span names whose self time is the simulation kernel's.
KERNEL_SPANS = (
    "sim.kernel.run", "sim.kernel.post", "sim.kernel.schedule",
    "sim.kernel.schedule_at", "sim.kernel.spawn", "sim.task",
)


class TimedGen:
    """Generator proxy that records a span around every resume.

    It has the full generator protocol, so ``yield from``, ``Task`` and
    ``ULT`` drive it exactly like the generator it wraps.
    """

    __slots__ = ("_gen", "_rec", "_name", "_on_error")

    def __init__(self, gen, rec: "Recorder", name: str, on_error=None) -> None:
        self._gen = gen
        self._rec = rec
        self._name = name
        self._on_error = on_error

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._rec.enter(self._name, True)
        try:
            return self._gen.send(value)
        except StopIteration:
            raise
        except BaseException as err:
            if self._on_error is not None:
                self._on_error(err)
            raise
        finally:
            self._rec.exit()

    def throw(self, *args):
        self._rec.enter(self._name, True)
        try:
            return self._gen.throw(*args)
        except StopIteration:
            raise
        except BaseException as err:
            if self._on_error is not None:
                self._on_error(err)
            raise
        finally:
            self._rec.exit()

    def close(self):
        return self._gen.close()


class Recorder:
    """Per-layer spans and counters over one installed window."""

    def __init__(self, keep_spans: int = 0) -> None:
        self.keep_spans = keep_spans
        #: span kind -> (inner, outer) recorder cost in ns; see calibrate().
        self.overhead_ns = {"fn": (0.0, 0.0), "gen": (0.0, 0.0)}
        self._patches: list = []
        self.xstreams: list = []
        self.reset()

    # ------------------------------------------------------------------
    # spans and counts
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget spans and counts (not the xstreams seen so far)."""
        self._stack: list = []
        self._next_id = 0
        #: name -> [count, total_ns, self_ns, direct function-span
        #: children, direct generator-span children, is a generator span]
        self.stats: dict = {}
        self.counts: dict = {}
        #: (id, parent id, name, start_ns, end_ns) of the first spans.
        self.spans: list = []

    def enter(self, name: str, gen: bool = False) -> None:
        self._next_id += 1
        self._stack.append([name, _now(), 0, self._next_id, 0, 0, gen])

    def exit(self) -> None:
        end = _now()
        stack = self._stack
        name, start, children, span_id, fn_children, gen_children, gen = stack.pop()
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0, 0, 0, gen]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        entry[3] += fn_children
        entry[4] += gen_children
        parent = 0
        if stack:
            frame = stack[-1]
            frame[2] += duration
            frame[5 if gen else 4] += 1
            parent = frame[3]
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calibrate(self, n: int = 20_000, repeats: int = 5) -> None:
        """Measure the recorder's own cost per span, for function spans
        and generator resumes: the ``inner`` part falls inside the span
        it belongs to, the ``outer`` part (the wrapper call and the
        bookkeeping around the clock reads) lands in the parent's self
        time.  Medians over ``repeats`` trials of ``n`` spans each."""

        def noop(a, b):
            return None

        def ticker():
            while True:
                yield

        spanned = self._span("calibrate.fn")(noop)
        raw_gen = ticker()
        next(raw_gen)
        samples: dict = {"fn": ([], []), "gen": ([], [])}
        for _ in range(repeats):
            timed_gen = TimedGen(ticker(), self, "calibrate.gen")
            next(timed_gen)
            self.reset()
            started = _now()
            for _ in range(n):
                pass
            empty = _now() - started
            for kind, raw, timed in (
                ("fn", lambda: noop(1, 2), lambda: spanned(1, 2)),
                ("gen", lambda: raw_gen.send(None), lambda: timed_gen.send(None)),
            ):
                started = _now()
                for _ in range(n):
                    raw()
                call = _now() - started - empty
                self.enter("calibrate.outer")
                for _ in range(n):
                    timed()
                self.exit()
                inner, outer = samples[kind]
                inner.append((self.stats[f"calibrate.{kind}"][1] - call) / n)
                # The lambda frames are in both loops; the empty loop is not.
                outer.append((self.stats["calibrate.outer"][2] - call - empty) / n)
                self.reset()
        self.overhead_ns = {
            kind: tuple(max(0.0, statistics.median(v)) for v in pair)
            for kind, pair in samples.items()
        }

    def overhead_scale(self, traced_ns: float, untraced_ns: float) -> float:
        """Factor that stretches the calibrated per-span costs so that
        they add up to the measured slowdown of a traced run over the
        same run untraced: in context a span costs more than in the
        tight calibration loop (cache misses, argument packing, the
        counting-only wrappers)."""
        calibrated = sum(
            entry[0] * sum(self.overhead_ns["gen" if entry[5] else "fn"])
            for entry in self.stats.values()
        )
        return max(0.0, (traced_ns - untraced_ns) / calibrated) if calibrated else 1.0

    def self_ns(self, *names: str, scale: float = 1.0) -> float:
        """Self time of the named spans less the recorder's own cost: the
        inner overhead of each span and the outer overhead of each of its
        direct child spans, calibrated costs times ``scale``."""
        fn_in, fn_out = (scale * c for c in self.overhead_ns["fn"])
        gen_in, gen_out = (scale * c for c in self.overhead_ns["gen"])
        total = 0.0
        for name in names:
            entry = self.stats.get(name)
            if entry is None:
                continue
            count, _total, self_time, fn_children, gen_children, gen = entry
            own = count * (gen_in if gen else fn_in)
            total += max(0.0, self_time - own - fn_children * fn_out - gen_children * gen_out)
        return total

    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry[0] if entry is not None else 0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name: str):
        enter, exit_ = self.enter, self.exit

        def make(fn):
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

            return spanned

        return make

    def _gen_span(self, name: str, on_error=None):
        rec = self

        def make(fn):
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                rec.count(name + ".calls")
                return TimedGen(fn(*args, **kwargs), rec, name, on_error)

            return spanned

        return make

    def _counted(self, name: str):
        count = self.count

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                count(name)
                return fn(*args, **kwargs)

            return counted

        return make

    def _rpc_error(self, err: BaseException) -> None:
        if isinstance(err, RpcTimeoutError):
            self.count("margo.rpc.timeouts")
        elif isinstance(err, RpcError):
            self.count("margo.rpc.errors")

    def install(self) -> None:
        rec = self
        # sim: the kernel loop, every scheduling call, spawned tasks.
        self._patch(SimKernel, "run", self._span("sim.kernel.run"))
        for attr in ("post", "schedule", "schedule_at"):
            self._patch(SimKernel, attr, self._span(f"sim.kernel.{attr}"))

        def make_spawn(fn):
            @functools.wraps(fn)
            def spawn(kernel, gen, name="task", daemon=False):
                layer = "margo.xstream" if name.startswith("xstream:") else "sim.task"
                rec.enter("sim.kernel.spawn")
                try:
                    return fn(kernel, TimedGen(gen, rec, layer), name, daemon)
                finally:
                    rec.exit()

            return spawn

        self._patch(SimKernel, "spawn", make_spawn)

        def make_cancel(fn):
            @functools.wraps(fn)
            def cancel(timer):
                if not timer.cancelled:
                    rec.count("sim.timers.cancelled")
                return fn(timer)

            return cancel

        self._patch(Timer, "cancel", make_cancel)
        self._patch(Network, "send", self._span("sim.network"))
        self._patch(Process, "deliver", self._span("sim.network"))

        # margo: every ULT body, RPC forward and bulk transfer per resume.
        def make_ult_init(fn):
            @functools.wraps(fn)
            def init(ult, gen, name="", pool=None):
                fn(ult, TimedGen(gen, rec, "margo.ult"), name, pool)

            return init

        self._patch(ULT, "__init__", make_ult_init)
        self._patch(ULT, "ready", self._span("margo.ult.ready"))
        self._patch(Pool, "push", self._counted("margo.pool.pushes"))

        def make_start(fn):
            @functools.wraps(fn)
            def start(xstream):
                rec.xstreams.append(xstream)
                return fn(xstream)

            return start

        self._patch(XStream, "start", make_start)
        self._patch(MargoInstance, "forward", self._gen_span("margo.forward", self._rpc_error))
        self._patch(MargoInstance, "bulk_transfer", self._gen_span("margo.bulk"))

        # mercury: wire-size estimation at its call sites.
        for module in (margo_runtime, security_guard):
            self._patch(module, "estimate_size", self._span("mercury.estimate_size"))

        # yokan: every public backend method of every backend type.
        public = [n for n in vars(KVBackend) if not n.startswith("_")]
        pending, backends = [KVBackend], []
        while pending:
            cls = pending.pop()
            backends.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in backends:
            for attr in public:
                if inspect.isfunction(cls.__dict__.get(attr)):
                    self._patch(cls, attr, self._span("yokan.backend"))

        # Component code that runs inside ULTs: client handles, provider
        # RPC handlers, the HEPnOS client and workflow, resharding.
        self._patch_generators(DatabaseHandle, "yokan.client")
        self._patch_generators(YokanProvider, "yokan.provider", prefix="_on_")
        self._patch_generators(HEPnOSClient, "hepnos.client")
        self._patch(HEPnOSService, "reshard", self._gen_span("hepnos.client"))
        self._patch(hepnos_workflow, "run_step", self._gen_span("hepnos.client"))

        # hepnos: records moved by a reshard (its drain decodes them).
        def make_decode(fn):
            @functools.wraps(fn)
            def decode(data):
                records = fn(data)
                rec.count("hepnos.reshard.records", len(records))
                return records

            return decode

        self._patch(hepnos_service, "decode_records", make_decode)

        # bedrock: the ServiceHandle reconfiguration/introspection calls.
        self._patch_generators(ServiceHandle, "bedrock.reconfig")

        # observers: every lifecycle hook.
        for name, cls in OBSERVERS.items():
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("on_") and inspect.isfunction(fn):
                    self._patch(cls, attr, self._span(name))

        def make_profile_start(fn):
            @functools.wraps(fn)
            def on_forward_start(prof, **kwargs):
                fn(prof, **kwargs)
                rec.count("observability.profile.seen")
                if getattr(kwargs["request"], SAMPLE_STAMP, 0):
                    rec.count("observability.profile.sampled")

            return on_forward_start

        self._patch(ContinuousProfiler, "on_forward_start", make_profile_start)

    def _patch_generators(self, cls, name: str, prefix: str = "") -> None:
        """Time every generator method of ``cls`` whose name starts with
        ``prefix`` (public methods when ``prefix`` is empty)."""
        for attr, fn in list(vars(cls).items()):
            public = not attr.startswith("_") if not prefix else attr.startswith(prefix)
            if public and inspect.isgeneratorfunction(fn):
                self._patch(cls, attr, self._gen_span(name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as a Chrome trace-event document."""
        if not self.spans:
            return
        origin = self.spans[0][3]
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[3])
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def xstream_slices(xstreams: list) -> int:
    return sum(int(x.sample()["slices_run"]) for x in xstreams)


def network_totals(clusters: list) -> tuple:
    return (
        sum(c.network.messages_sent for c in clusters),
        sum(c.network.bytes_sent for c in clusters),
    )
