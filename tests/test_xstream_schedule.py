"""Scheduling-order goldens for execution streams.

These pin what an :class:`~repro.margo.xstream.XStream` does, in simulated
time and in same-time order, independently of how the stream is driven:

* a kernel-level scenario mixing every ULT command (``Compute``,
  ``UltSleep``, ``Park`` with and without a timeout -- one of which
  fires -- and ``UltYield``), one stream serving two pools, streams
  sharing one pool, a stream added and one removed mid-run, and a
  ``stop()`` that lands during a ``Compute``;
* a runtime-level scenario: echo-style RPCs against a server whose
  primary pool gains and then loses a second stream
  (``add_xstream`` / ``remove_xstream``) while requests are in flight;
* the structural cost of one sequential echo RPC: exactly 11 kernel
  events and 4 xstream slices.

Every ``(kernel.now, ULT, stream, command)`` record and every stream's
``slices_run`` / ``busy_time`` / ``ults_finished`` is compared exactly,
on the kernel and on the reference event set of ``kernel_reference.py``.
Regenerate the pinned values only for an intended scheduling change:
``PYTHONPATH=src python tests/test_xstream_schedule.py`` prints them.
"""

import pytest
from kernel_reference import KERNELS

from repro import Cluster
from repro.margo.pool import Pool
from repro.margo.ult import (
    TIMED_OUT,
    ULT,
    Compute,
    Park,
    UltEvent,
    UltSleep,
    UltYield,
    current_ult,
)
from repro.margo.xstream import XStream
from repro.sim import SimKernel



@pytest.fixture(params=["wheel", "heap"])
def make_kernel(request, monkeypatch):
    kernel_cls = KERNELS[request.param]
    monkeypatch.setattr("repro.cluster.SimKernel", kernel_cls)
    return kernel_cls


def _label(cmd):
    if isinstance(cmd, Compute):
        return f"compute({cmd.duration})"
    if isinstance(cmd, UltSleep):
        return f"sleep({cmd.duration})"
    if isinstance(cmd, Park):
        return f"park({cmd.event.name},{cmd.timeout})"
    if isinstance(cmd, UltYield):
        return "yield"
    return repr(cmd)


class _Recorder:
    """Logs each ULT command, and each park's outcome, as it happens."""

    def __init__(self, kernel, streams):
        self.kernel = kernel
        self.streams = streams
        self.log = []

    def _where(self):
        ult = current_ult()
        running = [x.name for x in self.streams if x.current_ult is ult]
        return ult.name, running[0] if running else "?"

    def note(self, what):
        name, stream = self._where()
        self.log.append((self.kernel.now, name, stream, what))

    def do(self, cmd):
        """``yield from rec.do(cmd)``: record, then issue ``cmd``."""
        self.note(_label(cmd))
        value = yield cmd
        if isinstance(cmd, Park):
            self.note("timed-out" if value is TIMED_OUT else f"woken:{value}")
        return value


def _counters(streams):
    return {x.name: (x.slices_run, x.busy_time, x.ults_finished) for x in streams}


# ----------------------------------------------------------------------
# kernel-level scenario
# ----------------------------------------------------------------------
def run_kernel_scenario(make_kernel):
    kernel = make_kernel()
    hi, lo, shared = Pool("hi"), Pool("lo"), Pool("shared")
    es0 = XStream(kernel, "es0", [hi, lo])  # one stream, two pools
    es1 = XStream(kernel, "es1", [shared])  # two streams, one pool
    es2 = XStream(kernel, "es2", [shared])
    streams = [es0, es1, es2]
    for stream in streams:
        stream.start()
    rec = _Recorder(kernel, streams)
    go = UltEvent(kernel, "go")
    never = UltEvent(kernel, "never")
    late = UltEvent(kernel, "late")

    def a():
        yield from rec.do(Compute(0.5))
        yield from rec.do(UltYield())
        yield from rec.do(Compute(0.25))
        rec.note("done")

    def b():
        yield from rec.do(UltSleep(0.3))
        yield from rec.do(Compute(0.1))
        yield from rec.do(UltYield())
        yield from rec.do(Compute(0.05))
        rec.note("done")

    def g():
        yield from rec.do(Compute(0.1))
        rec.note("done")

    def c():
        yield from rec.do(Park(go))
        yield from rec.do(Compute(0.1))
        rec.note("done")

    def d():
        yield from rec.do(Compute(0.2))
        rec.note("set:go")
        go.set("go!")
        yield from rec.do(Park(never, 0.4))  # times out
        yield from rec.do(UltYield())
        yield from rec.do(Compute(0.05))
        rec.note("done")

    def e():
        yield from rec.do(Park(late, 1.0))  # set before the timeout
        yield from rec.do(Compute(0.05))
        rec.note("done")

    def f():
        yield from rec.do(UltSleep(0.7))
        rec.note("set:late")
        late.set("late!")
        yield from rec.do(Compute(0.3))
        rec.note("done")

    def long():
        yield from rec.do(Compute(2.0))  # its stream is stopped mid-way
        yield from rec.do(UltYield())
        yield from rec.do(Compute(0.1))
        rec.note("done")

    def h():
        yield from rec.do(Compute(0.2))
        yield from rec.do(UltYield())
        yield from rec.do(Compute(0.2))
        rec.note("done")

    def tail():
        yield from rec.do(Compute(0.1))
        rec.note("done")

    lo.push(ULT(a(), name="a"))
    lo.push(ULT(g(), name="g"))
    hi.push(ULT(b(), name="b"))
    for name, body in (("c", c), ("d", d), ("e", e), ("f", f)):
        shared.push(ULT(body(), name=name))
    long_ult = ULT(long(), name="long")

    def add_stream():
        es3 = XStream(kernel, "es3", [shared])
        streams.append(es3)
        es3.start()
        shared.push(long_ult)
        shared.push(ULT(h(), name="h"))

    def stop_long_runner():
        (runner,) = [x for x in streams if x.current_ult is long_ult]
        rec.log.append((kernel.now, "-", runner.name, "stop"))
        runner.stop()

    def remove_idle():
        rec.log.append((kernel.now, "-", "es2", "stop"))
        es2.stop()
        shared.push(ULT(tail(), name="tail"))

    kernel.schedule(0.15, add_stream)
    kernel.schedule(1.0, stop_long_runner)
    kernel.schedule(3.0, remove_idle)
    kernel.run()
    return rec.log, _counters(streams)


KERNEL_LOG = [
    (0.0, 'b', 'es0', 'sleep(0.3)'),
    (0.0, 'a', 'es0', 'compute(0.5)'),
    (0.0, 'c', 'es1', 'park(go,None)'),
    (0.0, 'd', 'es1', 'compute(0.2)'),
    (0.0, 'e', 'es2', 'park(late,1.0)'),
    (0.0, 'f', 'es2', 'sleep(0.7)'),
    (0.15, 'long', 'es3', 'compute(2.0)'),
    (0.15, 'h', 'es2', 'compute(0.2)'),
    (0.20000002, 'd', 'es1', 'set:go'),
    (0.20000002, 'd', 'es1', 'park(never,0.4)'),
    (0.20000002, 'c', 'es1', 'woken:go!'),
    (0.20000002, 'c', 'es1', 'compute(0.1)'),
    (0.30000004, 'c', 'es1', 'done'),
    (0.35000001999999997, 'h', 'es2', 'yield'),
    (0.35000001999999997, 'h', 'es2', 'compute(0.2)'),
    (0.50000002, 'a', 'es0', 'yield'),
    (0.50000002, 'b', 'es0', 'compute(0.1)'),
    (0.55000004, 'h', 'es2', 'done'),
    (0.60000002, 'd', 'es1', 'timed-out'),
    (0.60000002, 'd', 'es1', 'yield'),
    (0.60000002, 'd', 'es1', 'compute(0.05)'),
    (0.60000004, 'b', 'es0', 'yield'),
    (0.60000004, 'b', 'es0', 'compute(0.05)'),
    (0.65000004, 'd', 'es1', 'done'),
    (0.65000006, 'b', 'es0', 'done'),
    (0.65000006, 'g', 'es0', 'compute(0.1)'),
    (0.7, 'f', 'es1', 'set:late'),
    (0.7, 'f', 'es1', 'compute(0.3)'),
    (0.7, 'e', 'es2', 'woken:late!'),
    (0.7, 'e', 'es2', 'compute(0.05)'),
    (0.75000002, 'e', 'es2', 'done'),
    (0.75000008, 'g', 'es0', 'done'),
    (0.75000008, 'a', 'es0', 'compute(0.25)'),
    (1.0, '-', 'es3', 'stop'),
    (1.0000000199999999, 'f', 'es1', 'done'),
    (1.0000000999999998, 'a', 'es0', 'done'),
    (2.15000002, 'long', 'es3', 'yield'),
    (2.15000002, 'long', 'es1', 'compute(0.1)'),
    (2.2500000399999998, 'long', 'es1', 'done'),
    (3.0, '-', 'es2', 'stop'),
    (3.0, 'tail', 'es1', 'compute(0.1)'),
    (3.10000002, 'tail', 'es1', 'done'),
]
KERNEL_COUNTERS = {
    'es0': (6, 1.0, 3),
    'es1': (8, 0.85, 5),
    'es2': (5, 0.45, 2),
    'es3': (1, 2.0, 0),
}


def test_kernel_scenario_golden(make_kernel):
    log, counters = run_kernel_scenario(make_kernel)
    assert log == KERNEL_LOG
    assert counters == KERNEL_COUNTERS


# ----------------------------------------------------------------------
# runtime-level scenario: add_xstream / remove_xstream under load
# ----------------------------------------------------------------------
def run_runtime_scenario():
    cluster = Cluster(seed=3)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    streams = []
    rec = _Recorder(cluster.kernel, streams)

    def handler(ctx):
        n = ctx.args
        yield from rec.do(Compute(2e-6 * (1 + n % 3)))
        if n % 2:
            yield from rec.do(UltYield())
        yield from rec.do(UltSleep(1e-6))
        return n

    server.register("work", handler)
    results = []

    def caller(k):
        for i in range(4):
            value = yield from client.forward(server.address, "work", 4 * k + i)
            results.append((cluster.now, k, value))

    for k in range(3):
        cluster.spawn(client, caller(k), name=f"caller{k}")

    def add():
        extra = server.add_xstream({"name": "es-b", "scheduler": {"pools": ["__primary__"]}})
        streams.append(extra)

    streams.append(server.xstreams["__primary__"])
    cluster.kernel.schedule(8e-6, add)
    cluster.kernel.schedule(40e-6, lambda: server.remove_xstream("es-b"))
    cluster.run()
    return rec.log, results, _counters(streams)


RUNTIME_LOG = [
    (3.3092000000000004e-06, 'rpc:work:1', '__primary__', 'compute(2e-06)'),
    (5.3292e-06, 'rpc:work:1', '__primary__', 'sleep(1e-06)'),
    (5.5001999999999994e-06, 'rpc:work:2', '__primary__', 'compute(4e-06)'),
    (8.171e-06, 'rpc:work:3', 'es-b', 'compute(6e-06)'),
    (9.520199999999999e-06, 'rpc:work:2', '__primary__', 'sleep(1e-06)'),
    (1.4191e-05, 'rpc:work:3', 'es-b', 'sleep(1e-06)'),
    (1.5257000000000001e-05, 'rpc:work:4', '__primary__', 'compute(4e-06)'),
    (1.6257e-05, 'rpc:work:5', 'es-b', 'compute(6e-06)'),
    (1.9277000000000002e-05, 'rpc:work:4', '__primary__', 'yield'),
    (1.9277000000000002e-05, 'rpc:work:4', '__primary__', 'sleep(1e-06)'),
    (2.09278e-05, 'rpc:work:6', '__primary__', 'compute(2e-06)'),
    (2.2277e-05, 'rpc:work:5', 'es-b', 'yield'),
    (2.2277e-05, 'rpc:work:5', 'es-b', 'sleep(1e-06)'),
    (2.29478e-05, 'rpc:work:6', '__primary__', 'yield'),
    (2.29478e-05, 'rpc:work:6', '__primary__', 'sleep(1e-06)'),
    (2.60138e-05, 'rpc:work:7', '__primary__', 'compute(6e-06)'),
    (2.90138e-05, 'rpc:work:8', 'es-b', 'compute(2e-06)'),
    (3.10338e-05, 'rpc:work:8', 'es-b', 'sleep(1e-06)'),
    (3.1424800000000004e-05, 'rpc:work:9', 'es-b', 'compute(4e-06)'),
    (3.20338e-05, 'rpc:work:7', '__primary__', 'sleep(1e-06)'),
    (3.54448e-05, 'rpc:work:9', 'es-b', 'sleep(1e-06)'),
    (3.777060000000001e-05, 'rpc:work:10', '__primary__', 'compute(4e-06)'),
    (3.8770600000000005e-05, 'rpc:work:11', 'es-b', 'compute(2e-06)'),
    (4.07906e-05, 'rpc:work:11', 'es-b', 'yield'),
    (4.1790600000000006e-05, 'rpc:work:10', '__primary__', 'yield'),
    (4.1790600000000006e-05, 'rpc:work:11', '__primary__', 'sleep(1e-06)'),
    (4.1790600000000006e-05, 'rpc:work:10', '__primary__', 'sleep(1e-06)'),
    (4.218160000000001e-05, 'rpc:work:12', '__primary__', 'compute(6e-06)'),
    (4.820160000000001e-05, 'rpc:work:12', '__primary__', 'yield'),
    (4.8543600000000014e-05, 'rpc:work:12', '__primary__', 'sleep(1e-06)'),
]
RUNTIME_RESULTS = [
    (1.23878e-05, 0, 0),
    (1.33878e-05, 1, 4),
    (1.80586e-05, 2, 8),
    (2.3144600000000002e-05, 0, 1),
    (2.61446e-05, 1, 5),
    (2.68154e-05, 2, 9),
    (3.4901400000000004e-05, 1, 6),
    (3.59014e-05, 0, 2),
    (3.931240000000001e-05, 2, 10),
    (5.128920000000002e-05, 0, 3),
    (5.146020000000002e-05, 1, 7),
    (5.241120000000002e-05, 2, 11),
]
RUNTIME_COUNTERS = {
    '__primary__': (30, 3.2318e-05, 11),
    'es-b': (11, 2.1706e-05, 1),
}


def test_runtime_scenario_golden(make_kernel):
    log, results, counters = run_runtime_scenario()
    assert log == RUNTIME_LOG
    assert results == RUNTIME_RESULTS
    assert counters == RUNTIME_COUNTERS


# ----------------------------------------------------------------------
# structural cost of one echo RPC
# ----------------------------------------------------------------------
def _echo_counts(n, kernel_cls):
    """Kernel events (post/schedule/schedule_at calls) and xstream slices
    spent on ``n`` sequential echo RPCs from one client, observers off."""
    calls = [0]
    saved = {attr: kernel_cls.__dict__[attr] for attr in ("post", "schedule", "schedule_at")}
    for attr, plain in saved.items():

        def counted(kernel, *args, _plain=plain, **kwargs):
            calls[0] += 1
            return _plain(kernel, *args, **kwargs)

        setattr(kernel_cls, attr, counted)
    try:
        off = {"observability": {"tracing": False, "metrics": False}}
        cluster = Cluster(seed=7)
        server = cluster.add_margo("server", node="n0", config=dict(off))
        client = cluster.add_margo("client", node="n1", config=dict(off))

        def echo(ctx):
            yield Compute(1e-6)
            return ctx.args

        server.register("echo", echo)
        streams = [*server.xstreams.values(), *client.xstreams.values()]
        events0 = calls[0]
        slices0 = sum(x.slices_run for x in streams)

        def sequential():
            for i in range(n):
                yield from client.forward(server.address, "echo", i)

        cluster.run_ult(client, sequential())
    finally:
        for attr, plain in saved.items():
            setattr(kernel_cls, attr, plain)
    return calls[0] - events0, sum(x.slices_run for x in streams) - slices0


def test_echo_rpc_costs_11_events_and_4_slices(make_kernel):
    # The marginal cost between two run lengths cancels the fixed
    # per-run work (spawning the driver, the final wake-up).
    short = _echo_counts(10, make_kernel)
    long = _echo_counts(30, make_kernel)
    assert ((long[0] - short[0]) / 20, (long[1] - short[1]) / 20) == (11, 4)


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    import pprint

    log, counters = run_kernel_scenario(SimKernel)
    print("KERNEL_LOG = ", end="")
    pprint.pprint(log)
    print("KERNEL_COUNTERS = ", end="")
    pprint.pprint(counters)
    log, results, counters = run_runtime_scenario()
    print("RUNTIME_LOG = ", end="")
    pprint.pprint(log)
    print("RUNTIME_RESULTS = ", end="")
    pprint.pprint(results)
    print("RUNTIME_COUNTERS = ", end="")
    pprint.pprint(counters)
