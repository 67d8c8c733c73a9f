"""Unit tests for ULTs, pools, and execution streams."""

import pytest

from repro.margo.errors import ConfigError
from repro.margo.pool import Pool
from repro.margo.ult import (
    Compute,
    Park,
    ULT,
    UltEvent,
    UltMutex,
    UltSleep,
    UltState,
    UltYield,
    TIMED_OUT,
)
from repro.margo.xstream import XStream
from repro.sim import SimKernel


def make_rig(n_pools=1, n_xstreams=1):
    kernel = SimKernel()
    pools = [Pool(f"pool{i}") for i in range(n_pools)]
    xstreams = []
    for i in range(n_xstreams):
        xs = XStream(kernel, f"es{i}", list(pools))
        xs.start()
        xstreams.append(xs)
    return kernel, pools, xstreams


def run_ults(kernel, pool, *gens):
    ults = [ULT(g, name=f"u{i}") for i, g in enumerate(gens)]
    for ult in ults:
        pool.push(ult)
    kernel.run()
    for ult in ults:
        if ult.error:
            raise ult.error
    return [u.result for u in ults]


def test_pool_validation():
    with pytest.raises(ConfigError):
        Pool("")
    with pytest.raises(ConfigError):
        Pool("p", kind="bogus")
    with pytest.raises(ConfigError):
        Pool("p", access="bogus")
    with pytest.raises(ConfigError):
        Pool.from_json({"name": "p", "extra": 1})
    pool = Pool.from_json({"name": "p", "type": "fifo", "access": "mpmc"})
    assert pool.to_json() == {"name": "p", "type": "fifo", "access": "mpmc"}


def test_ult_requires_generator():
    with pytest.raises(TypeError):
        ULT(lambda: None)  # type: ignore[arg-type]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "neg"])
@pytest.mark.parametrize("command", [Compute, UltSleep])
def test_command_rejects_invalid_duration(command, bad):
    with pytest.raises(ValueError):
        command(bad)


def test_ult_compute_advances_time_and_busies_stream():
    kernel, (pool,), (xs,) = make_rig()

    def work():
        yield Compute(1.0)
        return kernel.now

    (result,) = run_ults(kernel, pool, work())
    assert result >= 1.0
    assert xs.busy_time == pytest.approx(1.0)


def test_two_ults_one_stream_serialize_compute():
    kernel, (pool,), _ = make_rig(n_xstreams=1)
    finish_times = []

    def work(i):
        yield Compute(1.0)
        finish_times.append((i, kernel.now))

    run_ults(kernel, pool, work(0), work(1))
    # Single stream: second ULT cannot start computing until first yields.
    assert finish_times[1][1] >= 2.0


def test_two_ults_two_streams_run_in_parallel():
    kernel, (pool,), _ = make_rig(n_xstreams=2)
    finish_times = []

    def work(i):
        yield Compute(1.0)
        finish_times.append((i, kernel.now))

    run_ults(kernel, pool, work(0), work(1))
    assert max(t for _, t in finish_times) < 1.5  # ran concurrently


def test_ult_yield_interleaves():
    kernel, (pool,), _ = make_rig(n_xstreams=1)
    trace = []

    def work(tag):
        for _ in range(3):
            trace.append(tag)
            yield UltYield()

    run_ults(kernel, pool, work("a"), work("b"))
    assert trace == ["a", "b", "a", "b", "a", "b"]


def test_ult_sleep_releases_stream():
    kernel, (pool,), (xs,) = make_rig()
    trace = []

    def sleeper():
        yield UltSleep(10.0)
        trace.append(("sleeper", kernel.now))

    def worker():
        yield Compute(1.0)
        trace.append(("worker", kernel.now))

    run_ults(kernel, pool, sleeper(), worker())
    # worker completed during sleeper's sleep -> sleep released the stream
    assert trace[0][0] == "worker"
    assert trace[0][1] < 2.0


def test_park_and_set_event():
    kernel, (pool,), _ = make_rig()
    evt = UltEvent(kernel)

    def waiter():
        value = yield Park(evt, None)
        return value

    def setter():
        yield Compute(1.0)
        evt.set("payload")

    results = run_ults(kernel, pool, waiter(), setter())
    assert results[0] == "payload"


def test_park_timeout():
    kernel, (pool,), _ = make_rig()
    evt = UltEvent(kernel)

    def waiter():
        value = yield Park(evt, 2.0)
        return value

    (result, ) = run_ults(kernel, pool, waiter())
    assert result is TIMED_OUT


def test_park_on_set_event_resumes():
    kernel, (pool,), _ = make_rig()
    evt = UltEvent(kernel)
    evt.set(7)

    def waiter():
        value = yield Park(evt, None)
        return value

    (result,) = run_ults(kernel, pool, waiter())
    assert result == 7


def test_stale_timeout_does_not_disturb_later_parks():
    kernel, (pool,), _ = make_rig()
    evt1 = UltEvent(kernel)
    evt2 = UltEvent(kernel)
    kernel.schedule(0.5, lambda: evt1.set("first"))
    kernel.schedule(5.0, lambda: evt2.set("second"))

    def waiter():
        a = yield Park(evt1, 10.0)  # resolves at 0.5; timeout at 10 must not misfire
        b = yield Park(evt2, None)  # parked when the stale timer fires
        return (a, b)

    (result,) = run_ults(kernel, pool, waiter())
    assert result == ("first", "second")


def test_ult_error_recorded():
    kernel, (pool,), _ = make_rig()

    def bad():
        yield Compute(0.1)
        raise RuntimeError("nope")

    ult = ULT(bad())
    pool.push(ult)
    kernel.run()
    assert ult.state == UltState.DONE
    assert isinstance(ult.error, RuntimeError)


def test_unsupported_ult_command_becomes_error():
    kernel, (pool,), _ = make_rig()

    def bad():
        yield "garbage"

    ult = ULT(bad())
    pool.push(ult)
    kernel.run()
    assert isinstance(ult.error, TypeError)


def test_on_finish_callbacks_fire():
    kernel, (pool,), _ = make_rig()
    seen = []

    def work():
        yield Compute(0.1)
        return 5

    ult = ULT(work())
    ult.on_finish.append(lambda u: seen.append(u.result))
    pool.push(ult)
    kernel.run()
    assert seen == [5]


def test_mutex_mutual_exclusion_and_fifo():
    kernel, (pool,), _ = make_rig(n_xstreams=2)
    mutex = UltMutex(kernel)
    trace = []

    def critical(tag):
        yield from mutex.acquire()
        trace.append(f"{tag}-in")
        yield Compute(1.0)
        trace.append(f"{tag}-out")
        mutex.release()

    run_ults(kernel, pool, critical("a"), critical("b"), critical("c"))
    # No interleaving inside the critical section.
    for i in range(0, len(trace), 2):
        assert trace[i].split("-")[0] == trace[i + 1].split("-")[0]


def test_mutex_release_unlocked_raises():
    kernel = SimKernel()
    with pytest.raises(RuntimeError):
        UltMutex(kernel).release()


def test_xstream_priority_order_of_pools():
    kernel = SimKernel()
    high = Pool("high")
    low = Pool("low")
    xs = XStream(kernel, "es", [high, low])
    xs.start()
    trace = []

    def work(tag):
        trace.append(tag)
        yield Compute(0.1)

    low.push(ULT(work("low1")))
    low.push(ULT(work("low2")))
    high.push(ULT(work("high1")))
    kernel.run()
    # "basic" scheduler drains higher-priority pools first at each pick.
    assert trace[0] == "low1" or trace[0] == "high1"
    assert "high1" in trace[:2]


def test_xstream_requires_pool():
    kernel = SimKernel()
    with pytest.raises(ConfigError):
        XStream(kernel, "es", [])


def test_xstream_cannot_remove_last_pool():
    kernel = SimKernel()
    pool = Pool("p")
    xs = XStream(kernel, "es", [pool])
    with pytest.raises(ConfigError):
        xs.remove_pool(pool)


def test_xstream_stop_detaches_pools():
    kernel = SimKernel()
    pool = Pool("p")
    xs = XStream(kernel, "es", [pool])
    xs.start()
    xs.stop()
    assert pool.xstreams == ()
    kernel.run()


def test_pool_counters():
    kernel, (pool,), _ = make_rig()

    def work():
        yield Compute(0.1)

    run_ults(kernel, pool, work(), work())
    assert pool.total_pushed == 2
    assert pool.total_popped == 2
    assert pool.size == 0
