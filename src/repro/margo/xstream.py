"""Execution streams (xstreams): the OS threads of the Argobots model.

Each :class:`XStream` repeatedly picks a ULT from its scheduler's pools
(in priority order, like the "basic" Argobots scheduler) and runs it
until the ULT yields.  ``Compute`` commands make the stream itself busy
for simulated time, which is how CPU contention between providers
sharing a stream (paper Fig. 2) arises.

A stream is not a kernel task: it is driven directly by kernel
callbacks.  Its bound ``_resume`` is posted to the kernel to start it,
when a ``Compute`` ends, and when a pool push wakes it from idle; each
call runs ULT slices until the stream has nothing to do or is busy
computing.  Every post happens where, and with the delay, the former
generator task posted its own resume, so the ``(deadline, seq)``
schedule is the same (DESIGN.md §9, "Direct-drive execution streams").
"""

from __future__ import annotations

from typing import Any, Optional

from ..analysis import sanitize as _sanitize
from ..analysis.race import hooks as _race
from ..sim.kernel import SimKernel
from .errors import ConfigError
from .pool import Pool
from . import ult as _ult
from .ult import ULT, Compute, Park, UltSleep, UltState, UltYield

__all__ = ["XStream", "SCHEDULER_TYPES"]

SCHEDULER_TYPES = ("basic", "basic_wait", "prio")

# Fixed cost charged per scheduling decision, modeling the scheduler's
# own overhead.  Small but non-zero so that idle loops always advance
# simulated time.
SCHED_OVERHEAD = 20e-9


class _Wakeup:
    """An xstream's "work may be available" flag.

    ``Pool.push`` reads ``_set`` and calls :meth:`set` only while it is
    clear.  The flag posts the stream's resume only while the stream is
    idle; a busy stream finds the work on its next pick.
    """

    __slots__ = ("kernel", "_resume", "_set", "_idle")

    def __init__(self, kernel: SimKernel, resume: Any) -> None:
        self.kernel = kernel
        self._resume = resume
        self._set = False
        # True only while the stream waits for work (no resume pending).
        self._idle = False

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        if self._idle:
            self._idle = False
            self.kernel.post(0.0, self._resume)


class XStream:
    """An execution stream pulling ULTs from an ordered list of pools.

    An exception that escapes the scheduler itself -- not a ULT's own
    error, which ends in ``ult.finish(error=...)``, but say an
    ``on_finish`` callback that raises -- propagates out of
    ``kernel.run()``, like a non-daemon task failure.  The stream
    re-arms first, so a caller that handles the error and runs the
    kernel again finds it still serving its pools.
    """

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        pools: list[Pool],
        scheduler: str = "basic_wait",
    ) -> None:
        if not name:
            raise ConfigError("xstream name must be non-empty")
        if not pools:
            raise ConfigError(f"xstream {name!r} needs at least one pool")
        if scheduler not in SCHEDULER_TYPES:
            raise ConfigError(
                f"unknown scheduler type {scheduler!r} (expected one of {SCHEDULER_TYPES})"
            )
        self.kernel = kernel
        self.name = name
        self.scheduler = scheduler
        self.pools: list[Pool] = list(pools)
        # Bound once: every start, Compute end and idle wake posts it.
        self._resume = self._run
        self._wakeup = _Wakeup(kernel, self._resume)
        self._stopping = False
        self._started = False
        # The ULT whose slice is in progress, including while it
        # computes; None between slices.
        self.current_ult: Optional[ULT] = None
        # Counters for monitoring/benchmarks.
        self.slices_run = 0
        self.busy_time = 0.0
        self.ults_finished = 0
        for pool in self.pools:
            pool.attach_xstream(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"xstream {self.name} already started")
        self._started = True
        self.kernel.post(0.0, self._resume)

    def stop(self) -> None:
        """Ask the stream to exit after the current slice."""
        self._stopping = True
        self.notify()
        for pool in self.pools:
            pool.detach_xstream(self)
        self.pools = []

    @property
    def stopped(self) -> bool:
        return self._stopping

    def notify(self) -> None:
        """Wake the stream because work may be available (pool push)."""
        self._wakeup.set()

    # ------------------------------------------------------------------
    # pool management (runtime reconfiguration)
    # ------------------------------------------------------------------
    def add_pool(self, pool: Pool) -> None:
        if pool in self.pools:
            return
        self.pools.append(pool)
        pool.attach_xstream(self)
        self.notify()

    def remove_pool(self, pool: Pool) -> None:
        if pool not in self.pools:
            raise ConfigError(f"xstream {self.name} does not serve pool {pool.name}")
        if len(self.pools) == 1:
            raise ConfigError(f"cannot remove the last pool of xstream {self.name}")
        self.pools.remove(pool)
        pool.detach_xstream(self)

    # ------------------------------------------------------------------
    # the scheduling loop
    # ------------------------------------------------------------------
    # mochi-lint: hotpath
    def _pick(self) -> Optional[ULT]:
        pools = self.pools
        if len(pools) == 1:
            # Sole-pool fast path: the overwhelmingly common config
            # (one pool per stream) skips the priority scan entirely.
            return pools[0].pop()
        for pool in pools:
            ult = pool.pop()
            if ult is not None:
                return ult
        return None

    def _run(self) -> None:
        """Kernel callback: run ULT slices until the stream goes idle,
        starts a ``Compute`` or stops.  A stream that is mid-slice
        (``current_ult`` set) was computing and resumes that ULT first."""
        try:
            ult = self.current_ult
            if ult is not None and self._step(ult, None, None):
                return
            while not self._stopping:
                ult = self._pick()
                if ult is None:
                    wakeup = self._wakeup
                    wakeup._set = False
                    wakeup._idle = True
                    return
                self.slices_run += 1
                self.current_ult = ult
                ult.state = UltState.RUNNING
                value = ult._resume_value
                exc = ult._resume_exc
                ult._resume_value = None
                ult._resume_exc = None
                if self._step(ult, value, exc):
                    return
        except BaseException:
            # Not a ULT failure (those end in ult.finish): surface it
            # from kernel.run(), re-armed for a later run (class doc).
            self.current_ult = None
            if not self._stopping:
                self.kernel.post(0.0, self._resume)
            raise

    def _step(self, ult: ULT, value: Any, exc: Optional[BaseException]) -> bool:
        """Run ``ult`` until it blocks, yields, finishes or computes.

        True means it is computing: the stream resumes it when the
        ``Compute`` timer fires.  False ends the slice.
        """
        gen = ult.gen
        while True:
            try:
                # The current-ULT slot of repro.margo.ult, written
                # directly: two calls per generator step add up.
                _ult._CURRENT = ult
                if exc is not None:
                    cmd = gen.throw(exc)
                    exc = None
                else:
                    cmd = gen.send(value)
                value = None
            except StopIteration as stop:
                self.ults_finished += 1
                ult.finish(result=stop.value)
                break
            except BaseException as err:  # noqa: BLE001 - ULT failure path
                self.ults_finished += 1
                ult.finish(error=err)
                break
            finally:
                _ult._CURRENT = None
            # Runs once per ULT step across every RPC in the system; the
            # exact-type test skips isinstance for the common command.
            if type(cmd) is Compute or isinstance(cmd, Compute):
                self.busy_time += cmd.duration
                self.kernel.post(cmd.duration + SCHED_OVERHEAD, self._resume)
                return True
            if isinstance(cmd, Park):
                if _sanitize.ENABLED:
                    # A strict violation fails the offending ULT (via
                    # gen.throw on the next loop turn), not the stream.
                    try:
                        _sanitize.check_blocking_yield(ult, cmd)
                    except AssertionError as err:
                        exc = err
                        continue
                if _race.ANY_HELD and cmd.timeout is None:
                    # MCH041 needs an unbounded park *while holding
                    # a mutex*: timeout'd parks are bounded waits by
                    # construction, and ANY_HELD (maintained by the
                    # acquire/release hooks) is False in a lock-free
                    # phase -- the common case pays one attribute
                    # load here instead of a hook call.
                    _race.note_park(ult, cmd)
                cmd.event._park(ult, cmd.timeout)
                break
            if isinstance(cmd, UltSleep):
                if _sanitize.ENABLED:
                    try:
                        _sanitize.check_blocking_yield(ult, cmd)
                    except AssertionError as err:
                        exc = err
                        continue
                ult.state = UltState.BLOCKED
                self.kernel.post(cmd.duration, ult._timed_ready, ult._park_token)
                break
            if isinstance(cmd, UltYield):
                ult.pool.push(ult)
                break
            # Unknown command: surface as a ULT error.
            exc = TypeError(
                f"ULT {ult.name!r} yielded unsupported command {cmd!r}; "
                "ULTs may yield Compute, UltYield, UltSleep, or Park"
            )
        self.current_ult = None
        return False

    # ------------------------------------------------------------------
    def sample(self) -> dict[str, float]:
        """Cumulative utilization counters (the continuous profiler takes
        per-window deltas of these at each boundary tick)."""
        return {
            "busy_time": self.busy_time,
            "slices_run": float(self.slices_run),
            "ults_finished": float(self.ults_finished),
        }

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "scheduler": {"type": self.scheduler, "pools": [p.name for p in self.pools]},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<XStream {self.name} pools={[p.name for p in self.pools]}>"
