"""Reference event set for kernel tests: a plain binary heap of single
``(deadline, seq)`` events.

:class:`ReferenceKernel` is :class:`~repro.sim.kernel.SimKernel` with its
event set replaced by the simplest correct one: every event is its own
heap entry, with no runs and no joining.  Tasks, events and ``run()``
with its stop conditions and failure reporting are the kernel's own
code, so a test can drive both with the same calls and compare what
fires, event for event.
"""

import heapq

from repro.sim import kernel as _k


class ReferenceKernel(_k.SimKernel):
    def post(self, delay, fn, arg=_k._NO_ARG):
        if not 0.0 <= delay < _k._INF:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        self._push(self._now + delay, fn, arg)

    def schedule(self, delay, fn, arg=_k._NO_ARG):
        if not 0.0 <= delay < _k._INF:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        timer = _k.Timer(self._now + delay, fn, arg, self)
        self._push(timer.deadline, timer, _k._IS_TIMER)
        return timer

    def schedule_at(self, deadline, fn, arg=_k._NO_ARG):
        if not self._now <= deadline < _k._INF:
            raise ValueError(f"deadline must be finite and not before now, got {deadline}")
        timer = _k.Timer(deadline, fn, arg, self)
        self._push(deadline, timer, _k._IS_TIMER)
        return timer

    def _push(self, deadline, obj, tag):
        self._seq += 1
        heapq.heappush(self._queue, (deadline, self._seq, obj, tag))

    def queued(self):
        return len(self._queue)

    def _compact(self):
        self._queue[:] = [e for e in self._queue if not _cancelled(e)]
        heapq.heapify(self._queue)
        self._cancelled_count = 0

    def _drain(self, until, watch, max_events, failures):
        queue = self._queue
        processed = 0
        while queue:
            if _cancelled(queue[0]):
                heapq.heappop(queue)
                self._cancelled_count -= 1
                continue
            deadline, _, obj, tag = queue[0]
            if until is not None and deadline > until:
                self._now = until
                return True
            self._now = deadline
            heapq.heappop(queue)
            if tag is _k._IS_TIMER:
                obj._kernel = None
                obj, tag = obj._fn, obj._arg
            if tag is _k._NO_ARG:
                obj()
            else:
                obj(tag)
            processed += 1
            if processed > max_events:
                raise _k.SimulationError(f"exceeded max_events={max_events}")
            if failures:
                self._raise_task_failures()
            if watch is not None and not watch:
                return True
        return False


def _cancelled(entry):
    return entry[3] is _k._IS_TIMER and entry[2]._cancelled


#: Parameter ids for tests that run on both event sets, kept from when
#: the kernel had two backends: ``wheel`` is the kernel's own event
#: queue, ``heap`` this reference.
KERNELS = {"wheel": _k.SimKernel, "heap": ReferenceKernel}
