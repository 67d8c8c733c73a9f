"""Event-queue tests: the kernel against the reference event set.

The kernel's event set is one binary heap of same-deadline runs (the
file name is from the timer wheel it replaced).  It must be
*observationally identical* to the reference in ``kernel_reference.py``,
a plain binary heap of single ``(deadline, seq)`` events: same firing
order, same ``now`` after every call, under every workload shape --
including the shapes that exercise run-only machinery: joining, a
cancelled run head, a fully cancelled run, compaction inside one run,
and a run cut short by an early stop or a raising callback.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kernel_reference import KERNELS, ReferenceKernel

from repro.sim import SimKernel, SimulationError, Sleep
from repro.sim import kernel as kernel_mod

#: Deadline spread of the mixed workload, in simulated seconds.
SPAN = 1e-3


# ----------------------------------------------------------------------
# golden equality against the reference
# ----------------------------------------------------------------------
def _mixed_workload(make_kernel, seed=1234):
    """A seeded storm of near, far, same-deadline, and cancelled timers."""
    rng = random.Random(seed)
    kernel = make_kernel()
    log = []

    def note(tag):
        log.append((kernel.now, tag))

    cancelled = []
    for i in range(400):
        kind = rng.randrange(4)
        if kind == 0:
            kernel.schedule(rng.uniform(0, SPAN * 0.9), note, f"near{i}")
        elif kind == 1:
            kernel.schedule(SPAN * rng.uniform(2, 50), note, f"far{i}")
        elif kind == 2:
            # Same-deadline batch: one entry and its run.
            kernel.schedule(SPAN * 0.5, note, f"batch{i}")
        else:
            cancelled.append(kernel.schedule(SPAN * rng.uniform(0, 40), note, f"dead{i}"))
    for timer in cancelled:
        timer.cancel()

    def sleeper():
        for n in range(5):
            yield Sleep(SPAN * 7)
            note(f"sleep{n}")

    kernel.spawn(sleeper(), name="sleeper")
    kernel.run()
    return log


def test_cross_backend_golden_equality():
    """The same seeded workload fires the same trace on the kernel and
    on the reference."""
    kernel = _mixed_workload(SimKernel)
    reference = _mixed_workload(ReferenceKernel)
    assert kernel == reference
    assert len(kernel) > 250  # the workload actually fired things


@pytest.mark.parametrize("seed", [7, 99, 2024])
def test_cross_backend_equality_other_seeds(seed):
    assert _mixed_workload(SimKernel, seed) == _mixed_workload(ReferenceKernel, seed)


#: Delays for the random mix: zero, one absorbed by any ``now`` past
#: ~1e-14 (the deadline *is* now), and repeats that make deadlines meet.
DELAYS = [0.0, 1e-30, 1e-9, 0.25, 0.5, 1.0, 1.0 + 1e-12]

#: What a fired callback does next: 0 nothing, 1 a zero-delay post,
#: 2 raise, 3 schedule a timer.
BEHAVIOURS = st.integers(0, 3)

OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["post", "schedule", "schedule_at"]),
                  st.sampled_from(DELAYS), BEHAVIOURS),
        st.tuples(st.just("fan"), st.sampled_from(DELAYS), st.integers(2, 6)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("run_until"), st.sampled_from(DELAYS)),
        st.tuples(st.just("run_tasks"), st.lists(st.sampled_from(DELAYS), min_size=1, max_size=3)),
    ),
    max_size=40,
)


def _drive(make_kernel, ops):
    """Apply ``ops`` to a fresh kernel; log every fire, every surfaced
    exception and ``now`` after every operation."""
    kernel = make_kernel()
    log = []
    timers = []

    def note(label):
        log.append((kernel.now, label))

    def callback(label, behaviour):
        if behaviour == 0:
            return note, label  # the argument slot

        def fire():
            note(label)
            if behaviour == 1:
                kernel.post(0.0, note, label + "/0")
            elif behaviour == 2:
                raise RuntimeError(label)
            else:
                timers.append(kernel.schedule(0.5, note, label + "/s"))

        return (fire,)

    def sleeper(label, durations):
        for k, duration in enumerate(durations):
            yield Sleep(duration)
            note(f"{label}.{k}")

    for index, op in enumerate(ops):
        kind = op[0]
        label = f"e{index}"
        try:
            if kind == "post":
                kernel.post(op[1], *callback(label, op[2]))
            elif kind == "schedule":
                timers.append(kernel.schedule(op[1], *callback(label, op[2])))
            elif kind == "schedule_at":
                timers.append(kernel.schedule_at(kernel.now + op[1], *callback(label, op[2])))
            elif kind == "fan":
                for k in range(op[2]):
                    timers.append(kernel.schedule(op[1], note, f"{label}.{k}"))
            elif kind == "cancel":
                if timers:
                    timers[op[1] % len(timers)].cancel()
            elif kind == "compact":
                kernel._compact()  # must be invisible at any moment
            elif kind == "run_until":
                kernel.run(until=kernel.now + op[1])
            else:
                task = kernel.spawn(sleeper(label, op[1]), name=label)
                kernel.run(until_tasks=[task])
        except RuntimeError as err:
            log.append((kernel.now, f"raised:{err}"))
        log.append((kernel.now, "op"))
    for _ in range(len(ops) + 1):
        try:
            kernel.run()
            break
        except RuntimeError as err:
            log.append((kernel.now, f"raised:{err}"))
    assert kernel.queued() == 0
    return log


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, kernel_mod._COMPACT_MIN_CANCELLED]), OPS)
# A dropped entry must not be joined: all cancelled, then skipped by run()
# or swept by compaction, then an event lands on its deadline.
@example(64, [("schedule", 1.0, 0), ("cancel", 0), ("run_until", 0.5), ("post", 0.5, 0)])
@example(1, [("schedule", 1.0, 0), ("cancel", 0), ("post", 1.0, 0)])
def test_kernel_matches_reference_on_random_mix(compact_min, ops):
    """Same fires, same exceptions, same ``now`` after every call; a low
    compaction threshold makes sweeps happen mid-mix."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_mod, "_COMPACT_MIN_CANCELLED", compact_min)
        assert _drive(SimKernel, ops) == _drive(ReferenceKernel, ops)


# ----------------------------------------------------------------------
# runs and cancellation
# ----------------------------------------------------------------------
def test_cancelled_run_head_still_reaches_deadline():
    """The entry's head timer is cancelled but a later member of its run
    is live: the clock must still reach that deadline."""
    kernel = SimKernel()
    fired = []
    head = kernel.schedule(1.0, fired.append, "head")
    kernel.schedule(1.0, fired.append, "member")
    head.cancel()
    kernel.run(until=0.5)
    kernel.post(0.5, fired.append, "late")  # joins the same run
    kernel.run()
    assert fired == ["member", "late"]
    assert kernel.now == 1.0


def test_fully_cancelled_run_never_becomes_now():
    kernel = SimKernel()
    kernel.schedule(1.0, lambda: None)
    timers = [kernel.schedule(2.0, lambda: None) for _ in range(3)]
    for timer in timers:
        timer.cancel()
    kernel.run()
    assert kernel.now == 1.0
    assert kernel.queued() == 0
    # The dropped entry can no longer be joined: a new event at its
    # deadline opens a fresh one and fires.
    fired = []
    kernel.post(1.0, fired.append, "fresh")
    kernel.run()
    assert fired == ["fresh"] and kernel.now == 2.0


def test_mass_cancel_inside_one_run_compacts():
    """Thousands of timers on one deadline are one entry and its run;
    cancelling most of them sweeps the run, keeping the queue bounded
    and the survivors in order."""
    kernel = SimKernel()
    fired = []
    timers = [kernel.schedule(5.0, fired.append, i) for i in range(5_000)]
    assert kernel.queued() == 5_000
    survivors = list(range(0, 5_000, 500))
    for i, timer in enumerate(timers):
        if i % 500:
            timer.cancel()
    assert kernel.queued() < 2 * kernel_mod._COMPACT_MIN_CANCELLED + len(survivors)
    kernel.run()
    assert fired == survivors


def test_far_list_same_deadline_keeps_schedule_order():
    """Many timers on one far deadline fire in scheduling order."""
    kernel = SimKernel()
    fired = []
    for i in range(20):
        kernel.schedule_at(SPAN * 10, fired.append, i)
    kernel.run()
    assert fired == list(range(20))


def test_mass_cancel_in_far_list_compacts():
    """Cancelled far-future timers are swept by compaction."""
    kernel = SimKernel()
    timers = [kernel.schedule(SPAN * 100 + i * SPAN, lambda: None) for i in range(5_000)]
    assert kernel.queued() == 5_000
    for timer in timers:
        timer.cancel()
    assert kernel.queued() < 2 * kernel_mod._COMPACT_MIN_CANCELLED
    kernel.run()
    assert kernel.now == 0.0  # nothing ever fired


def test_early_stop_mid_run_resumes_in_order():
    """A stop inside a run requeues its unfired tail in place: the next
    ``run()`` continues exactly where this one stopped."""
    kernel = SimKernel()
    fired = []

    def quick():
        yield Sleep(1.0)

    task = kernel.spawn(quick())
    kernel.run(until=0.0)
    for i in range(5):
        kernel.post(1.0, fired.append, i)  # joins the task's wake-up
    kernel.run(until_tasks=[task])
    assert fired == []
    kernel.post(0.0, fired.append, "now")
    kernel.run()
    assert fired == [0, 1, 2, 3, 4, "now"]


# ----------------------------------------------------------------------
# zero-delay runaway
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_id", ["wheel", "heap"])
def test_zero_delay_post_runaway_raises(kernel_id):
    """``post`` (the no-handle fast path) hits the max_events guard on
    one deadline, exactly like ``schedule``."""
    kernel = KERNELS[kernel_id]()

    def reschedule():
        kernel.post(0.0, reschedule)

    kernel.post(0.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        kernel.run(max_events=1_000)


def test_cancel_after_fire_leaves_reused_slots_intact():
    """Cancelling timers that already fired must not disturb new timers
    on the same deadline, nor count toward compaction."""
    kernel = SimKernel()
    fired = []
    old = [kernel.schedule(0.0001, fired.append, f"old{i}") for i in range(5)]
    kernel.run()
    new = [kernel.schedule(0.0001, fired.append, f"new{i}") for i in range(5)]
    for timer in old:
        timer.cancel()  # fired already: must not touch the new entry
    kernel.run()
    assert fired == [f"old{i}" for i in range(5)] + [f"new{i}" for i in range(5)]
    assert not any(timer.cancelled for timer in new)
    assert kernel._cancelled_count == 0
