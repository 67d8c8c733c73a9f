"""A fixed pure-Python workload that reads the machine's current speed.

The host this benchmark was written on (2 shared vCPUs) drifts between
speed phases that last from seconds to minutes: the same simulator round
ran anywhere from 8.3k to 15k operations per second within four minutes.
No run length averages that out.  ``speed()`` times a fixed piece of
interpreter work that imports nothing from ``repro`` -- allocation,
attribute updates and indexing over a 50k-object working set, the kind
of work the simulator does -- so a change to the program under test
never moves it.  Scaling a round's host time by the meter's readings
around it (:class:`Stopwatch`) removes most of the machine's phase and
keeps the program's own speed: a change to the program moves the
normalized time by exactly its own factor.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- the meter reads the host clock on
# purpose; it never runs under the simulation kernel.

import gc
import time

#: Meter rate (runs per second) that normalized rates are scaled to:
#: about the meter's median rate on a 2-vCPU x86-64 VM under Python 3.11.
NOMINAL_HZ = 25.0
#: How strongly the simulator's rate follows the meter's across machine
#: phases.  On that VM a least-squares fit of log(round rate) on
#: log(meter rate) over 500 interleaved rpc_echo rounds gave 0.65 (biased
#: low by the noise of single readings), and per-run medians of rpc_echo,
#: kv_mixed and hepnos_e12 over two batches of seeds were steadiest
#: between 0.6 and 0.8.
ELASTICITY = 0.7

#: Set-up probes are read against a second meter: a fresh interpreter
#: that imports a fixed set of standard-library modules -- process start
#: and imports, the bulk of a probe, with nothing from ``repro``.  A
#: probe's time tracks this one's in proportion (a log-log fit over 100
#: interleaved pairs on that VM gave a slope of 0.94), so probes are
#: scaled by it directly; it takes about SPAWN_NOMINAL_S there.
SPAWN_CODE = (
    "import argparse, asyncio, dataclasses, decimal, email.parser, "
    "http.client, json, statistics, xml.dom.minidom; print('ready', flush=True)"
)
SPAWN_NOMINAL_S = 0.11

_LIVE = 50_000
_STEPS = 30_000


class _Obj:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = None
        self.c = 0


def _work() -> int:
    objs = [_Obj(i) for i in range(_LIVE)]
    acc = 0
    for i in range(_STEPS):
        obj = objs[(i * 7919) % _LIVE]
        obj.c += 1
        acc += obj.a
        objs[(i * 104729) % _LIVE] = _Obj(i)
    return acc


def speed() -> float:
    """Runs of the fixed meter work per host second, right now.  The
    collector is paused so the reading does not depend on how many
    objects the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return 1.0 / (time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()



class Stopwatch:
    """Times one round in segments and reads the meter between them, off
    the clock.  ``raw`` is the round's host time; ``normalized`` is that
    time at the nominal machine speed, each segment scaled by the mean of
    the two meter readings around it."""

    def __init__(self, reading: float) -> None:
        self.reading = reading
        self.raw = 0.0
        self.normalized = 0.0
        self._started = time.perf_counter()

    def split(self) -> None:
        wall = time.perf_counter() - self._started
        after = speed()
        self.raw += wall
        self.normalized += wall * ((self.reading + after) / 2 / NOMINAL_HZ) ** ELASTICITY
        self.reading = after
        self._started = time.perf_counter()
