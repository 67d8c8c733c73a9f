"""Host-time benchmark of the ``repro`` simulator on four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpc_echo --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` (client
operations per host second, median over rounds), ``setup_s`` (host
seconds from spawning a fresh interpreter to the first operation, median
of several spawned probes) and ``peak_mem_mb`` (peak resident memory of
this process).  ``--trace 1`` reports the per-layer metrics instead: it
alternates untraced rounds with rounds run under the span recorder of
``spans.py`` and also runs the single-client echo check.

Every round builds fresh clusters and runs the same seeded inputs, and
each workload checks its outputs against its oracle.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of the first traced round are written
to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- this script measures the simulator's
# host time on purpose; no host-clock value enters simulated state.

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import meter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up probes per run (fresh interpreters); setup_s is their median.
SETUP_PROBES = 7
#: Rounds always run, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Spans of the first traced round kept for the Chrome trace file.
KEEP_SPANS = 50_000
#: Single-client echo check: marginal counts between two run lengths.
ECHO1_SHORT, ECHO1_LONG = 50, 150


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", choices=("ready", "digest"),
        help="internal: set up, print 'ready' (and the first round's digest), exit",
    )
    return parser.parse_args(argv)


def _peak_mem_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_round(workload, reading: float):
    """Fresh set-up (untimed), then one timed round; ``reading`` is the
    latest meter reading."""
    gc.collect()
    workload.setup()
    watch = meter.Stopwatch(reading)
    result = workload.run(watch.split)
    watch.split()
    return result, watch


class Tally:
    """Attempted/failed operations, oracle results and digests of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}
        self.digests: list = []
        self.errors: list = []
        #: Outcome counts of the latest round, for the report.
        self.counts: dict = {}

    def add(self, result) -> None:
        self.attempted += result.ops
        self.failed += result.failed
        self.digests.append(result.digest)
        self.counts = result.counts
        for name, ok in result.checks.items():
            self.checks[name] = self.checks.get(name, True) and ok

    def add_error(self, ops: int, err: BaseException) -> None:
        self.attempted += ops
        self.failed += ops
        self.errors.append(f"{type(err).__name__}: {err}")

    def correct(self, reference: str | None) -> bool:
        same = len(set(self.digests)) == 1 and reference in (None, self.digests[0])
        self.checks["digest_repeats"] = same
        return not self.errors and self.failed == 0 and all(self.checks.values())


def _guarded_round(workload, tally: Tally, planned_ops: int, reading: float):
    try:
        result, watch = _timed_round(workload, reading)
    except Exception as err:  # noqa: BLE001 - a raising round fails all its ops
        tally.add_error(planned_ops, err)
        return None, None
    tally.add(result)
    return result, watch


def _until_ready(cmd: list) -> tuple[float, str]:
    """Spawn ``cmd`` and time it until its first line, which must read
    'ready'; return that time and the rest of its output."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=os.getcwd())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1]} exited {code}: {line!r}")
    return elapsed, rest.strip()


def _setup_probe(args, digest: bool) -> tuple[float, float, str]:
    """Time a fresh interpreter that sets up the workload, between two
    spawns of the set-up meter.  With ``digest`` the probe also runs one
    round and reports that round's digest, which this process must
    reproduce.  Returns the probe's time, the meter's mean time and the
    digest."""
    reference = [sys.executable, "-c", meter.SPAWN_CODE]
    before, _ = _until_ready(reference)
    elapsed, rest = _until_ready([
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--probe", "digest" if digest else "ready",
    ])
    after, _ = _until_ready(reference)
    return elapsed, (before + after) / 2, rest


def _probe(workloads, args) -> int:
    workload = workloads[args.workload](args.seed)
    workload.setup()
    print("ready", flush=True)
    if args.probe == "digest":
        print(workload.run().digest, flush=True)
    return 0


def _untraced(workloads, args) -> tuple[bool, Tally, dict]:
    """Rounds until ``--seconds`` have passed, with the set-up probes
    spread evenly over that window so that both metrics sample the same
    stretch of machine time.  Both are normalized by meters read next to
    them (see ``meter.py``)."""
    workload = workloads[args.workload](args.seed)
    tally = Tally()
    raw_rates, rates, raw_probes, probes = [], [], [], []
    reference = None
    planned = 1  # until a round completes
    speed = meter.speed()

    def probe() -> None:
        nonlocal speed, reference
        try:
            elapsed, spawn, digest = _setup_probe(args, digest=reference is None)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
            tally.add_error(planned, err)
            elapsed, spawn, digest = float("nan"), meter.SPAWN_NOMINAL_S, ""
        raw_probes.append(elapsed)
        probes.append(elapsed * meter.SPAWN_NOMINAL_S / spawn)
        speed = meter.speed()
        reference = reference or digest

    start = time.perf_counter()
    deadline = start + args.seconds
    while len(rates) < MIN_ROUNDS or time.perf_counter() < deadline:
        due = SETUP_PROBES * (time.perf_counter() - start) / args.seconds
        if len(probes) < min(SETUP_PROBES, due):
            probe()
            continue
        result, watch = _guarded_round(workload, tally, planned, speed)
        if result is None:
            break
        planned = result.ops
        raw_rates.append(result.ops / watch.raw)
        rates.append(result.ops / watch.normalized)
        speed = watch.reading
    while len(probes) < SETUP_PROBES:
        probe()
    correct = tally.correct(reference) if rates else False
    metrics = {
        "ops_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_mem_mb": (_peak_mem_mb(), "MB"),
    }
    print(
        f"{args.workload}: {len(rates)} rounds; raw ops/s quartiles {_quartiles(raw_rates)}, "
        f"normalized {_quartiles(rates)}; set-up probes raw {_quartiles(raw_probes)}, "
        f"normalized {_quartiles(probes)}"
    )
    return correct, tally, metrics


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [round(v, 4) for v in values]
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _echo1_check(spans) -> tuple[float, float]:
    """Kernel events and xstream slices per RPC of one client sending
    sequential echo RPCs (observability off), as the marginal count
    between two run lengths so fixed per-run costs cancel out."""
    from repro import Cluster
    from repro.margo import Compute

    def handler(ctx):
        yield Compute(1e-6)
        return ctx.args

    counts = []
    for n in (ECHO1_SHORT, ECHO1_LONG):
        rec = spans.Recorder()
        rec.install()
        try:
            off = {"observability": {"tracing": False, "metrics": False}}
            cluster = Cluster(seed=7)
            server = cluster.add_margo("server", node="n0", config=dict(off))
            client = cluster.add_margo("client", node="n1", config=dict(off))
            server.register("echo", handler)
            rec.reset()
            slices0 = spans.xstream_slices(rec.xstreams)

            def sequential(n=n):
                for i in range(n):
                    yield from client.forward(server.address, "echo", i)

            cluster.run_ult(client, sequential())
            events = sum(rec.calls(f"sim.kernel.{a}") for a in ("post", "schedule", "schedule_at"))
            counts.append((events, spans.xstream_slices(rec.xstreams) - slices0))
        finally:
            rec.uninstall()
    span = ECHO1_LONG - ECHO1_SHORT
    return (
        (counts[1][0] - counts[0][0]) / span,
        (counts[1][1] - counts[0][1]) / span,
    )


def _traced_round(spans, workload, rec, untraced_wall):
    """Fresh set-up and one round, both under the recorder; counters
    cover the round only.  Self times are net of the recorder's cost,
    scaled to the slowdown against ``untraced_wall`` of the same round."""
    gc.collect()
    rec.install()
    try:
        workload.setup()
        rec.reset()
        slices0 = spans.xstream_slices(rec.xstreams)
        net0 = spans.network_totals(workload.clusters)
        started = time.perf_counter()
        result = workload.run()
        wall = time.perf_counter() - started
    finally:
        rec.uninstall()
    messages, nbytes = (
        a - b for a, b in zip(spans.network_totals(workload.clusters), net0)
    )
    structure = {
        "events": sum(rec.calls(f"sim.kernel.{a}") for a in ("post", "schedule", "schedule_at")),
        "timers": rec.calls("sim.kernel.schedule") + rec.calls("sim.kernel.schedule_at"),
        "cancelled": rec.counts.get("sim.timers.cancelled", 0),
        "slices": spans.xstream_slices(rec.xstreams) - slices0,
        "pushes": rec.counts.get("margo.pool.pushes", 0),
        "messages": messages,
        "bytes": nbytes,
        "rpcs": rec.counts.get("margo.forward.calls", 0),
        "bulk": rec.counts.get("margo.bulk.calls", 0),
        "estimate_size": rec.calls("mercury.estimate_size"),
        "backend": rec.calls("yokan.backend"),
        "reconfig": rec.counts.get("bedrock.reconfig.calls", 0),
        "hooks": sum(rec.calls(name) for name in spans.OBSERVERS),
        "timeouts": rec.counts.get("margo.rpc.timeouts", 0),
        "errors": rec.counts.get("margo.rpc.errors", 0),
        "monitor_errors": sum(m.monitor_errors for m in workload.margos()),
        "open_spans": sum(
            m.tracer.open_span_count for m in workload.margos() if m.tracer is not None
        ),
        "reshard_records": rec.counts.get("hepnos.reshard.records", 0),
        "profile_seen": rec.counts.get("observability.profile.seen", 0),
        "profile_sampled": rec.counts.get("observability.profile.sampled", 0),
    }
    scale = rec.overhead_scale(wall * 1e9, untraced_wall * 1e9)

    def self_us(*names):
        return rec.self_ns(*names, scale=scale) / 1e3

    us = {
        "kernel": self_us(*spans.KERNEL_SPANS),
        "network": self_us("sim.network"),
        "forward": self_us("margo.forward"),
        "xstream": self_us("margo.xstream"),
        "ult": self_us("margo.ult"),
        "bulk": self_us("margo.bulk"),
        "estimate_size": self_us("mercury.estimate_size"),
        "backend": self_us("yokan.backend"),
        "reconfig": self_us("bedrock.reconfig"),
        "yokan_client": self_us("yokan.client"),
        "yokan_provider": self_us("yokan.provider"),
        "hepnos_client": self_us("hepnos.client"),
        **{name: self_us(name) for name in spans.OBSERVERS},
        "all": self_us(*list(rec.stats)),
        "scale": scale,
    }
    return result, wall, structure, us


def _per_op(n, d):
    return n / d if d else 0.0


def _traced(workloads, args) -> tuple[bool, Tally, dict]:
    import spans

    workload = workloads[args.workload](args.seed)
    tally = Tally()
    plain_rates, traced_rates, host, deploys, us_rounds, walls = [], [], [], [], [], []
    structure = None
    structure_repeats = True
    rec = spans.Recorder(keep_spans=KEEP_SPANS)
    rec.calibrate()
    planned = 1  # until a round completes
    deadline = time.perf_counter() + args.seconds
    while len(traced_rates) < 1 or time.perf_counter() < deadline:
        result, watch = _guarded_round(workload, tally, planned, meter.speed())
        if result is None:
            break
        wall = watch.raw
        planned = result.ops
        plain_rates.append(result.ops / wall)
        walls.append(wall)
        host.append(result.host_s)
        deploys.append(workload.deploy_host_s)
        try:
            result, wall, counts, us = _traced_round(spans, workload, rec, wall)
        except Exception as err:  # noqa: BLE001 - a raising round fails all its ops
            tally.add_error(planned, err)
            break
        tally.add(result)
        if structure is None:
            structure = counts
            rec.write_chrome_trace(
                os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
            )
            rec.keep_spans = 0
        structure_repeats = structure_repeats and counts == structure
        traced_rates.append(result.ops / wall)
        us_rounds.append(us)
    tally.checks["structure_repeats"] = structure_repeats
    correct = tally.correct(None) if traced_rates else False
    events_per_rpc, slices_per_rpc = _echo1_check(spans)

    s = structure or {}
    ops = planned or 1
    us = {k: statistics.median(r[k] for r in us_rounds) for k in (us_rounds[0] if us_rounds else {})}

    def host_median(step):
        return statistics.median(h.get(step, 0.0) for h in host) if host else 0.0

    plain = statistics.median(plain_rates) if plain_rates else 0.0
    traced = statistics.median(traced_rates) if traced_rates else 0.0
    rpcs = s.get("rpcs", 0)
    metrics = {
        "sim.events_per_op": (_per_op(s.get("events", 0), ops), "count"),
        "sim.kernel.self_us_per_event": (_per_op(us.get("kernel", 0), s.get("events", 0)), "us"),
        "sim.timers_cancelled_ratio": (_per_op(s.get("cancelled", 0), s.get("timers", 0)), "ratio"),
        "sim.network.messages_per_op": (_per_op(s.get("messages", 0), ops), "count"),
        "sim.network.bytes_per_op": (_per_op(s.get("bytes", 0), ops), "B"),
        "sim.network.self_us_per_message": (_per_op(us.get("network", 0), s.get("messages", 0)), "us"),
        "sim.echo1.events_per_rpc": (events_per_rpc, "count"),
        "margo.echo1.slices_per_rpc": (slices_per_rpc, "count"),
        "margo.slices_per_op": (_per_op(s.get("slices", 0), ops), "count"),
        "margo.pool.pushes_per_op": (_per_op(s.get("pushes", 0), ops), "count"),
        "margo.xstream.self_us_per_slice": (_per_op(us.get("xstream", 0), s.get("slices", 0)), "us"),
        "margo.ult.self_us_per_op": (_per_op(us.get("ult", 0), ops), "us"),
        "margo.forward.self_us_per_rpc": (_per_op(us.get("forward", 0), rpcs), "us"),
        "margo.bulk.transfers_per_op": (_per_op(s.get("bulk", 0), ops), "count"),
        "margo.bulk.self_us_per_transfer": (_per_op(us.get("bulk", 0), s.get("bulk", 0)), "us"),
        "margo.rpc.timeouts": (s.get("timeouts", 0), "count"),
        "margo.rpc.errors": (s.get("errors", 0), "count"),
        "margo.monitor_errors": (s.get("monitor_errors", 0), "count"),
        "mercury.estimate_size.calls_per_op": (_per_op(s.get("estimate_size", 0), ops), "count"),
        "mercury.estimate_size.self_us_per_op": (_per_op(us.get("estimate_size", 0), ops), "us"),
        "yokan.backend.calls_per_op": (_per_op(s.get("backend", 0), ops), "count"),
        "yokan.backend.self_us_per_op": (_per_op(us.get("backend", 0), ops), "us"),
        "yokan.client.self_us_per_op": (_per_op(us.get("yokan_client", 0), ops), "us"),
        "yokan.provider.self_us_per_op": (_per_op(us.get("yokan_provider", 0), ops), "us"),
        "hepnos.client.self_us_per_op": (_per_op(us.get("hepnos_client", 0), ops), "us"),
        "hepnos.ingest.host_s": (host_median("ingest"), "s"),
        "hepnos.filter.host_s": (host_median("filter"), "s"),
        "hepnos.analysis.host_s": (host_median("analysis"), "s"),
        "hepnos.reshard.host_s": (host_median("reshard"), "s"),
        "hepnos.reshard.records": (s.get("reshard_records", 0), "count"),
        "bedrock.deploy.host_s": (statistics.median(deploys) if deploys else 0.0, "s"),
        "bedrock.reconfig.calls": (s.get("reconfig", 0), "count"),
        "bedrock.reconfig.self_us_per_call": (_per_op(us.get("reconfig", 0), s.get("reconfig", 0)), "us"),
        "observability.hook_calls_per_rpc": (_per_op(s.get("hooks", 0), rpcs), "count"),
        "observability.tracer.self_us_per_rpc": (_per_op(us.get("observability.tracer", 0), rpcs), "us"),
        "observability.profile.self_us_per_rpc": (_per_op(us.get("observability.profile", 0), rpcs), "us"),
        "observability.xray.self_us_per_rpc": (_per_op(us.get("observability.xray", 0), rpcs), "us"),
        "monitoring.stats.self_us_per_rpc": (_per_op(us.get("monitoring.stats", 0), rpcs), "us"),
        "observability.open_spans_after_run": (s.get("open_spans", 0), "count"),
        "observability.profile.sampled_ratio": (
            _per_op(s.get("profile_sampled", 0), s.get("profile_seen", 0)), "ratio"),
        "trace.overhead_ratio": (_per_op(traced, plain), "ratio"),
        "trace.ops_per_s": (traced, "1/s"),
        "trace.untraced_ops_per_s": (plain, "1/s"),
    }
    covered = us.get("all", 0.0) / 1e6 / statistics.median(walls) if walls else 0.0
    print(
        f"{args.workload} traced: {len(traced_rates)} traced rounds, ops/round {planned}, "
        f"span cost (inner, outer) ns {rec.overhead_ns} x {us.get('scale', 0):.2f}, corrected self times sum "
        f"to {covered:.2f}x the untraced round; structure {json.dumps(s, sort_keys=True)}"
    )
    return correct, tally, metrics


def main(argv) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.probe:
        return _probe(WORKLOADS, args)
    run = _traced if args.trace else _untraced
    correct, tally, metrics = run(WORKLOADS, args)
    print(
        f"oracles {json.dumps(tally.checks, sort_keys=True)}; outcomes "
        f"{json.dumps(tally.counts, sort_keys=True)}; digest "
        f"{tally.digests[0] if tally.digests else None}; errors {tally.errors}"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
