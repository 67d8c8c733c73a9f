"""The benchmark's four workloads, each with its own oracle.

A workload is built from ``--seed`` alone: ``__init__`` draws every input
(payloads, key streams, product bytes) from ``random.Random(seed)``, and
the simulated program only ever sees those inputs.  One *round* is
``setup()`` (fresh clusters, untimed apart from the set-up probes) then
``run()`` (the timed client operations).  Every round of a process runs
the same inputs on fresh clusters, so every round must produce the same
digest of simulated results, and so must every other process given the
same seed.

All clients are closed loop: a client ULT sends its next request only
after the reply to the previous one arrived.

Host time is read here only around whole steps (``time.perf_counter``);
it never feeds back into the simulation.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- the benchmark times the simulator on
# the host clock on purpose; no host-clock value enters simulated state.

import hashlib
import random
import time
from dataclasses import dataclass, field

from repro import Cluster
from repro.hepnos import HEPnOSService, WorkflowStep
from repro.hepnos import workflow
from repro.hepnos.datamodel import EventKey
from repro.margo import Compute, RpcError, RpcTimeoutError, UltSleep
from repro.monitoring import StatisticsMonitor
from repro.yokan import YokanClient, YokanProvider

OBS_OFF = {"tracing": False, "metrics": False}
#: rpc_observed turns every observer on, with the profiler decomposing
#: every 16th request (the adaptive-sampling setting of the repo's docs).
OBS_ALL = {
    "tracing": True,
    "metrics": True,
    "profiling": True,
    "profile_sample_every": 16,
    "xray": True,
}


def _server_config(obs: dict) -> dict:
    """One server whose RPC pool is served by two xstreams; the progress
    loop keeps its own primary xstream."""
    return {
        "argobots": {
            "pools": [{"name": "__primary__"}, {"name": "rpc"}],
            "xstreams": [
                {"name": "__primary__", "scheduler": {"pools": ["__primary__"]}},
                {"name": "rpc0", "scheduler": {"pools": ["rpc"]}},
                {"name": "rpc1", "scheduler": {"pools": ["rpc"]}},
            ],
        },
        "progress_pool": "__primary__",
        "rpc_pool": "rpc",
        "observability": dict(obs),
    }


def _digest(items: list) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


@dataclass
class RoundResult:
    """What one timed round did and whether it matched the oracle."""

    ops: int
    failed: int
    digest: str
    #: oracle name -> passed, for the report.
    checks: dict = field(default_factory=dict)
    #: Host seconds the benchmark timed around named steps of the round.
    host_s: dict = field(default_factory=dict)
    #: Exact outcome counts worth printing (e.g. scripted timeouts).
    counts: dict = field(default_factory=dict)


class Workload:
    """Interface: ``setup()`` builds fresh clusters, ``run()`` drives them."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.clusters: list = []
        #: Host seconds spent deploying services in the last ``setup()``.
        self.deploy_host_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, split=None) -> RoundResult:
        """Drive the clusters.  A round made of independent segments calls
        ``split()`` between them, where the caller may read its
        machine-speed meter off the clock."""
        raise NotImplementedError

    def margos(self) -> list:
        return [m for c in self.clusters for _, m in sorted(c.margos.items())]


# ----------------------------------------------------------------------
# rpc_echo / rpc_observed
# ----------------------------------------------------------------------
CLIENT_PROCS = 2
ULTS_PER_PROC = 4
PAYLOAD_BYTES = 64
#: Requests per client ULT per round (8 ULTs): ~0.3 s of host time.
ECHO_RPCS = 400
OBSERVED_RPCS = 250
#: Every SLOW_EVERY-th request of a client goes to the slow handler, which
#: sleeps SLOW_S of simulated time against a TIMEOUT_S client timeout.
SLOW_EVERY = 50
TIMEOUT_S = 1e-3
SLOW_S = 2e-3


def _echo(ctx):
    yield Compute(1e-6)
    return ctx.args


def _slow(ctx):
    yield UltSleep(SLOW_S)
    return ctx.args


def _listing1_num(monitor: StatisticsMonitor, rpc: str, side: str, phase: str) -> int:
    """Sum a Listing-1 phase's ``num`` over every context key and peer."""
    total = 0
    for record in monitor.find_by_name(rpc):
        for phases in record[side].values():
            stats = phases
            for part in phase.split("."):
                stats = stats.get(part, {})
            total += stats.get("num", 0)
    return total


class EchoWorkload(Workload):
    """8 closed-loop client ULTs (4 on each of 2 client processes) send
    64-byte echo RPCs to one server.  With ``observed`` every observer is
    on, each client process carries a Listing-1 ``StatisticsMonitor``, and
    every 50th request goes to a slow handler and must time out."""

    def __init__(self, seed: int, observed: bool) -> None:
        super().__init__(seed)
        self.observed = observed
        self.name = "rpc_observed" if observed else "rpc_echo"
        rng = random.Random(seed)
        per_ult = OBSERVED_RPCS if observed else ECHO_RPCS
        self.payloads = [
            [rng.randbytes(PAYLOAD_BYTES) for _ in range(per_ult)]
            for _ in range(CLIENT_PROCS * ULTS_PER_PROC)
        ]

    def _is_slow(self, i: int) -> bool:
        return self.observed and i % SLOW_EVERY == SLOW_EVERY - 1

    def setup(self) -> None:
        obs = OBS_ALL if self.observed else OBS_OFF
        cluster = Cluster(seed=self.seed)

        #: margo name -> its Listing-1 monitor (rpc_observed only).
        self.stats = {}

        def monitors(name):
            if not self.observed:
                return ()
            self.stats[name] = StatisticsMonitor()
            return (self.stats[name],)

        self.server = cluster.add_margo(
            "server", node="n0", config=_server_config(obs), monitors=monitors("server")
        )
        self.server.register("echo", _echo)
        if self.observed:
            self.server.register("slow", _slow)
        self.client_margos = [
            cluster.add_margo(
                f"client{p}", node=f"n{p + 1}", config={"observability": dict(obs)},
                monitors=monitors(f"client{p}"),
            )
            for p in range(CLIENT_PROCS)
        ]
        self.clusters = [cluster]

    def _client_loop(self, margo, payloads):
        address = self.server.address
        outcomes = []
        for i, payload in enumerate(payloads):
            try:
                if self._is_slow(i):
                    yield from margo.forward(address, "slow", payload, timeout=TIMEOUT_S)
                    outcome = "late"
                else:
                    reply = yield from margo.forward(address, "echo", payload)
                    outcome = "ok" if reply == payload else "mismatch"
            except RpcTimeoutError:
                outcome = "timeout"
            except RpcError as err:
                outcome = f"error:{type(err).__name__}"
            outcomes.append((outcome, margo.kernel.now))
        return outcomes

    def run(self, split=None) -> RoundResult:
        cluster = self.clusters[0]
        ults = [
            cluster.spawn(
                self.client_margos[k // ULTS_PER_PROC],
                self._client_loop(self.client_margos[k // ULTS_PER_PROC], payloads),
                name=f"client-ult{k}",
            )
            for k, payloads in enumerate(self.payloads)
        ]
        logs = cluster.wait_ults(ults)
        expected = ["timeout" if self._is_slow(i) else "ok" for i in range(len(self.payloads[0]))]
        failed = sum(
            outcome != expected[i] for log in logs for i, (outcome, _) in enumerate(log)
        )
        ops = sum(len(log) for log in logs)
        timeouts = sum(outcome == "timeout" for log in logs for outcome, _ in log)
        result = RoundResult(
            ops=ops,
            failed=failed,
            digest=_digest([cluster.now, logs]),
            checks={"replies_match_oracle": failed == 0},
            counts={"scripted_timeouts": timeouts},
        )
        if self.observed:
            result.failed += self._check_listing1(cluster, logs)
            result.checks["listing1_counts"] = result.failed == failed
        return result

    def _check_listing1(self, cluster, logs) -> int:
        """Listing-1 counts must match the calls made; returns the number
        of calls the statistics miscount."""
        # Let the last slow handlers finish so server-side counts settle.
        cluster.run(until=cluster.now + 2 * SLOW_S)
        miscounted = 0
        sent_echo = sent_slow = 0
        for p in range(CLIENT_PROCS):
            mine = [log for k, log in enumerate(logs) if k // ULTS_PER_PROC == p]
            echo = sum(o == "ok" for log in mine for o, _ in log)
            slow = sum(o == "timeout" for log in mine for o, _ in log)
            sent_echo += echo
            sent_slow += slow
            stats = self.stats[f"client{p}"]
            miscounted += abs(_listing1_num(stats, "echo", "origin", "forward") - echo)
            miscounted += abs(_listing1_num(stats, "slow", "origin", "serialize") - slow)
            # A timed-out call never receives its response.
            miscounted += _listing1_num(stats, "slow", "origin", "forward")
        stats = self.stats["server"]
        miscounted += abs(_listing1_num(stats, "echo", "target", "received") - sent_echo)
        miscounted += abs(_listing1_num(stats, "slow", "target", "received") - sent_slow)
        miscounted += abs(
            _listing1_num(stats, "slow", "target", "ult.duration") - sent_slow
        )
        return miscounted


# ----------------------------------------------------------------------
# kv_mixed
# ----------------------------------------------------------------------
KV_KEYS = 4096
KV_CLIENT_PROCS = 2
KV_ULTS_PER_PROC = 2
KV_OPS = 500
KV_VALUE_BYTES = 1024
MULTI_PAIRS = 16
#: put_multi values stay small so a 16-pair batch (~4.4 KiB) travels
#: inline, below Yokan's 8 KiB bulk threshold, like the single ops.
MULTI_VALUE_BYTES = 256
PREFILL_BATCH = 64
#: Zipf exponent of the per-client key popularity.
KV_SKEW = 1.0


def _key(i: int) -> bytes:
    return b"kv-%05d" % i


class KVWorkload(Workload):
    """4 closed-loop clients (2 ULTs on each of 2 client processes) run
    65% ``get``, 30% ``put`` of 1 KiB values and 5% ``put_multi`` of 16
    pairs against one Yokan provider holding a prefilled 4096-key space.

    Each client draws Zipf-skewed keys from its own quarter of the key
    space, so a closed-loop client is the only writer of its keys and a
    plain dict model predicts every ``get`` exactly.
    """

    name = "kv_mixed"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.prefill = {_key(i): rng.randbytes(KV_VALUE_BYTES) for i in range(KV_KEYS)}
        clients = KV_CLIENT_PROCS * KV_ULTS_PER_PROC
        self.scripts = []
        for c in range(clients):
            mine = [_key(i) for i in range(c, KV_KEYS, clients)]
            rng.shuffle(mine)  # popularity rank -> key
            weights, total = [], 0.0
            for rank in range(len(mine)):
                total += 1.0 / (rank + 1) ** KV_SKEW
                weights.append(total)
            script = []
            for _ in range(KV_OPS):
                draw = rng.random()
                if draw < 0.65:
                    script.append(("get", rng.choices(mine, cum_weights=weights)[0]))
                elif draw < 0.95:
                    key = rng.choices(mine, cum_weights=weights)[0]
                    script.append(("put", key, rng.randbytes(KV_VALUE_BYTES)))
                else:
                    keys: dict = {}
                    while len(keys) < MULTI_PAIRS:
                        key = rng.choices(mine, cum_weights=weights)[0]
                        keys[key] = rng.randbytes(MULTI_VALUE_BYTES)
                    script.append(("put_multi", list(keys.items())))
            self.scripts.append(script)

    def setup(self) -> None:
        cluster = Cluster(seed=self.seed)
        server = cluster.add_margo("server", node="n0", config=_server_config(OBS_OFF))
        YokanProvider(server, "db", provider_id=1)
        self.handles = []
        for p in range(KV_CLIENT_PROCS):
            margo = cluster.add_margo(
                f"client{p}", node=f"n{p + 1}", config={"observability": dict(OBS_OFF)}
            )
            handle = YokanClient(margo).make_handle(server.address, 1)
            self.handles.extend([(margo, handle)] * KV_ULTS_PER_PROC)
        self.clusters = [cluster]
        items = sorted(self.prefill.items())

        def prefill():
            for start in range(0, len(items), PREFILL_BATCH):
                yield from self.handles[0][1].put_multi(items[start:start + PREFILL_BATCH])

        cluster.run_ult(self.handles[0][0], prefill())

    def _client_loop(self, handle, script, model):
        outcomes = []
        kernel = handle.client.margo.kernel
        for op in script:
            try:
                if op[0] == "get":
                    value = yield from handle.get(op[1])
                    outcome = "ok" if value == model[op[1]] else "stale"
                elif op[0] == "put":
                    yield from handle.put(op[1], op[2])
                    model[op[1]] = op[2]
                    outcome = "ok"
                else:
                    yield from handle.put_multi(op[1])
                    model.update(op[1])
                    outcome = "ok"
            except RpcError as err:
                outcome = f"error:{type(err).__name__}"
            outcomes.append((outcome, kernel.now))
        return outcomes

    def run(self, split=None) -> RoundResult:
        cluster = self.clusters[0]
        model = dict(self.prefill)
        ults = [
            cluster.spawn(margo, self._client_loop(handle, script, model), name=f"kv-client{c}")
            for c, ((margo, handle), script) in enumerate(zip(self.handles, self.scripts))
        ]
        logs = cluster.wait_ults(ults)
        failed = sum(o != "ok" for log in logs for o, _ in log)
        return RoundResult(
            ops=sum(len(log) for log in logs),
            failed=failed,
            digest=_digest([cluster.now, logs]),
            checks={"gets_match_model": failed == 0},
        )


# ----------------------------------------------------------------------
# hepnos_e12
# ----------------------------------------------------------------------
#: E12's parameters (paper section 1, dynamic vs static HEPnOS) at scale 1.
HEP_NODES = ["n0", "n1", "n2", "n3"]
INJECTORS = 4
PREFERRED = {"ingest": 4, "filter": 4, "analysis": 1}
#: (label, dynamic, databases per process at deploy)
HEP_CONFIGS = [
    ("static-1", False, 1),
    ("static-2", False, 2),
    ("static-4", False, 4),
    ("dynamic", True, PREFERRED["ingest"]),
]
INGEST_EVENTS = 160
RAW_BYTES = 64 * 1024
FILTER_EVENTS = 60
FILTERED_BYTES = 1024
VERIFY_RAW = 8
VERIFY_FILTERED = 16


def _workflow_steps() -> list:
    return [
        WorkflowStep("ingest", "ingest", INGEST_EVENTS, RAW_BYTES),
        WorkflowStep("filter", "filter", FILTER_EVENTS, FILTERED_BYTES),
        WorkflowStep("analysis", "analysis", 16, 256, num_scans=150, reads_per_scan=8),
    ]


class HEPnOSWorkload(Workload):
    """E12's NOvA-like workflow over ``HEPnOSService`` on 4 server nodes
    with 4 injectors: 64 KiB ingest (bulk RDMA), filter, compaction and
    ordered-scan analysis, once per static sharding (1, 2 and 4 databases
    per process) and once dynamic, resharding online through Bedrock
    ``add_pool``/``add_xstream``/``start_provider``/``stop_provider``.

    Oracles: sampled raw products and filtered products load back equal
    to what was stored, and E12's claim shape holds: dynamic beats the
    worst static by 10% and stays within 10% of the best.
    """

    name = "hepnos_e12"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.injector_seeds = [rng.getrandbits(32) for _ in range(INJECTORS)]
        # run_step draws 8 bytes per event from its rng and repeats them
        # over the product; replay that to know every stored raw product.
        share = INGEST_EVENTS // INJECTORS
        self.raw_patterns = []
        for s in self.injector_seeds:
            inj = random.Random(s)
            self.raw_patterns.append(
                [bytes(inj.randrange(256) for _ in range(8)) for _ in range(share)]
            )
        self.raw_checks = [
            (rng.randrange(INJECTORS), rng.randrange(share)) for _ in range(VERIFY_RAW)
        ]
        # The filter step reads run 0, which injector 0 ingested (``share``
        # events of the FILTER_EVENTS it visits exist).
        self.filtered_checks = rng.sample(range(min(FILTER_EVENTS, share)), VERIFY_FILTERED)

    def setup(self) -> None:
        self.deployments = []
        self.deploy_host_s = 0.0
        for label, dynamic, dbs in HEP_CONFIGS:
            cluster = Cluster(seed=self.seed)
            started = time.perf_counter()
            service = HEPnOSService.deploy(cluster, HEP_NODES, databases_per_process=dbs)
            self.deploy_host_s += time.perf_counter() - started
            apps = [cluster.add_margo(f"app{i}", node=f"napp{i}") for i in range(INJECTORS)]
            self.deployments.append((label, dynamic, cluster, service, apps))
        self.clusters = [d[2] for d in self.deployments]

    def _raw(self, injector: int, event: int) -> bytes:
        return self.raw_patterns[injector][event] * (RAW_BYTES // 8)

    def _verify(self, cluster, app, client, keys_expected) -> int:
        def load_all():
            bad = 0
            for key, product, expected in keys_expected:
                value = yield from client.load_event(key, product)
                bad += value != expected
            return bad

        return cluster.run_ult(app, load_all())

    def _workflow(self, label, dynamic, cluster, service, apps, host):
        clients = [service.client(app) for app in apps]
        durations = {}
        reshard_sim = 0.0
        ops = 0
        bad = 0
        for step in _workflow_steps():
            if step.kind == "analysis":
                def compact():
                    count = yield from clients[0].drop_product("nova", "raw")
                    return count

                cluster.run_ult(apps[0], compact())
                ops += 1
            if dynamic:
                want = PREFERRED[step.kind]
                if want != len(service.shards) // len(HEP_NODES):
                    before = cluster.now
                    started = time.perf_counter()

                    def do_reshard(want=want):
                        yield from service.reshard(databases_per_process=want)

                    service.service.run_control(do_reshard())
                    for client in clients:
                        client.refresh(service.shards)
                    host["reshard"] = host.get("reshard", 0.0) + time.perf_counter() - started
                    reshard_sim += cluster.now - before
                    ops += 1
            started_sim = cluster.now
            started = time.perf_counter()
            if step.kind == "ingest":
                share = step.num_events // INJECTORS
                sub = WorkflowStep(step.name, step.kind, share, step.product_size)
                ults = [
                    app.spawn_ult(
                        workflow.run_step(
                            client, sub, random.Random(self.injector_seeds[i]), run_number=i
                        )
                    )
                    for i, (app, client) in enumerate(zip(apps, clients))
                ]
                reports = cluster.wait_ults(ults)
            else:
                reports = [
                    cluster.run_ult(apps[0], workflow.run_step(clients[0], step, random.Random(0)))
                ]
            host[step.kind] = host.get(step.kind, 0.0) + time.perf_counter() - started
            durations[step.name] = cluster.now - started_sim
            ops += sum(r.operations for r in reports)
            if step.kind == "ingest":
                checks = [
                    (EventKey("nova", i, e // 100, e % 100), "raw", self._raw(i, e))
                    for i, e in self.raw_checks
                ]
                bad += self._verify(cluster, apps[0], clients[0], checks)
                ops += len(checks)
        checks = []
        for e in self.filtered_checks:
            # The filter step stores sum(raw[:64]) % 256 repeated.
            mark = sum(self.raw_patterns[0][e]) * 8 % 256
            checks.append(
                (EventKey("nova", 0, e // 100, e % 100), "filtered",
                 bytes([mark]) * FILTERED_BYTES)
            )
        bad += self._verify(cluster, apps[0], clients[0], checks)
        ops += len(checks)
        total = sum(durations.values()) + reshard_sim
        summary = [label, sorted(durations.items()), reshard_sim, total, cluster.now, bad]
        return total, ops, bad, summary

    def run(self, split=None) -> RoundResult:
        totals = {}
        ops = bad = 0
        host: dict = {}
        summaries = []
        for i, (label, dynamic, cluster, service, apps) in enumerate(self.deployments):
            if i and split is not None:
                split()
            total, n, b, summary = self._workflow(label, dynamic, cluster, service, apps, host)
            totals[label] = total
            ops += n
            bad += b
            summaries.append(summary)
        statics = [t for label, t in totals.items() if label != "dynamic"]
        claim = totals["dynamic"] < max(statics) * 0.9 and totals["dynamic"] < min(statics) * 1.10
        return RoundResult(
            ops=ops,
            failed=bad if claim else ops,
            digest=_digest(summaries),
            checks={"products_load_back": bad == 0, "e12_claim_shape": claim},
            host_s=host,
            counts={
                "dynamic_sim_s": totals["dynamic"],
                "best_static_sim_s": min(statics),
                "worst_static_sim_s": max(statics),
            },
        )


WORKLOADS = {
    "rpc_echo": lambda seed: EchoWorkload(seed, observed=False),
    "kv_mixed": KVWorkload,
    "hepnos_e12": HEPnOSWorkload,
    "rpc_observed": lambda seed: EchoWorkload(seed, observed=True),
}
