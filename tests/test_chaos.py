"""Chaos soak tests: everything at once, under randomized faults.

Each scenario runs a full service for a long simulated horizon with a
deterministic-but-randomized fault schedule, then checks end-state
invariants.  These are the tests that catch cross-component races the
unit suites cannot.
"""

from collections import Counter

import pytest

from repro import Cluster
from repro.core import DynamicService, ProcessSpec, ResilienceManager, ServiceSpec
from repro.margo.errors import RpcError
from repro.margo.ult import UltSleep
from repro.monitoring import CallbackMonitor, StatisticsMonitor
from repro.raft import KVStateMachine, RaftClient, RaftConfig, RaftNode, Role
from repro.ssg import SwimConfig, create_group
from repro.storage import ParallelFileSystem
from repro.yokan import MapBackend, YokanClient

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)
RC = RaftConfig(
    heartbeat_interval=0.05,
    election_timeout_min=0.15,
    election_timeout_max=0.3,
    rpc_timeout=0.06,
)


def kv_process(name, node):
    return ProcessSpec(
        name=name,
        node=node,
        config={
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": [
                {"name": f"remi-{name}", "type": "remi", "provider_id": 0},
                {"name": f"db-{name}", "type": "yokan", "provider_id": 1,
                 "config": {"database": {"type": "persistent"}}},
            ],
        },
    )


@pytest.mark.parametrize("seed", [301, 302])
def test_chaos_raft_random_crashes_and_partitions(seed):
    """5-node Raft group; kill a random non-majority subset, partition
    and heal at random times, drive writes throughout.  Invariants:
    every acknowledged write survives; surviving state machines agree."""
    cluster = Cluster(seed=seed)
    rng = cluster.randomness.stream("chaos")
    margos = [cluster.add_margo(f"r{i}", node=f"n{i}") for i in range(5)]
    peers = [m.address for m in margos]
    nodes = [
        RaftNode(
            margo, f"raft{i}", provider_id=1,
            state_machine=KVStateMachine(MapBackend()),
            peers=peers, rng=cluster.randomness.stream(f"raft:{i}"), config=RC,
        )
        for i, margo in enumerate(margos)
    ]
    app = cluster.add_margo("app", node="napp")
    handle = RaftClient(app).make_group_handle(peers, provider_id=1)

    acked: list[int] = []

    def submitter():
        sequence = 0
        while cluster.now < 25.0:
            try:
                yield from handle.submit(
                    {"op": "put", "key": f"k{sequence:05d}".encode(),
                     "value": b"v"}, rpc_timeout=0.5,
                )
                acked.append(sequence)
                sequence += 1
            except Exception:
                pass
            yield UltSleep(0.05)

    cluster.spawn(app, submitter())

    # Fault schedule: two crash events (max 2 dead = minority of 5) and
    # two partition/heal cycles, at random times.
    victims = rng.sample(range(5), 2)
    for i, victim in enumerate(victims):
        cluster.faults.kill_process_at(5.0 + 7.0 * i, margos[victim].process)
    a, b = rng.sample(range(5), 2)
    cluster.faults.partition_at(8.0, f"n{a}", f"n{b}")
    cluster.faults.heal_at(12.0, f"n{a}", f"n{b}")
    cluster.faults.partition_at(15.0, f"n{(a+1)%5}", f"n{(b+2)%5}")
    cluster.faults.heal_at(18.0, f"n{(a+1)%5}", f"n{(b+2)%5}")

    cluster.run(until=32.0)

    survivors = [n for n in nodes if n.margo.process.alive]
    assert len(survivors) == 3
    # Progress was made despite the chaos.
    assert len(acked) > 50
    # Let replication settle, then check invariants.
    cluster.run(until=cluster.now + 3.0)
    for sequence in acked:
        key = f"k{sequence:05d}".encode()
        present = sum(1 for n in survivors if n.sm.backend.exists(key))
        assert present >= 2, f"acked write {key} missing from a majority"
    committed_prefix = min(n.commit_index for n in survivors)
    for index in range(max(1, committed_prefix - 100), committed_prefix + 1):
        records = {
            str(n.log.entry_at(index).command)
            for n in survivors
            if n.log.has_index(index)
        }
        assert len(records) <= 1, f"log divergence at {index}"


def test_chaos_service_with_resilience_manager_survives_crash_storm():
    """A 4-process service with the resilience manager; three staggered
    process crashes (each recovered onto a spare).  At the end, all data
    written before each crash's last checkpoint is present, and the
    group view matches the live processes."""
    cluster = Cluster(seed=303)
    pfs = ParallelFileSystem()
    spec = ServiceSpec(
        name="kv",
        processes=[kv_process(f"kv{i}", f"n{i}") for i in range(4)],
        group="kv-g",
        swim=SWIM,
    )
    service = DynamicService.deploy(cluster, spec, pfs=pfs)
    spares = [f"spare{i}" for i in range(4)]
    manager = ResilienceManager(
        service, checkpoint_interval=1.5,
        allocate_node=lambda: spares.pop(0) if spares else None,
    )
    manager.start()

    app = service.control
    yokan = YokanClient(app)

    def writer(proc_name, count):
        db = yokan.make_handle(service.processes[proc_name].address, 1)

        def run():
            for i in range(count):
                try:
                    yield from db.put(f"{proc_name}-k{i}", f"v{i}")
                except Exception:
                    return
                yield UltSleep(0.02)

        return run()

    for i in range(4):
        cluster.spawn(app, writer(f"kv{i}", 200))

    cluster.faults.kill_process_at(4.0, service.processes["kv1"].margo.process)
    cluster.faults.kill_process_at(9.0, service.processes["kv2"].margo.process)
    cluster.run(until=60.0)
    manager.stop()

    assert len(manager.recoveries) == 2
    recovered_names = {r.failed_process for r in manager.recoveries}
    assert recovered_names == {"kv1", "kv2"}
    # All service processes are live and the group converged.
    live = [p for p in service.processes.values() if p.alive]
    assert len(live) == 4
    assert service.view().size == 4
    # Each recovered provider holds a full checkpoint's worth of data.
    for recovery in manager.recoveries:
        replacement = service.processes[recovery.replacement_process]
        restored = [
            r for r in replacement.bedrock.records.values()
            if r.type_name == "yokan"
        ]
        assert restored, recovery
        assert restored[0].instance.backend.count() > 0


def test_chaos_swim_group_under_loss_and_churn():
    """A 10-member group with 5% message loss, joins, leaves, and
    crashes: views must converge to the true membership at the end,
    with zero false positives among stable members."""
    cluster = Cluster(seed=304)
    margos = [cluster.add_margo(f"m{i}", node=f"n{i}") for i in range(10)]
    groups = create_group("g", margos, cluster.randomness, swim=SWIM)
    cluster.run(until=2.0)
    cluster.faults.set_message_loss(0.05)

    # Churn: kill two, one leaves voluntarily.
    cluster.faults.kill_process_at(4.0, margos[7].process)
    cluster.faults.kill_process_at(10.0, margos[8].process)

    def leaver():
        yield UltSleep(7.0)
        yield from groups[9].leave()

    cluster.spawn(margos[9], leaver())

    cluster.run(until=90.0)
    cluster.faults.set_message_loss(0.0)
    cluster.run(until=120.0)

    stable = groups[:7]
    expected = {m.address for m in margos[:7]}
    for group in stable:
        assert set(group.view.members) == expected, group.margo.address
    assert len({g.view_hash for g in stable}) == 1


# ----------------------------------------------------------------------
# observers under a timeout storm
# ----------------------------------------------------------------------
OBSERVE_ALL = {
    "observability": {
        "tracing": True,
        "max_spans": 64,
        "profiling": True,
        "profile_sample_every": 4,
        "xray": True,
    }
}
CALL_TIMEOUT = 1e-3
#: One phase of the scripted mix: (outcome, calls).  Two phases run, so
#: 2,000 calls time out in total.
PHASE = (
    ("timeout", 1000),
    ("ok", 60),
    ("error", 30),
    ("no_rpc", 30),
    ("unknown_dest", 40),
    ("dead_peer", 40),
)


def _observer_sizes(margos, stats):
    """len() of every dict/list/set an observer holds directly (its
    deques are bounded by construction)."""
    sizes = {}
    for margo in margos:
        observers = [margo.tracer, margo.profiler, margo.xray]
        for obs in observers + [stats[margo.process.name]]:
            for attr, value in vars(obs).items():
                if isinstance(value, (dict, list, set)):
                    sizes[(margo.process.name, type(obs).__name__, attr)] = len(value)
    return sizes


def test_chaos_timeout_storm_leaves_no_observer_state():
    """Thousands of timeouts plus unknown-destination and dead-peer
    forwards, every observer on: each forward() ends in exactly one
    terminal hook with the scripted outcome, and no observer keeps
    per-request state once the calls have ended."""
    cluster = Cluster(seed=303)
    stats = {name: StatisticsMonitor() for name in ("server", "client")}
    # Holding every ended request keeps its id() unique, so a leak keyed
    # by id(request) cannot hide behind address reuse.
    ended = []
    counter = CallbackMonitor(
        {"on_forward_complete": lambda request, **kw: ended.append(request)}
    )
    server = cluster.add_margo(
        "server", node="n0", config=OBSERVE_ALL, monitors=(stats["server"],)
    )
    client = cluster.add_margo(
        "client", node="n1", config=OBSERVE_ALL, monitors=(stats["client"], counter)
    )
    dead = cluster.add_margo("dead", node="n2")
    cluster.faults.kill_process(dead.process)

    def slow(ctx):
        yield UltSleep(2 * CALL_TIMEOUT)
        return ctx.args

    def fail(ctx):
        raise ValueError("scripted handler failure")

    server.register("echo", lambda ctx: ctx.args)
    server.register("slow", slow)
    server.register("fail", fail)
    calls = {
        "timeout": (server.address, "slow", CALL_TIMEOUT),
        "ok": (server.address, "echo", None),
        "error": (server.address, "fail", None),
        "no_rpc": (server.address, "nope", None),
        "unknown_dest": ("na+ofi://nowhere/ghost", "echo", None),
        "dead_peer": (dead.address, "echo", CALL_TIMEOUT),
    }
    script = [kind for kind, n in PHASE for _ in range(n)]
    script = script[::2] + script[1::2]  # interleave the kinds

    def phase():
        made = 0
        for kind in script:
            address, rpc, timeout = calls[kind]
            try:
                yield from client.forward(address, rpc, kind, timeout=timeout)
            except RpcError:
                pass
            made += 1
        yield UltSleep(4 * CALL_TIMEOUT)  # let late handlers finish
        return made

    made = cluster.run_ult(client, phase())
    after_one = _observer_sizes((client, server), stats)
    made += cluster.run_ult(client, phase())
    after_two = _observer_sizes((client, server), stats)

    assert made == 2 * len(script)
    # Exactly one terminal firing per forward() call ...
    completions = Counter(request.span_id for request in ended)
    assert sum(completions.values()) == made
    assert set(completions.values()) == {1}
    # ... with the outcome the script asked for.
    outcomes = Counter(request.outcome for request in ended)
    expected = Counter()
    for kind, n in PHASE:
        expected["timeout" if kind == "dead_peer" else kind] += 2 * n
    assert outcomes == expected
    assert outcomes["timeout"] >= 2000
    # Zero residual per-request state, in the runtime and the observers.
    assert client._pending == {} and client.inflight_outgoing == 0
    for margo in (client, server):
        assert margo.tracer.open_span_count == 0
        assert margo.monitor_errors == 0
    assert after_two == after_one
    # Timeouts are visible: Listing 1 counts them beside serialize, and
    # the tracer closes them as forward spans with their outcome.
    (slow_record,) = stats["client"].find_by_name("slow")
    (origin,) = slow_record["origin"].values()
    assert origin["timeout"]["num"] == origin["serialize"]["num"] == 2000
    assert "forward" not in origin
    statuses = {
        s.attributes["status"]
        for s in client.tracer.spans
        if s.category == "forward"
    }
    assert "timeout" in statuses
