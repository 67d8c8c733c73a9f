"""Continuous-profiler overhead on the P0 RPC hot path.

mochi-profile promises zero-cost-when-off: with ``profiling`` disabled
no profiler object exists, the pool hooks are one ``is not None`` check,
and no monitor is attached.  This suite measures exactly that promise,
plus the price of turning profiling on:

* ``rpc_off``  -- end-to-end RPCs/sec with profiling disabled (same
  workload as ``bench_p0_throughput``, directly comparable against the
  BENCH_P0.json trajectory);
* ``rpc_on``   -- the same workload with both endpoints profiled
  (window sampling + full latency decomposition + waterfall ring).

Results land in ``benchmarks/results/PROFILE_overhead.json`` and the
repo-root ``BENCH_PROFILE.json``.  The acceptance gate for this PR: the
*disabled* path must stay within 2% of the BENCH_P0.json trajectory
numbers (same workloads, same machine class).

Usage::

    PYTHONPATH=src python benchmarks/bench_profile_overhead.py          # full run
    PYTHONPATH=src python benchmarks/bench_profile_overhead.py --smoke  # CI smoke
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- this harness measures real wall-clock
# throughput of the simulator itself; time.perf_counter here reads the host
# clock on purpose and never runs under the kernel.

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from _harness import (  # noqa: E402
    OBS_OFF,
    REPO_ROOT,
    bench_rpc_echo,
    load_trajectory,
    paired_ratio,
    run_rounds,
)
from common import print_table, save_results  # noqa: E402

P0_TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_P0.json")
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_PROFILE.json")

#: Profiling on, everything else identical.  The window is sized so the
#: boundary timer actually fires many times during the run (the sampling
#: path is part of what is being priced).
OBS_PROFILED = {
    "observability": {
        "tracing": False,
        "metrics": False,
        "profiling": True,
        "profile_window": 1e-4,
    }
}

#: Same RPC workload shape as bench_p0_throughput so the off-path
#: numbers are directly comparable against the BENCH_P0.json trajectory.
#: Palindrome paired rounds (see benchmarks/_harness.py) run each arm
#: twice per round, so 8 rounds sample each arm 16 times.
FULL = dict(repeats=8, n_rpcs=2500)
SMOKE = dict(repeats=1, n_rpcs=60)


def run_suite(params: dict) -> dict:
    n_rpcs = params["n_rpcs"]
    results, rounds = run_rounds(params["repeats"], {
        "rpc_off": lambda: bench_rpc_echo(n_rpcs, OBS_OFF),
        "rpc_on": lambda: bench_rpc_echo(n_rpcs, OBS_PROFILED),
    })
    results["params"] = dict(params)
    results["rounds"] = rounds
    return results


def _rows(results: dict, p0: dict | None) -> list[dict]:
    on_ratio = paired_ratio(results["rounds"], "rpc_on", "rpc_off")
    row = {
        "bench": "rpc",
        "rate_off": results["rpc_off"]["rpcs_per_sec"],
        "rate_on": results["rpc_on"]["rpcs_per_sec"],
        "unit": "rpcs_per_sec",
        # Overhead = extra wall fraction, from the paired wall ratio.
        "profiler_on_overhead": 1.0 - 1.0 / on_ratio,
    }
    if p0 is not None:
        p0_rate = p0.get("current", {}).get("rpc", {}).get("rpcs_per_sec")
        if p0_rate:
            row["p0_rate"] = p0_rate
            row["off_vs_p0"] = row["rate_off"] / p0_rate
    return [row]


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    params = SMOKE if smoke else FULL

    results = run_suite(params)

    p0 = load_trajectory(P0_TRAJECTORY_PATH)
    rows = _rows(results, p0 if not smoke else None)
    print_table("continuous-profiler overhead" + (" (smoke)" if smoke else ""), rows)

    if smoke:
        # CI rot check only: the harness must run end to end; no wall-clock
        # assertions on shared runners.
        print("profile-overhead smoke OK")
        return 0

    save_results("PROFILE_overhead", {"results": results, "p0_trajectory": p0})
    trajectory = {
        "experiment": "PROFILE_overhead",
        "description": (
            "Wall-clock throughput of the Margo RPC path with the "
            "continuous profiler off vs on; the off numbers use the same "
            "workload as BENCH_P0.json so 'off_vs_p0' measures the "
            "disabled-path regression (the PR gate requires it within "
            "2%), and 'profiler_on_overhead' is the fractional cost of "
            "window sampling + latency decomposition + waterfalls."
        ),
        "results": {k: v for k, v in results.items() if k != "rounds"},
        "comparison": rows,
    }
    with open(TRAJECTORY_PATH, "w") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
    print(f"trajectory written to {TRAJECTORY_PATH}")
    return 0


# Pytest entry point (smoke-sized so `pytest benchmarks/` stays fast).
def test_profile_overhead_smoke():
    results = run_suite(SMOKE)
    assert results["rpc_off"]["rpcs"] == SMOKE["n_rpcs"]
    assert results["rpc_on"]["rpcs"] == SMOKE["n_rpcs"]
    # The profiled run really profiled: windows closed, waterfalls kept.
    assert results["rpc_on"]["windows_closed"] > 0
    assert results["rpc_on"]["waterfalls"] > 0
    # Profiling is modeled observation (monitoring cost per event), so
    # the profiled run's simulated time moves -- but never backwards.
    assert results["rpc_on"]["sim_time"] >= results["rpc_off"]["sim_time"]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
