"""Tests of the benchmark itself (about four minutes).

Run with ``python3 -m pytest perfbench/selftest.py`` from the repository
root.  The file name keeps it out of the repository's default test run:
the planted-regression test times real runs.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = run.DEFAULT_SEED

#: Reduced scales at which every workload's checks hold at ``SEED``.
SMOKE_SCALE = {"organic": 0.05, "flood": 1.0, "offline": 0.2}

#: Per-layer metrics that must be non-zero wherever the workload runs them.
LAYERS_RUN = {
    "organic": ("plan_s", "materialize_s", "shard_run_s", "dispatch_s",
                "merge_s", "digest_s", "report_s", "analysis.fig6_s",
                "resume_s", "checkpoint_save_s", "jobs2_speedup",
                "ipc_bytes_per_record"),
    "flood": ("plan_s", "materialize_s", "shard_run_s", "merge_s",
              "analysis.fig5_s", "records.attack"),
    "offline": ("materialize_s", "whatif.decode_s", "whatif.baseline_s",
                "faultsweep.decode_s", "faultsweep.do-nothing_s",
                "fault_replay_s", "fault_records_per_s", "records.faulted",
                "logfile.write_s", "logfile.read_s",
                "logfile.bytes_per_record", "release_records_per_s"),
}


def bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_quiet(workload: str, **kwargs) -> dict:
    kwargs.setdefault("scale", SMOKE_SCALE[workload])
    return run.run(workload, seed=SEED, probes=1, out=io.StringIO(), **kwargs)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_metrics())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(SMOKE_SCALE))
def test_smoke(workload):
    plain = run_quiet(workload, seconds=0)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] > 0
    assert set(plain["metrics"]) == set(run.END_TO_END)
    # In-process runs share the test process's RSS high-water mark, so the
    # memory above it may read 0 here; a run of its own starts afresh.
    memory = plain["metrics"].pop("rss_bytes_per_record")["value"]
    assert memory >= 0
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run_quiet(workload, seconds=0, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == set(run.per_layer_metrics())
    for name in LAYERS_RUN[workload]:
        assert traced["metrics"][name]["value"] > 0, name
    assert traced["metrics"]["trace_overhead"]["value"] > 0


def test_host_speed_scaling_touches_times_and_rates_only():
    import hostspeed

    values = {"t": 2.0, "per": 4.0, "rate": 10.0, "size": 3.0, "n": 5}
    units = {"t": "s", "per": "us", "rate": "1/s", "size": "B", "n": "count"}
    assert hostspeed.scale(values, units, 0.5) == {
        "t": 1.0, "per": 2.0, "rate": 20.0, "size": 3.0, "n": 5}
    assert hostspeed.factor([0.4, 0.2, 0.3]) == hostspeed.REFERENCE_S / 0.3
    assert hostspeed.reference_seconds() > 0


def test_degraded_check_allows_a_small_shortfall_only():
    """The bounded degraded-RPC check accepts the known small offline
    shortfall and rejects an excess or accounting that is broken outright."""
    import checks

    live = {"degraded_rpcs": 246, "degraded_extra_seconds": 12.2}
    short = {"degraded_rpcs": 244, "degraded_extra_seconds": 11.9}
    assert checks.check_degraded(short, live) == []
    assert checks.check_degraded(dict(live), live) == []
    for broken in ({"degraded_rpcs": 0, "degraded_extra_seconds": 0.0},
                   {"degraded_rpcs": 247, "degraded_extra_seconds": 12.2},
                   {"degraded_rpcs": 246, "degraded_extra_seconds": 24.4}):
        assert checks.check_degraded(broken, live)


#: Planted regressions: (module, function, the end-to-end metric it must
#: move, the workload that calls it, one that never does).  Each function
#: is made to run three times per call.
PLANTED = [
    # Fig. 6's analysis: only the workloads that run the full report.
    ("repro.core.user_activity", "online_active_users",
     "analysis_us_per_record", "organic", "offline"),
    # Each mitigation pass of the fault sweep: only ``offline``.
    ("repro.faults.sweep", "simulate_mitigation", "analysis_us_per_record",
     "offline", "organic"),
    # The logfile writer: only ``offline``'s round trip.
    ("repro.trace.logfile", "write_trace_directory", "job_us_per_record",
     "offline", "organic"),
]


@pytest.mark.parametrize("module_name, function, metric, caller, bypass",
                         PLANTED)
def test_planted_regression_moves_only_the_workload_that_runs_the_layer(
        module_name, function, metric, caller, bypass):
    """The planted layer must push ``metric`` past its bound on the
    workload that calls it, and leave it within the bound on one that never
    does.

    Unchanged and planted runs alternate and their medians are compared,
    so that host drift between two single runs cannot decide the outcome.
    """
    import importlib
    import statistics

    module = importlib.import_module(module_name)
    bound = {m["name"]: m["bound"] for m in bench_json()["end_to_end"]}[metric]
    original = getattr(module, function)
    calls = []

    def thrice(*args, **kwargs):
        calls.append(1)
        original(*args, **kwargs)
        original(*args, **kwargs)
        return original(*args, **kwargs)

    def ratio(workload: str, pairs: int = 3) -> float:
        """Median planted over median unchanged metric."""
        values: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(pairs):
            for planted in (False, True):
                setattr(module, function, thrice if planted else original)
                try:
                    result = run_quiet(workload, seconds=3, scale=0.2)
                finally:
                    setattr(module, function, original)
                assert result["correct"]
                values[planted].append(result["metrics"][metric]["value"])
        return (statistics.median(values[True])
                / statistics.median(values[False]))

    assert ratio(caller) > 1 + bound
    assert calls
    calls.clear()
    assert ratio(bypass) <= 1 + bound
    assert not calls
