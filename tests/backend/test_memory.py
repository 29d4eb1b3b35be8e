"""The replay object graph is cycle-free, so reference counting frees it.

``repro.util.gctools.cyclic_gc_paused`` switches the cyclic collector off
around the generate and replay phases and then freezes their survivors; that
is only sound while those phases create no reference cycles, because frozen
cyclic garbage is never reclaimed.  These tests pin that contract: after a
replay, un-freezing and running a full collection must find (almost)
nothing, and back-to-back replays in one interpreter must not grow the set
of objects the collector tracks.

At 200 users x 2 days the object graph that used to leak per replay was
23,955 objects at one job, 670 at two supervised jobs (the cluster-level
processes; the shards ran in forked workers) and 24,004 through the
interactive cluster path.  The bound below is 1% of the smallest of those.
"""

from __future__ import annotations

import gc

import pytest

from repro.backend.client import DesktopClient
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator

#: Largest number of objects a full collection may reclaim after one run.
CYCLIC_GARBAGE_BOUND = 6


def _workload() -> WorkloadConfig:
    return WorkloadConfig.scaled(users=200, days=2.0, seed=5)


def _replay_plan(n_jobs: int) -> None:
    plan = SyntheticTraceGenerator(_workload()).plan()
    U1Cluster(ClusterConfig(seed=5)).replay_plan(plan, n_jobs=n_jobs)


def _interactive() -> None:
    """A replay, then two clients of one user driving the cluster's own
    processes (their mutations publish on the cluster's notification bus)."""
    cluster = U1Cluster(ClusterConfig(seed=5))
    cluster.run_workload(_workload())
    laptop = DesktopClient(cluster=cluster, user_id=1)
    desktop = DesktopClient(cluster=cluster, user_id=1)
    laptop.connect()
    desktop.connect()
    laptop.upload_file("notes.txt", b"cycle-free " * 100)
    desktop.sync()
    laptop.delete_file("notes.txt")
    laptop.disconnect()
    desktop.disconnect()


def _cyclic_garbage(run) -> int:
    """Objects a full collection reclaims after ``run`` (frozen ones too)."""
    # Start from an empty heap of garbage: earlier tests may have frozen
    # some of their own (the test runner's included).
    gc.unfreeze()
    gc.collect()
    run()
    gc.unfreeze()
    return gc.collect()


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _replay_plan(1), id="jobs1"),
    pytest.param(lambda: _replay_plan(2), id="jobs2-supervised"),
    pytest.param(_interactive, id="interactive-cluster"),
])
def test_run_leaves_no_cyclic_garbage(run):
    assert _cyclic_garbage(run) <= CYCLIC_GARBAGE_BOUND


def test_consecutive_replays_do_not_grow_tracked_objects():
    gc.unfreeze()
    gc.collect()
    tracked = []
    for _ in range(5):
        _replay_plan(1)
        gc.unfreeze()  # frozen objects are not listed by get_objects()
        tracked.append(len(gc.get_objects()))
    # The first replay may still fill import-time and module-level caches.
    assert max(tracked[1:]) <= tracked[0], tracked
