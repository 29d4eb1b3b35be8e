"""Interpreter garbage-collector helpers for the bulk-allocation hot paths.

The generator and the replay engine allocate millions of small tuples,
dataclasses and lists and create no reference cycles: everything they build
is reclaimed by reference counting alone.  For such phases the cyclic
collector contributes nothing but unpredictable multi-millisecond pauses
(generation-0 collections trigger every ~700 net allocations), which were
the dominant source of run-to-run timing jitter.  :func:`cyclic_gc_paused`
switches the collector off for the duration of such a phase.

The replay object graph is cycle-free by design: an API process holds its
request handlers as a class-level table of plain functions, the
notification bus holds its subscribers' bound methods weakly, and no
closure stored on an object captures that object.  A replay shard's whole
back-end state is therefore freed by reference counting when the shard
returns.  ``tests/backend/test_memory.py`` pins that contract: after a
replay at one job, at two supervised jobs and through the interactive
cluster path, a full collection reclaims (almost) nothing, and repeated
replays in one interpreter do not grow the tracked-object count.
"""

from __future__ import annotations

import contextlib
import gc

__all__ = ["cyclic_gc_paused"]


@contextlib.contextmanager
def cyclic_gc_paused(*, freeze_survivors: bool = True):
    """Pause the cyclic garbage collector around a cycle-free bulk phase.

    The collector is re-enabled — never force-run — on exit, and left alone
    if the caller had already disabled it, so nesting and benchmark harness
    policies (pyperf-style ``gc.disable()``) compose.

    While the collector is off, every allocation accumulates in generation 0,
    so the first collection after re-enabling would scan everything the phase
    allocated and still holds live — a single ~20 ms pause right after a
    replay at the reference scale.  With ``freeze_survivors`` (the default)
    the survivors are moved to the permanent generation via :func:`gc.freeze`
    before re-enabling, which keeps them out of all future scans.  Frozen
    objects are still reclaimed by reference counting; only objects trapped
    in reference cycles created *during* the paused phase would leak, and the
    paused phases are cycle-free by contract (that is why pausing is sound in
    the first place).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if freeze_survivors:
                gc.freeze()
            gc.enable()
