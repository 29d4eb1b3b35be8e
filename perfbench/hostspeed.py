"""Host-speed calibration of the benchmark's time metrics.

The reference host's speed drifts by up to 1.6x, in phases of tens of
seconds to minutes, and process CPU time drifts with it, so two runs of the
same inputs can read 9.6 and 13.5 us per record a minute apart.
:func:`reference_seconds` times a fixed computation that never touches the
package -- Python dict building and sorting plus NumPy sorting,
de-duplication and a random gather, the kinds of work the replay and the
analyses do.  It is timed between the set-up probes and between rounds,
and every time figure of the run is scaled by :data:`REFERENCE_S` over the
median of those timings, so it reads as the time at the speed at which one
reference pass takes :data:`REFERENCE_S`.  A change
to the package cannot move the reference, so it moves the scaled figures as
it moves the raw ones; a change of host speed moves the round and the
reference alike and largely cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one pass of the reference computation takes at the nominal speed
#: that every time figure is scaled to (about its time in a fast phase of
#: the reference host).
REFERENCE_S = 0.05

#: Units of time figures (scaled by the factor) and of rates (divided).
TIME_UNITS = ("s", "us", "ns")
RATE_UNITS = ("1/s",)

_rng = np.random.default_rng(2014)
_floats = _rng.random(160_000)
_ints = _rng.integers(0, 50_000, 160_000)
_table = np.arange(4_000_000, dtype=np.int64)
_index = _rng.integers(0, len(_table), 330_000)


def _reference_pass() -> None:
    table = {}
    for i in range(33_000):
        table[(i * 7919) % 16_411] = (i, str(i))
    sorted(table.items(), key=lambda item: item[1][0] % 977)
    np.argsort(_floats)
    np.unique(_ints)
    int(_table[_index].sum())


def reference_seconds(passes: int = 3) -> float:
    """Wall seconds of the fastest of ``passes`` reference passes.

    The host also stalls for fractions of a second; a stall lengthens one
    pass, and the fastest pass still reads the speed of the current phase.
    """
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        _reference_pass()
        best = min(best, time.perf_counter() - started)
    return best


def factor(references: list[float]) -> float:
    """Scale factor of a run whose reference timings are ``references``.

    The median timing reads the host's speed over the run: the host also
    stalls and speeds up for fractions of a second, which moves single
    timings either way (a factor per round, from the timings around it,
    spread more than no scaling at all on two-worker replays).
    """
    return REFERENCE_S / statistics.median(references)


def scale(values: dict[str, float], units: dict[str, str],
          by: float) -> dict[str, float]:
    """``values`` with every time figure multiplied by ``by`` and every rate
    divided by it; counts, sizes and ratios unchanged."""
    out = {}
    for name, value in values.items():
        unit = units.get(name)
        if unit in TIME_UNITS:
            value *= by
        elif unit in RATE_UNITS:
            value /= by
        out[name] = value
    return out
