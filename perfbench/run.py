"""Repository benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload organic --seed 2014 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``info {...}``) holds the unmetered outputs: stream and family
counts and every replay's ``content_digest``.  Output checks that fail are
described on standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for logfiles, checkpoints and span dumps (git-ignored).
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 2014

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "job_us_per_record": "us",
    "records_per_s": "1/s",
    "analysis_us_per_record": "us",
    "rss_bytes_per_record": "B",
    "trace_bytes_per_record": "B",
}

#: Host-speed reference timings taken after each round: the run's median
#: of them sets the speed factor, and single timings scatter by about a
#: tenth, so more of them steady the factor.
REFERENCES_PER_ROUND = 3

WHATIF_POLICIES = ("baseline", "no-dedup", "delta-updates", "tier-age",
                   "tier-lru-cap")
FAULT_POLICIES = ("do-nothing", "retry-1", "retry-3", "hedge",
                  "drain-repair", "disable")


def per_layer_metrics() -> dict[str, str]:
    """Per-layer metrics: name -> unit.  A layer a workload never calls
    reads 0 there."""
    from layers import ANALYSES

    metrics = {
        "import_s": "s",
        "plan_s": "s", "plan_us_per_member": "us",
        "materialize_s": "s", "materialize_us_per_event": "us",
        "shard_run_s": "s", "block_build_s": "s", "dispatch_s": "s",
        "dispatch_us_per_event": "us", "pack_s": "s",
        "event_block_bytes_per_event": "B",
        "records.upload": "count", "records.download": "count",
        "records.mutation": "count", "records.metadata": "count",
        "records.attack": "count", "records.faulted": "count",
        "records.retried": "count", "records.rpc": "count",
        "records.session": "count",
        "merge_s": "s", "merge_ns_per_record": "ns", "digest_s": "s",
        "ipc_bytes_per_record": "B", "shard_imbalance": "ratio",
        "checkpoint_save_s": "s", "resume_s": "s", "jobs1_replay_s": "s",
        "jobs2_speedup": "ratio",
        "gc_cycle_objects": "count",
        "report_s": "s",
    }
    metrics.update({f"analysis.{key}_s": "s" for key in ANALYSES})
    metrics["whatif_s"] = "s"
    metrics["whatif.decode_s"] = "s"
    metrics.update({f"whatif.{name}_s": "s" for name in WHATIF_POLICIES})
    metrics["faultsweep_s"] = "s"
    metrics["faultsweep.decode_s"] = "s"
    metrics.update({f"faultsweep.{name}_s": "s" for name in FAULT_POLICIES})
    metrics.update({"fault_replay_s": "s", "fault_records_per_s": "1/s",
                    "logfile.write_s": "s", "logfile.read_s": "s",
                    "logfile.bytes_per_record": "B",
                    "release_records_per_s": "1/s",
                    "trace_overhead": "ratio"})
    return metrics


def measure_setup(workload: str, seed: int, scale: float, probes: int,
                  references: list[float]) -> list[dict]:
    """Set-up and import seconds of ``probes`` fresh interpreters; times the
    host-speed reference after each into ``references``."""
    import hostspeed

    results = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(scale)],
            capture_output=True, text=True, check=True, timeout=120)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        references.append(hostspeed.reference_seconds())
    return results


def layer_figures(tracer, since: int, r) -> dict[str, float]:
    """Per-layer figures of one traced round from its spans."""
    from layers import ANALYSES

    totals = tracer.totals(since)
    direct = tracer.report_children(since)
    stats = r.stats_jobs1
    events = max(r.jobs1_events, 1)
    dispatch = sum(sum(s["shard_dispatch_seconds"]) for s in stats)
    out = {
        "plan_s": totals.get("plan", 0.0),
        "materialize_s": totals.get("materialize", 0.0),
        "materialize_us_per_event": totals.get("materialize", 0.0) * 1e6 / events,
        "shard_run_s": totals.get("shard_run", 0.0),
        "block_build_s": sum(sum(s["shard_block_build_seconds"]) for s in stats),
        "dispatch_s": dispatch,
        "dispatch_us_per_event": dispatch * 1e6 / events,
        "pack_s": sum(sum(s["shard_pack_seconds"]) for s in stats),
        "event_block_bytes_per_event":
            sum(s["event_block_bytes"] for s in stats) / events,
        "merge_s": totals.get("merge", 0.0),
        "merge_ns_per_record": (totals.get("merge", 0.0) * 1e9
                                / max(r.replayed_records, 1)),
        "digest_s": totals.get("digest", 0.0),
        "checkpoint_save_s": totals.get("checkpoint_save", 0.0),
        "whatif.decode_s": totals.get("whatif.decode", 0.0),
        "faultsweep.decode_s": totals.get("faultsweep.decode", 0.0),
    }
    if "n_members" in r.info:
        out["plan_us_per_member"] = out["plan_s"] * 1e6 / r.info["n_members"]
    out.update({f"analysis.{key}_s": direct.get(f"analysis.{key}", 0.0)
                for key in ANALYSES})
    out.update({f"whatif.{name}_s": totals.get(f"whatif.{name}", 0.0)
                for name in WHATIF_POLICIES})
    out.update({f"faultsweep.{name}_s": totals.get(f"faultsweep.{name}", 0.0)
                for name in FAULT_POLICIES})
    return out


def peak_rss_kib() -> int:
    """The larger of this process's and its reaped children's peak RSS."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run(workload: str, seed: int = DEFAULT_SEED, seconds: float = 45.0,
        trace: bool = False, scale: float = 1.0, probes: int = 3,
        out=sys.stdout) -> dict:
    """Run ``workload`` for ``seconds`` of whole rounds; returns the result.

    ``scale`` multiplies every workload's user count (the tests run
    reduced scales).  Prints the unmetered ``info`` line (and, traced, the
    per-layer table) to ``out``; the caller prints the returned result as
    the last line.
    """
    import hostspeed
    import workloads
    from layers import Tracer

    spec, round_fn = workloads.WORKLOADS[workload]
    references = [hostspeed.reference_seconds()]
    setup = measure_setup(workload, seed, scale, probes, references)
    workdir = WORK / f"work-{workload}-{os.getpid()}"
    ctx = workloads.Context(spec, seed, scale, workdir)
    tracer = Tracer() if trace else None
    rounds: list[tuple[object, bool]] = []
    base_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deadline = time.perf_counter() + seconds
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            r = workloads.Round(tracer if traced else None)
            since = len(tracer.spans) if tracer else 0
            if traced:
                tracer.install()
            try:
                round_fn(ctx, r)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                r.figures.update(layer_figures(tracer, since, r))
            rounds.append((r, traced))
            for name, problems in r.problems.items():
                for problem in problems:
                    print(f"perfbench: {workload} round {len(rounds)} step "
                          f"{name} failed: {problem}", file=sys.stderr)
            # The package freezes the survivors of its gc-paused phases, and
            # cyclic garbage made there is never reclaimed: each round would
            # add to the next one's heap.  Reclaim it so every round starts
            # from the same heap, as a one-job CLI process does, and count it.
            gc.unfreeze()
            r.figures["gc_cycle_objects"] = gc.collect()
            del r
            references.extend(hostspeed.reference_seconds()
                              for _ in range(REFERENCES_PER_ROUND))
            if time.perf_counter() >= deadline and (
                    not trace or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speed = hostspeed.factor(references)
    plain = [r for r, traced in rounds if not traced]
    first = rounds[0][0]
    peak_kib = peak_rss_kib()
    attempted = sum(r.attempted for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    print("info " + json.dumps({
        "workload": workload, "seed": seed, "scale": scale,
        "users": ctx.configs[0].n_users, "days": ctx.configs[0].duration_days,
        "trace_seeds": ctx.seeds,
        "rounds": len(rounds),
        "peak_rss_mb": peak_kib / 1024,
        "streams": first.info.get("streams"),
        "families": first.info.get("families"),
        "digests": first.info.get("digests"),
        "fig5_stray_windows": first.info.get("fig5_stray_windows"),
        # As measured; the time metrics are the times as measured times
        # speed_factor.
        "job_us_per_record_by_round": [
            round(r.figures.get("job_us_per_record", 0.0), 3)
            for r, _ in rounds],
        "speed_factor": speed,
        "reference_s": [round(t, 5) for t in references],
        "step_seconds": {name: statistics.median(
            r.seconds[name] for r in plain if name in r.seconds)
            for name in first.seconds},
    }), file=out)

    def med(name: str, group) -> float:
        values = [r.figures[name] for r in group if name in r.figures]
        return statistics.median(values) if values else 0.0

    if not trace:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "job_us_per_record": med("job_us_per_record", plain),
            "records_per_s": med("records_per_s", plain),
            "analysis_us_per_record": med("analysis_us_per_record", plain),
            # Memory above what the interpreter and package held before
            # the first round, per record: traces of equally likely seeds
            # differ in size, and every round replays the same ones.
            "rss_bytes_per_record": ((peak_kib - base_kib) * 1024
                                     / first.info.get("n_records", 1)),
            "trace_bytes_per_record": med("trace_bytes_per_record", plain),
        }
        units = END_TO_END
    else:
        traced_rounds = [r for r, traced in rounds if traced]
        units = per_layer_metrics()
        values = {name: med(name, traced_rounds) for name in units}
        values["import_s"] = statistics.median(p["import_s"] for p in setup)
        values["trace_overhead"] = (
            statistics.median(r.job_s for r in traced_rounds)
            / statistics.median(r.job_s for r in plain))
        _print_layers(tracer, len(traced_rounds), out)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{workload}-{seed}.jsonl")
    # Times and rates at the reference speed of the host.
    values = hostspeed.scale(values, units, speed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _print_layers(tracer, n_rounds: int, out) -> None:
    """Total and self seconds per span name, averaged over traced rounds."""
    totals, own = tracer.totals(), tracer.self_times()
    print(f"layer{'':36} total_s    self_s   (per traced round)", file=out)
    for name in sorted(totals, key=totals.get, reverse=True):
        print(f"  {name:<40} {totals[name] / n_rounds:8.4f}  "
              f"{own[name] / n_rounds:8.4f}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("organic", "flood", "offline"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'repro'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
