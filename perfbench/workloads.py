"""The benchmark workloads: their inputs, their steps and what each round
measures.

A workload is a batch job driven by one closed-loop caller: each step starts
when the previous one returns, and one pass over the steps is a *round*.
Every step is one operation; a step fails when it raises or when one of its
output checks (:mod:`checks`) finds a problem, and the steps after a failed
one are counted as failed without running.  Only the step bodies are timed;
checks, digests and clean-up run between the timed regions.
"""

from __future__ import annotations

import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.core import report as report_mod
from repro.core.summary import trace_summary
from repro.faults.spec import default_fault_plan
from repro.faults.sweep import run_fault_sweep
from repro.trace import logfile
from repro.util.units import DAY
from repro.whatif.sweep import run_sweep
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


@dataclass(frozen=True)
class Spec:
    """Inputs of one workload (users and days at ``--scale 1``)."""

    name: str
    users: int
    days: float
    #: Keep the default DDoS schedule (False replays ordinary users only).
    attacks: bool
    #: The exact single-store configuration in which the offline sweeps
    #: must equal live replay: one replay shard, no interrupted uploads,
    #: no random authentication failures.
    single_store: bool = False
    #: Independent traces per round.  Above 1 their seeds are drawn from
    #: ``numpy.random.SeedSequence(seed)``, so one run averages several
    #: attack schedules instead of resting on one.
    incidents: int = 1

    def trace_seeds(self, seed: int) -> list[int]:
        if self.incidents == 1:
            return [seed]
        state = np.random.SeedSequence(seed).generate_state(self.incidents)
        return [int(value) for value in state]

    def workload_config(self, seed: int, scale: float = 1.0) -> WorkloadConfig:
        users = max(20, round(self.users * scale))
        config = WorkloadConfig.scaled(users=users, days=self.days, seed=seed)
        return config if self.attacks else config.replace(attacks=())

    def cluster_config(self, seed: int, faults=None) -> ClusterConfig:
        extra = (dict(replay_shards=1, interrupted_upload_fraction=0.0,
                      auth_failure_fraction=0.0) if self.single_store else {})
        return ClusterConfig(seed=seed, faults=faults, **extra)


#: Worker processes of the supervised replays: ``nproc`` of the reference
#: host.
SUPERVISED_JOBS = 2


class Round:
    """One pass over a workload's steps and what it measured."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.problems: dict[str, list[str]] = {}
        self.broken = False
        #: End-to-end and per-layer figures of this round.
        self.figures: dict[str, float] = {}
        #: Unmetered output: stream and family counts, replay digests.
        self.info: dict = {"digests": {}, "streams": {}, "families": {}}
        #: Events of the jobs-1 replays, records of every replay, and the
        #: jobs-1 replay stats (the denominators of per-unit layer figures).
        self.jobs1_events = 0
        self.replayed_records = 0
        self.stats_jobs1: list[dict] = []
        #: Sums over the round's primary traces (one per incident).
        self._sums = dict(records=0, bytes=0, seconds=0.0, members=0, ipc=0)
        self._imbalance: list[float] = []

    def step(self, name: str, body, check=None):
        """Run and time ``body``; run ``check`` on its result untimed."""
        if self.broken:
            self.problems[name] = ["not run: an earlier step failed"]
            return None
        span = self.tracer.begin(f"step.{name}") if self.tracer else None
        started = time.perf_counter()
        try:
            value = body()
        except Exception:  # a failing step is counted, the run goes on
            self.problems[name] = [traceback.format_exc()]
            self.broken = True
            return None
        finally:
            self.seconds[name] = time.perf_counter() - started
            if span is not None:
                self.tracer.end(span)
        try:
            problems = check(value) if check is not None else []
        except Exception:
            problems = [traceback.format_exc()]
        self.problems[name] = problems
        if problems:
            self.broken = True
        return value

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for problems in self.problems.values() if problems)

    @property
    def job_s(self) -> float:
        return sum(self.seconds.values())

    def replayed(self, label: str, cluster, dataset, jobs1: bool) -> None:
        """Book a finished replay: its counts, stats and digest."""
        stats = cluster.last_replay_stats
        self.replayed_records += checks.n_records(dataset)
        if jobs1:
            self.jobs1_events += stats["events_replayed"]
            self.stats_jobs1.append(stats)
        self.info["digests"][label] = dataset.content_digest()

    def add_trace(self, dataset, cluster, plan, plan_s: float,
                  replay_s: float) -> None:
        """Book one primary trace: the replay the workload is about."""
        sums = self._sums
        sums["records"] += checks.n_records(dataset)
        sums["bytes"] += checks.trace_bytes(dataset)
        sums["seconds"] += plan_s + replay_s
        sums["members"] += plan.n_members
        sums["ipc"] += cluster.last_replay_stats["ipc_block_bytes"]
        self._imbalance.append(cluster.last_replay_stats["shard_imbalance"])
        for label, n in (("storage", len(dataset.storage)),
                         ("rpc", len(dataset.rpc)),
                         ("sessions", len(dataset.sessions))):
            self.info["streams"][label] = self.info["streams"].get(label, 0) + n
        for name, n in checks.family_counts(dataset).items():
            self.info["families"][name] = self.info["families"].get(name, 0) + n

    def finish(self, analysis_s: float) -> None:
        """End-to-end figures of the round, per record of its primary traces."""
        sums = self._sums
        n = sums["records"]
        self.figures.update(self.info["families"])
        self.figures.update({
            "job_us_per_record": self.job_s * 1e6 / n,
            "records_per_s": n / sums["seconds"],
            "analysis_us_per_record": analysis_s * 1e6 / n,
            "trace_bytes_per_record": sums["bytes"] / n,
            "ipc_bytes_per_record": sums["ipc"] / n,
            "shard_imbalance": max(self._imbalance),
        })
        self.info["n_members"] = sums["members"]
        self.info["n_records"] = n


class Context:
    """What every round of one run shares: spec, seeds, configs."""

    def __init__(self, spec: Spec, seed: int, scale: float, workdir: Path):
        self.spec = spec
        self.seeds = spec.trace_seeds(seed)
        self.configs = [spec.workload_config(s, scale) for s in self.seeds]
        self.workdir = workdir
        #: Digests of the first round, which later rounds must repeat.
        self.reference: dict[str, str] = {}

    def tag(self, k: int) -> str:
        """Step-name suffix of incident ``k`` (none for a single trace)."""
        return f".{k}" if len(self.seeds) > 1 else ""

    def same_as_before(self, r: Round, label: str) -> list[str]:
        """Every round replays the same inputs, so digests must repeat."""
        digest = r.info["digests"][label]
        reference = self.reference.setdefault(label, digest)
        return checks.check_equal(f"{label} (vs round 1)", digest, reference)


# ------------------------------------------------------------------ steps
def _plan(r: Round, name: str, config):
    return r.step(name, lambda: SyntheticTraceGenerator(config).plan())


def _replay(ctx: Context, r: Round, name: str, plan, k: int = 0,
            n_jobs: int = 1, faults=None, also=None, **kwargs):
    """A replay step of incident ``k``: returns ``(cluster, dataset)``.

    ``also`` adds workload-specific checks of the replayed dataset.
    """
    holder = {}

    def body():
        holder["cluster"] = U1Cluster(ctx.spec.cluster_config(ctx.seeds[k],
                                                              faults))
        return holder["cluster"].replay_plan(plan, n_jobs=n_jobs, **kwargs)

    def check(dataset):
        cluster = holder["cluster"]
        problems = checks.check_streams(dataset, ctx.configs[k])
        if faults is None:
            problems += checks.check_downloads(cluster, dataset)
        r.replayed(name, cluster, dataset, jobs1=n_jobs == 1)
        problems += ctx.same_as_before(r, name)
        return problems + (also(dataset) if also is not None else [])

    dataset = r.step(name, body, check)
    return holder.get("cluster"), dataset


def _table3(dataset) -> list[str]:
    return checks.check_table3(trace_summary(dataset), dataset)


def report_round(ctx: Context, r: Round, extra_check) -> None:
    """``repro report`` once per incident: plan, replay at one job, every
    analysis.  ``extra_check(k, dataset, report)`` holds the workload's own
    checks of incident ``k``."""
    for k, config in enumerate(ctx.configs):
        tag = ctx.tag(k)
        plan = _plan(r, "plan" + tag, config)
        cluster, dataset = _replay(ctx, r, "replay" + tag, plan, k)
        r.step("report" + tag, lambda: report_mod.full_report(dataset),
               lambda report: (checks.check_table3(report["table3"], dataset)
                               + extra_check(k, dataset, report)))
        if r.broken:
            return
        r.add_trace(dataset, cluster, plan, r.seconds["plan" + tag],
                    r.seconds["replay" + tag])
    tags = [ctx.tag(k) for k in range(len(ctx.configs))]
    analysis = sum(r.seconds["report" + tag] for tag in tags)
    replay = sum(r.seconds["replay" + tag] for tag in tags)
    r.figures["report_s"] = r.job_s
    r.figures["jobs1_replay_s"] = replay
    r.finish(analysis)


def organic_round(ctx: Context, r: Round) -> None:
    """``repro report`` at one job, then the same plan replayed by supervised
    workers with a checkpoint directory and resumed from it; both must
    reproduce the one-job trace."""
    plan = _plan(r, "plan", ctx.configs[0])
    cluster, dataset = _replay(ctx, r, "replay", plan)
    r.step("report", lambda: report_mod.full_report(dataset),
           lambda report: (checks.check_table3(report["table3"], dataset)
                           + checks.check_organic(dataset, report)))
    directory = ctx.workdir / "checkpoints"
    shutil.rmtree(directory, ignore_errors=True)
    digests = r.info["digests"]
    jobs2, _ = _replay(ctx, r, "replay_jobs2", plan,
                       n_jobs=SUPERVISED_JOBS, checkpoint_dir=directory,
                       also=lambda _: checks.check_equal(
                           "jobs-2 vs jobs-1", digests["replay_jobs2"],
                           digests["replay"]))
    _replay(ctx, r, "resume", plan, n_jobs=SUPERVISED_JOBS,
            checkpoint_dir=directory, resume=True,
            also=lambda _: checks.check_equal(
                "resume", digests["resume"], digests["replay"]))
    shutil.rmtree(directory, ignore_errors=True)
    if r.broken:
        return
    r.add_trace(dataset, cluster, plan, r.seconds["plan"], r.seconds["replay"])
    r.finish(r.seconds["report"])
    # After finish(): the IPC and imbalance figures are the two-worker
    # replay's, not the one-job replay's.
    r.figures.update({
        "report_s": (r.seconds["plan"] + r.seconds["replay"]
                     + r.seconds["report"]),
        "jobs1_replay_s": r.seconds["replay"],
        "resume_s": r.seconds["resume"],
        "jobs2_speedup": r.seconds["replay"] / r.seconds["replay_jobs2"],
        "ipc_bytes_per_record": (jobs2.last_replay_stats["ipc_block_bytes"]
                                 / checks.n_records(dataset)),
        "shard_imbalance": jobs2.last_replay_stats["shard_imbalance"],
    })


def flood_round(ctx: Context, r: Round) -> None:
    def check(k, dataset, report):
        problems, stray = checks.flood_windows(report, ctx.configs[k])
        r.info["fig5_stray_windows"] = r.info.get("fig5_stray_windows",
                                                  0) + stray
        if k == len(ctx.configs) - 1:
            # Over the whole round, this incident's records included.
            families = dict(r.info["families"])
            for name, n in checks.family_counts(dataset).items():
                families[name] = families.get(name, 0) + n
            storage = sum(families[name] for name in (
                "records.upload", "records.download", "records.mutation",
                "records.metadata"))
            problems += checks.check_attack_share(
                families["records.attack"], storage)
        return problems

    report_round(ctx, r, check)


def offline_round(ctx: Context, r: Round) -> None:
    """Healthy replay, what-if sweep, faulted replay and mitigation sweep,
    all on one exact single store, then the logfile round trip of the
    healthy trace."""
    config = ctx.configs[0]
    plan = _plan(r, "plan", config)
    cluster, dataset = _replay(ctx, r, "replay", plan, also=_table3)
    r.step("whatif",
           lambda: run_sweep(dataset, cost_model=cluster.config.cost_model,
                             chunk_bytes=cluster.config.multipart_chunk_bytes,
                             end_time=cluster.last_replay_stats["timeline_end"]),
           lambda sweep: checks.check_whatif(sweep, cluster))
    fault_plan = default_fault_plan(config.start_time,
                                    config.duration_days * DAY,
                                    seed=ctx.seeds[0])
    faulted_cluster, faulted = _replay(ctx, r, "fault_replay", plan,
                                       faults=fault_plan, also=_table3)
    r.step("faultsweep",
           lambda: run_fault_sweep(faulted, faulted_cluster.fault_schedule,
                                   config=faulted_cluster.config),
           lambda sweep: checks.check_faultsweep(
               sweep, faulted_cluster.last_replay_stats["fault_counters"]))
    r.step("release", lambda: _release(ctx, r, dataset),
           lambda restored: _check_release(ctx, r, dataset, restored))
    if r.broken:
        return
    r.add_trace(dataset, cluster, plan, r.seconds["plan"], r.seconds["replay"])
    # Error and retry rows exist only in the faulted replay.
    faulted_counts = checks.family_counts(faulted)
    for name in ("records.faulted", "records.retried"):
        r.info["families"][name] = faulted_counts[name]
    n = checks.n_records(dataset)
    r.figures.update({
        "jobs1_replay_s": r.seconds["replay"],
        "whatif_s": r.seconds["whatif"],
        "faultsweep_s": r.seconds["faultsweep"],
        "fault_replay_s": r.seconds["fault_replay"],
        "fault_records_per_s": (checks.n_records(faulted)
                                / r.seconds["fault_replay"]),
        "release_records_per_s": n / r.seconds["release"],
        "logfile.bytes_per_record": r.info["logfile_bytes"] / n,
    })
    # The two sweeps alone: the logfile round trip, about as long as the
    # rest of the round, counts in job_us_per_record.
    r.finish(r.seconds["whatif"] + r.seconds["faultsweep"])


def _release(ctx: Context, r: Round, dataset):
    """Write the trace as per-process logfiles and read it back."""
    directory = ctx.workdir / "release"
    shutil.rmtree(directory, ignore_errors=True)
    started = time.perf_counter()
    paths = logfile.write_trace_directory(directory, dataset)
    written = time.perf_counter()
    restored = logfile.read_trace_directory(directory)
    r.figures["logfile.write_s"] = written - started
    r.figures["logfile.read_s"] = time.perf_counter() - written
    r.info["logfile_bytes"] = sum(path.stat().st_size for path in paths)
    return restored


def _check_release(ctx: Context, r: Round, original, restored) -> list[str]:
    """Counts and Table 3 integers survive; a second trip is bit-identical.

    The format rounds timestamps to 1 us, so only the second write/read
    of an already-rounded trace must reproduce it exactly.  The second trip
    runs in the first round; later rounds must repeat its first-trip digest.
    """
    problems = checks.check_release(original, trace_summary, restored)
    r.info["digests"]["release"] = restored.content_digest()
    if "release" not in ctx.reference:
        directory = ctx.workdir / "release2"
        shutil.rmtree(directory, ignore_errors=True)
        logfile.write_trace_directory(directory, restored)
        again = logfile.read_trace_directory(directory)
        shutil.rmtree(directory, ignore_errors=True)
        problems += checks.check_equal("second logfile round trip",
                                       again.content_digest(),
                                       r.info["digests"]["release"])
    shutil.rmtree(ctx.workdir / "release", ignore_errors=True)
    return problems + ctx.same_as_before(r, "release")


WORKLOADS = {
    "organic": (Spec("organic", users=3000, days=7, attacks=False),
                organic_round),
    "flood": (Spec("flood", users=500, days=3, attacks=True, incidents=4),
              flood_round),
    "offline": (Spec("offline", users=900, days=7, attacks=True,
                     single_store=True), offline_round),
}
