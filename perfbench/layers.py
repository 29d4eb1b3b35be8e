"""Per-layer tracing from outside the program.

:class:`Tracer` swaps timing wrappers in for the public functions of each
layer (module functions, methods and classmethods), keeps one span per call
in memory -- name, start, end and the index of the enclosing span -- and
restores the originals on :meth:`Tracer.uninstall`.  Nothing inside the
package is changed on disk; calls made in forked replay workers are not
seen, which is why the traced run replays at one job.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

#: Analyses of ``repro.core.report.full_report``: metric key -> (module,
#: function).  ``fig9`` covers both burstiness calls (upload and unlink).
ANALYSES = {
    "table3": ("repro.core.summary", "trace_summary"),
    "fig2a": ("repro.core.storage_workload", "traffic_timeseries"),
    "fig2b": ("repro.core.storage_workload", "traffic_by_size_category"),
    "fig2c": ("repro.core.storage_workload", "rw_ratio_analysis"),
    "updates": ("repro.core.storage_workload", "update_traffic_share"),
    "fig3ab": ("repro.core.file_dependencies", "file_dependencies"),
    "fig3b_downloads": ("repro.core.file_dependencies", "downloads_per_file"),
    "fig3c": ("repro.core.node_lifetime", "node_lifetimes"),
    "fig4a": ("repro.core.deduplication", "deduplication_analysis"),
    "fig4b": ("repro.core.file_types", "file_size_analysis"),
    "fig4c": ("repro.core.file_types", "category_shares"),
    "fig5": ("repro.core.anomaly", "detect_anomalies"),
    "fig6": ("repro.core.user_activity", "online_active_users"),
    "fig7a": ("repro.core.user_activity", "operation_counts"),
    "fig7b": ("repro.core.user_traffic", "per_user_traffic"),
    "fig7c": ("repro.core.user_traffic", "traffic_inequality"),
    "user_classes": ("repro.core.user_traffic", "classify_users"),
    "fig8": ("repro.core.request_graph", "build_transition_graph"),
    "fig9": ("repro.core.burstiness", "burstiness_analysis"),
    "fig10": ("repro.core.volumes", "volume_contents"),
    "fig11": ("repro.core.volumes", "volume_type_distribution"),
    "fig12": ("repro.core.rpc_performance", "rpc_service_times"),
    "fig13": ("repro.core.rpc_performance", "rpc_scatter"),
    "fig14_api": ("repro.core.load_balancing", "api_server_load"),
    "fig14_shards": ("repro.core.load_balancing", "shard_load"),
    "fig15": ("repro.core.sessions", "auth_activity"),
    "fig16": ("repro.core.sessions", "session_analysis"),
    "economics": ("repro.core.report", "storage_economics"),
    "table1": ("repro.core.findings", "compute_findings"),
}

#: The other wrapped layer entry points: span name -> (module, attribute
#: path).  Span names of the per-policy passes take the policy's name.
ENTRY_POINTS = {
    "plan": ("repro.workload.generator", "SyntheticTraceGenerator.plan"),
    "materialize": ("repro.workload.generator", "materialize_members"),
    "shard_run": ("repro.backend.replay_shard", "ReplayShard.run"),
    "merge": ("repro.trace.dataset", "TraceDataset.from_sorted_blocks"),
    "digest": ("repro.trace.dataset", "TraceDataset.content_digest"),
    "checkpoint_save": ("repro.util.checkpoint", "CheckpointStore.save"),
    "report": ("repro.core.report", "full_report"),
    "whatif.decode": ("repro.whatif.simulator", "StorageTrace.from_dataset"),
    "whatif.policy": ("repro.whatif.sweep", "simulate_policy"),
    "faultsweep.decode": ("repro.faults.simulator", "FaultTrace.from_dataset"),
    "faultsweep.policy": ("repro.faults.sweep", "simulate_mitigation"),
}


def _policy_name(span: str, args) -> str:
    """``whatif.policy`` -> ``whatif.<spec name>`` and likewise for faults."""
    if span == "whatif.policy":
        return f"whatif.{args[1].name}"
    if span == "faultsweep.policy":
        return f"faultsweep.{args[2].name}"
    return span


class Tracer:
    """Timing wrappers around layer entry points, spans kept in memory."""

    def __init__(self):
        #: ``[name, start, end, parent index or -1]`` per call, in call order.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    # --------------------------------------------------------- wrappers
    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.begin(_policy_name(name, args))
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    def patch(self, module: str, path: str, name: str) -> None:
        """Replace ``module.path`` (``func`` or ``Class.attr``) by a wrapper."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__))
        else:
            replacement = self._wrap(name, original)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def install(self) -> "Tracer":
        for name, (module, path) in ENTRY_POINTS.items():
            self.patch(module, path, name)
        for key, (module, path) in ANALYSES.items():
            self.patch(module, path, f"analysis.{key}")
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------- summaries
    def totals(self, since: int = 0) -> dict[str, float]:
        """Total seconds per span name over spans ``since`` onwards."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans[since:]:
            out[name] += end - start
        return dict(out)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name not covered by a direct child span."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans[since:]:
            out[name] += end - start
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def report_children(self, since: int = 0) -> dict[str, float]:
        """Seconds of each analysis called directly by ``full_report``."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since and self.spans[parent][0] == "report":
                out[name] += end - start
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
