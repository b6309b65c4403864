"""Spans around the engines' layer entry points, wrapped from outside.

``Tracer.install`` replaces each entry point in ``LAYERS`` with a wrapper
that, while the tracer is enabled, times the call and charges it to its
layer. Spans nest: a layer's self time is its spans' time minus the time
of the spans nested inside them, so the self times of all layers under one
``apply_batch`` add up to that batch's wall time (less the tracer's own
bookkeeping, which is kept apart as ``overhead_s``). While disabled, a
wrapper only forwards the call.

Spark jobs are counted two ways. A scope (one set-up or one batch) counts
every job the driver submitted during it, as the advance of the
DAGScheduler's next job id. Each frontier call runs under a job group of
its own, and every other job under the group of the enclosing scope, which
``scope`` sets; ``scope_jobs`` reads these groups as soon as the scope
ends, after Spark's listener bus has caught up, so each list is complete
and far below ``spark.ui.retainedJobs``. Jobs that the id counts but no
group holds ran on a thread without the group (``ungrouped_jobs``).
"""
from __future__ import annotations

import itertools
import time
from collections import defaultdict

import pandas as pd

from repro.bloom.bloom import BloomFilter
from repro.core import engine as engine_mod
from repro.core import frontier as fr
from repro.core import static_ife
from repro.core.dropping import DropManager
from repro.core.engine import DCJODEngine
from repro.core.store import DiffStore
from repro.core.vdc import VDCEngine


def _frontier_rows(args, kwargs) -> int:
    """Rows of the pandas frames handed to one frontier call."""
    return sum(len(a) for a in itertools.chain(args, kwargs.values()) if isinstance(a, pd.DataFrame))


def _dropped_rows(args, out) -> int:
    """New difference rows that ``DropManager.filter_new_rows`` dropped."""
    return len(args[1]) - len(out)


# (owner, attribute, layer). A class attribute is wrapped on the class that
# defines it, so subclasses that inherit it are traced too.
LAYERS = [
    *[(fr, f, "frontier") for f in ("aggregate_at", "push_messages", "raw_messages", "aggregate_msgs")],
    *[(DiffStore, m, "store.read") for m in ("latest_leq", "rows_for_keys", "snapshot_at", "iters_after", "iters_of")],
    *[(DiffStore, m, "store.write") for m in ("set_rows", "delete_rows")],
    (DCJODEngine, "_seed_schedule", "schedule"),
    (DCJODEngine, "_expand_schedule", "schedule"),
    (DCJODEngine, "_states_for", "resolve"),
    *[(DropManager, m, "dropping") for m in (
        "filter_new_rows", "latest_dropped_in", "dropped_iters_after", "count_recomputations", "dropped_keys",
    )],
    (BloomFilter, "add", "bloom"),
    (BloomFilter, "contains", "bloom"),
    *[(VDCEngine, m, "vdc") for m in (
        "_on_batch_start", "_on_changed", "_rebuild_sender_messages", "_j_upsert",
        "_j_delete_sender", "_messages_at", "_sender_states", "_recompute",
    )],
    (engine_mod, "apply_batch", "graph"),  # repro.graphs.updates.apply_batch as the engine imports it
    (DCJODEngine, "_refresh_graph", "graph"),
    (fr, "edges_to_spark", "graph"),
    (DCJODEngine, "apply_batch", "engine"),
    (static_ife, "run_static", "static"),
]


class Tracer:
    def __init__(self, sc) -> None:
        self.sc = sc
        self.enabled = False
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._gids = itertools.count()
        self._scope_gid = "bench-idle"
        self._scope_job0 = 0
        self._frontier_gids: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.overhead_s = 0.0
        self.ungrouped_jobs = 0

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        """Wrap every entry point in LAYERS, for the rest of the process."""
        for owner, name, layer in LAYERS:
            setattr(owner, name, self._wrap(owner.__dict__[name], layer))

    def _wrap(self, fn, layer: str):
        frontier = layer == "frontier"
        drops = fn.__name__ == "filter_new_rows"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            b0 = time.perf_counter()
            if frontier:
                gid = f"bench-f{next(self._gids)}"
                self.sc.setJobGroup(gid, layer)
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                self.self_s[layer] += dur - frame[0]
                self.total_s[layer] += dur
                self.calls[layer] += 1
            if frontier:
                self._frontier_gids.append(gid)
                self.sc.setJobGroup(self._scope_gid, "scope")
                self.counts["frontier.rows_in"] += _frontier_rows(args, kwargs)
                self.counts["frontier.rows_out"] += len(out)
            if drops:
                self.counts["dropping.dropped"] += _dropped_rows(args, out)
            b1 = time.perf_counter()
            self.overhead_s += (b1 - b0) - dur
            if self._stack:
                self._stack[-1][0] += b1 - b0
            return out

        return wrapper

    # -------------------------------------------------------------- scopes
    def _next_job_id(self) -> int:
        return self.sc._jsc.sc().dagScheduler().nextJobId()

    def scope(self, gid: str) -> None:
        """Run the jobs that follow, outside frontier calls, under ``gid``."""
        self._scope_gid = gid
        self.sc.setJobGroup(gid, "scope")
        self._scope_job0 = self._next_job_id()

    def _jobs(self, gid: str) -> int:
        return len(self.sc.statusTracker().getJobIdsForGroup(gid))

    def scope_jobs(self) -> int:
        """Jobs submitted since ``scope``, frontier calls included."""
        total = self._next_job_id() - self._scope_job0
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        frontier = sum(self._jobs(g) for g in self._frontier_gids)
        self._frontier_gids.clear()
        self.counts["frontier.spark_jobs"] += frontier
        self.ungrouped_jobs += total - frontier - self._jobs(self._scope_gid)
        return total
