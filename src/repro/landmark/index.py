"""Scratch-Landmark: pruned SPSP via differentially maintained landmarks (§6.6).

The paper's final experiment improves the SCRATCH baseline by maintaining a
landmark index — single-source shortest distances from the 10 highest-degree
vertices — with Diff-IFE, and using it to prune Bellman-Ford:

* upper bound  ub(s, d) = min_l dist(s→l) + dist(l→d)
* lower bound  lb(v, d) = max_l max( dist(v→l) − dist(d→l),
                                     dist(l→d) − dist(l→v), 0 )
* a vertex v visited at distance k is pruned when k + lb(v, d) > ub(s, d).

Directed distances to a landmark (dist(v→l)) come from a second Diff-IFE
engine running SSSP from l over the reversed edge set. Per batch, both
index engines are maintained differentially (their cost is charged to
Scratch-Landmark, as in the paper), then every registered SPSP query is
re-run from scratch with the pruning filter.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.engine import DCJODEngine
from repro.core.specs import INF, sssp_spec
from repro.core.static_ife import run_static
from repro.graphs.updates import Batch, apply_batch


def top_degree_vertices(edges: pd.DataFrame, n: int) -> list[int]:
    deg = edges.groupby("src").size().add(edges.groupby("dst").size(), fill_value=0)
    return [int(v) for v in deg.sort_values(ascending=False).head(n).index]


def _reverse(edges: pd.DataFrame) -> pd.DataFrame:
    return edges.rename(columns={"src": "dst", "dst": "src"})[edges.columns]


class LandmarkIndex:
    """Forward and reverse landmark SSSP indices, maintained with Diff-IFE."""

    def __init__(self, spark: SparkSession, edges: pd.DataFrame, landmarks: list[int]):
        self.landmarks = landmarks
        spec = sssp_spec({i: l for i, l in enumerate(landmarks)})
        self.fwd = DCJODEngine(spark, spec, edges)  # dist(l -> v)
        self.rev = DCJODEngine(spark, spec, _reverse(edges))  # dist(v -> l)

    def apply_batch(self, batch: Batch) -> float:
        t0 = time.perf_counter()
        self.fwd.apply_batch(batch)
        self.rev.apply_batch(Batch(_reverse(batch.changes)))
        return time.perf_counter() - t0

    def matrices(self, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
        """(L × V) dense distance matrices (inf where unreachable)."""
        L = len(self.landmarks)
        fwd = np.full((L, n_vertices), INF)
        rev = np.full((L, n_vertices), INF)
        for mat, eng in ((fwd, self.fwd), (rev, self.rev)):
            st = eng.final_states()
            mat[st["qid"].astype(int).to_numpy(), st["v"].astype(int).to_numpy()] = st[
                "val"
            ].to_numpy()
        return fwd, rev

    def close(self) -> None:
        self.fwd.close()
        self.rev.close()

    def memory_bytes(self) -> int:
        return (
            self.fwd.memory_bytes()["total_bytes"] + self.rev.memory_bytes()["total_bytes"]
        )


def make_prune_fn(
    fwd: np.ndarray, rev: np.ndarray, targets: dict[int, int]
) -> "callable":
    """Build the per-iteration keep-mask for the pruned Bellman-Ford run."""
    qids = sorted(targets)
    qpos = {q: i for i, q in enumerate(qids)}
    d_arr = np.array([targets[q] for q in qids])
    # Per-query landmark constants (L × Q).
    rev_d = rev[:, d_arr]  # dist(d -> l)
    fwd_d = fwd[:, d_arr]  # dist(l -> d)
    # ub(s, d) is bound per query once sources are known (bind_sources).
    ub_cache = np.full(len(qids), INF)

    def prune(cand: pd.DataFrame, it: int) -> np.ndarray:
        v = cand["v"].astype(int).to_numpy()
        qi = cand["qid"].map(qpos).to_numpy()
        k = cand["val"].to_numpy()
        rv = rev[:, v]  # dist(v -> l), L × |cand|
        fv = fwd[:, v]  # dist(l -> v)
        rd = rev_d[:, qi]
        fd = fwd_d[:, qi]
        # Triangle-inequality lower bounds; unreachable landmark entries
        # contribute nothing (0). errstate: np.where evaluates the inf-inf
        # branch even where the mask discards it.
        with np.errstate(invalid="ignore"):
            lb1 = np.where(np.isfinite(rv) & np.isfinite(rd), rv - rd, 0.0)
            lb2 = np.where(np.isfinite(fd) & np.isfinite(fv), fd - fv, 0.0)
        lb = np.maximum(np.maximum(lb1, lb2), 0.0).max(axis=0) if len(v) else np.zeros(0)
        return k + lb <= ub_cache[qi]

    def bind_sources(sources: dict[int, int]) -> None:
        s_arr = np.array([sources[q] for q in qids])
        rs = rev[:, s_arr]  # dist(s -> l)
        with np.errstate(invalid="ignore"):
            cand = np.where(np.isfinite(rs) & np.isfinite(fwd_d), rs + fwd_d, INF)
        ub_cache[:] = cand.min(axis=0)

    prune.bind_sources = bind_sources
    return prune


@dataclass
class LandmarkResult:
    scratch_s: float
    landmark_s: float
    improvement_pct: float
    scratch_batches: list
    landmark_batches: list
    # Work metric: vertex-state explorations per batch (trace rows). At
    # reproduction scale Spark's per-iteration job latency dominates wall
    # clock, so the pruning benefit shows here first (see EXPERIMENTS.md).
    scratch_explored: int = 0
    landmark_explored: int = 0


def run_landmark_experiment(
    spark: SparkSession,
    edges: pd.DataFrame,
    batches: list[Batch],
    sources: dict[int, int],
    targets: dict[int, int],
    *,
    n_landmarks: int = 10,
) -> LandmarkResult:
    """Scratch vs Scratch-Landmark on the same SPSP workload (Fig. 9)."""
    n_vertices = int(max(edges["src"].max(), edges["dst"].max())) + 1
    spec = sssp_spec(sources, targets=targets)

    # SCRATCH: full Bellman-Ford per batch.
    scratch_times = []
    scratch_explored = 0
    cur = edges
    run_static(spark, cur, spec)
    for b in batches:
        t0 = time.perf_counter()
        cur = apply_batch(cur, b)
        res = run_static(spark, cur, spec)
        scratch_times.append(time.perf_counter() - t0)
        scratch_explored += len(res.trace)

    # SCRATCH-LANDMARK: maintain indices differentially, then pruned runs.
    lmarks = top_degree_vertices(edges, n_landmarks)
    idx = LandmarkIndex(spark, edges, lmarks)
    lm_times = []
    lm_explored = 0
    cur = edges
    try:
        for b in batches:
            t0 = time.perf_counter()
            cur = apply_batch(cur, b)
            idx.apply_batch(b)
            n_v = max(n_vertices, int(max(cur["src"].max(), cur["dst"].max())) + 1)
            fwd, rev = idx.matrices(n_v)
            prune = make_prune_fn(fwd, rev, targets)
            prune.bind_sources(sources)
            res = run_static(spark, cur, spec, prune=prune)
            lm_times.append(time.perf_counter() - t0)
            lm_explored += len(res.trace)
    finally:
        idx.close()

    s_total, l_total = float(np.sum(scratch_times)), float(np.sum(lm_times))
    return LandmarkResult(
        scratch_s=s_total,
        landmark_s=l_total,
        improvement_pct=100.0 * (1 - l_total / s_total) if s_total else 0.0,
        scratch_batches=scratch_times,
        landmark_batches=lm_times,
        scratch_explored=scratch_explored,
        landmark_explored=lm_explored,
    )
