"""Scratch: the static IFE run (§3.2), also used to populate the G0 trace.

This is the paper's SCRATCH baseline — "simply executing each query from
scratch after every batch of changes" — implemented as the incremental
fixed-point style the paper cites from the DD paper's Fig. 1: only vertices
whose values changed in an iteration propagate in that iteration. For the
min-aggregator queries this produces the identical per-iteration trace as
self-free recomputation (monotone-relaxation equivalence, DESIGN.md §5),
which is what lets the differential engines bootstrap their G0 difference
sets from this run. PageRank recomputes every vertex for a fixed number of
iterations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import frontier as fr
from repro.core.specs import STATE_DECIMALS, QuerySpec

# Keep-mask callback for landmark pruning: (candidates, iteration) -> mask.
PruneFn = Callable[[pd.DataFrame, int], np.ndarray]

_SAFETY_CAP = 100_000


@dataclass
class StaticResult:
    """Final states, the per-iteration difference trace, iterations used."""

    final: pd.DataFrame  # (qid, v, val)
    trace: pd.DataFrame  # (qid, v, it, val) — one row per state change
    n_iters: int


def vertices_of(edges: pd.DataFrame) -> np.ndarray:
    return np.union1d(edges["src"].unique(), edges["dst"].unique()).astype(np.int64)


def outdegrees(edges: pd.DataFrame) -> pd.Series:
    return edges.groupby("src").size().astype(np.float64)


def initial_states(spec: QuerySpec, edges: pd.DataFrame) -> pd.DataFrame:
    """Iteration-0 states: source bases, or a base at every vertex."""
    if spec.base_all:
        vs = vertices_of(edges)
        val = vs.astype(np.float64) if spec.kind == "wcc" else np.full(len(vs), 1.0)
        return pd.DataFrame(
            {"qid": np.zeros(len(vs), np.int64), "v": vs, "it": np.int64(0), "val": val}
        )
    rows = [(qid, src, 0, 0.0) for qid, src in spec.sources.items()]
    return pd.DataFrame(rows, columns=["qid", "v", "it", "val"]).astype(
        {"qid": np.int64, "v": np.int64, "it": np.int64, "val": np.float64}
    )


def base_rows(spec: QuerySpec, frontier_keys: pd.DataFrame) -> pd.DataFrame:
    """Base contributions feeding the aggregation for the given frontier."""
    if spec.base_all:
        out = frontier_keys[["qid", "v"]].copy()
        out["val"] = (
            out["v"].astype(np.float64) if spec.kind == "wcc" else 0.15
        )
        return out
    src_rows = pd.DataFrame(
        [(qid, s, 0.0) for qid, s in spec.sources.items()], columns=["qid", "v", "val"]
    )
    return src_rows.merge(frontier_keys[["qid", "v"]], on=["qid", "v"], how="inner")


def _round(vals: pd.Series) -> pd.Series:
    return vals.round(STATE_DECIMALS)


def run_static(
    spark: SparkSession,
    edges: pd.DataFrame,
    spec: QuerySpec,
    *,
    edges_sp: DataFrame | None = None,
    prune: PruneFn | None = None,
) -> StaticResult:
    """Run the static IFE to its stop condition; record the change trace."""
    own_edges = edges_sp is None
    if own_edges:
        edges_sp = fr.edges_to_spark(spark, edges)
    try:
        if spec.kind == "pr":
            return _run_pr(spark, edges, edges_sp, spec)
        return _run_min(spark, edges, edges_sp, spec, prune)
    finally:
        if own_edges:
            edges_sp.unpersist()


def _run_min(spark, edges, edges_sp, spec, prune) -> StaticResult:
    init = initial_states(spec, edges)
    trace = [init]
    cur = init[["qid", "v", "val"]].copy()
    changed = cur.copy()
    i = 0
    while len(changed):
        i += 1
        if spec.max_iters is not None and i > spec.max_iters:
            i -= 1
            break
        if i > _SAFETY_CAP:
            raise RuntimeError("static IFE failed to converge")
        msgs = fr.push_messages(spark, edges_sp, changed.rename(columns={"v": "w"}), spec)
        if not len(msgs):
            changed = msgs
            break
        cand = msgs.merge(cur, on=["qid", "v"], how="left", suffixes=("", "_cur"))
        better = cand["val_cur"].isna() | (_round(cand["val"]) < _round(cand["val_cur"]))
        cand = cand[better][["qid", "v", "val"]]
        if prune is not None and len(cand):
            cand = cand[prune(cand, i)]
        if not len(cand):
            changed = cand
            break
        cand = cand.reset_index(drop=True)
        cur = (
            pd.concat([cur, cand], ignore_index=True)
            .drop_duplicates(subset=["qid", "v"], keep="last")
            .reset_index(drop=True)
        )
        trace.append(cand.assign(it=np.int64(i))[["qid", "v", "it", "val"]])
        changed = cand
    trace_df = pd.concat(trace, ignore_index=True)
    return StaticResult(final=cur.reset_index(drop=True), trace=trace_df, n_iters=i)


def _run_pr(spark, edges, edges_sp, spec) -> StaticResult:
    init = initial_states(spec, edges)
    outdeg = outdegrees(edges)
    trace = [init]
    cur = init[["qid", "v", "val"]].copy()
    all_keys = cur[["qid", "v"]]
    bases = base_rows(spec, all_keys)
    for i in range(1, spec.max_iters + 1):
        states = cur.rename(columns={"v": "w"}).copy()
        states["aux"] = states["w"].map(outdeg).fillna(1.0)
        new = fr.aggregate_at(spark, edges_sp, all_keys, states, bases, spec)
        new = all_keys.merge(new, on=["qid", "v"], how="left")
        # Vertices with no in-messages keep only their base contribution.
        new["val"] = new["val"].fillna(0.15)
        old = cur.rename(columns={"val": "val_old"})
        cmp = new.merge(old, on=["qid", "v"], how="left")
        ch = cmp[_round(cmp["val"]) != _round(cmp["val_old"])][["qid", "v", "val"]]
        if len(ch):
            trace.append(ch.assign(it=np.int64(i))[["qid", "v", "it", "val"]])
        cur = new[["qid", "v", "val"]]
        if not len(ch):
            break
    trace_df = pd.concat(trace, ignore_index=True)
    return StaticResult(final=cur.reset_index(drop=True), trace=trace_df, n_iters=i)
