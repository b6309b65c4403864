"""The IFE ExpandFrontier operator pair (Fig. 1) as Spark DataFrame jobs.

One builder, :func:`_join_agg`, makes every plan: the Join operator
(edges ⋈ sender states, restricted to a receiver frontier when one is
given) feeding the aggregation operator (groupBy + min/sum), exactly the
dataflow in Fig. 1b. Rows that need no join (base contributions, or
messages that are already materialized) are unioned into the aggregation's
input. Each call is one Catalyst job. Four entry points name its uses:

* :func:`aggregate_at` — recomputation-style: for each frontier vertex v,
  ``D[v] = agg(base(v), { f(state_w, e) : e=(w,v) })``. Used by DC^JOD
  recomputation, by dropped-difference recomputation, and by PageRank.
* :func:`push_messages` — frontier-style: messages from changed vertices to
  their out-neighbours, pre-aggregated per destination. Used by the static
  (Scratch) engine. For min-aggregators the two styles produce identical
  traces (monotone-relaxation equivalence; see DESIGN.md §5).
* :func:`raw_messages` — the Join output kept per sender, grouped by
  (qid, v, w[, it]): VDC's δJ differences.
* :func:`aggregate_msgs` — aggregation over already-materialized messages
  plus base (VDC reassembling J from its δJ store).

All inputs/outputs at this boundary are pandas frames (the driver-side
arrangement); the join/aggregate work itself is Spark SQL. Broadcast joins
stay disabled by the session, so the shuffle path is exercised. Each
entry point keeps its own plan shape (join order, join keys, union and
groupBy keys), so its Spark jobs and output row order stay fixed: the
drop policies draw one random number per row in that order.
"""
from __future__ import annotations

from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.specs import QuerySpec

_LONG_COLS = ("qid", "v", "w", "it", "src", "dst")


def _frame(spark: SparkSession, df: pd.DataFrame, cols: list[str]) -> DataFrame:
    """``df[cols]`` as a Spark frame: ids and iterations long, values double."""
    is_long = [c in _LONG_COLS for c in cols]
    pdf = pd.DataFrame(
        {c: df[c].astype(np.int64 if lg else np.float64) for c, lg in zip(cols, is_long)}
    )
    schema = T.StructType(
        [T.StructField(c, T.LongType() if lg else T.DoubleType()) for c, lg in zip(cols, is_long)]
    )
    return spark.createDataFrame(pdf, schema=schema)


def _empty(cols: list[str]) -> pd.DataFrame:
    return pd.DataFrame(
        {c: pd.Series(dtype=np.int64 if c in _LONG_COLS else np.float64) for c in cols}
    )


def edges_to_spark(spark: SparkSession, edges: pd.DataFrame) -> DataFrame:
    """Lift the current graph version's edges into a (persisted) Spark DF."""
    return _frame(spark, edges, ["src", "dst", "weight"]).persist()


def _message_col(spec: QuerySpec):
    """The Join operator's message expression f(state_w, edge)."""
    if spec.kind == "sssp":
        return F.col("val") + F.col("weight")
    if spec.kind in ("khop", "rpq"):
        return F.col("val") + F.lit(1.0)
    if spec.kind == "wcc":
        return F.col("val")
    if spec.kind == "pr":
        return F.lit(0.85) * F.col("val") / F.col("aux")
    raise ValueError(spec.kind)


def _join_agg(
    spark: SparkSession,
    spec: QuerySpec,
    keys: tuple[str, ...],
    *,
    edges_sp: DataFrame | None = None,
    senders: pd.DataFrame | None = None,
    frontier: pd.DataFrame | None = None,
    local: tuple[pd.DataFrame, ...] = (),
) -> pd.DataFrame:
    """agg over ``keys`` of the Join's messages ∪ the ``local`` rows.

    senders:  (qid, w, val[, aux][, it]) — states sending along out-edges
              (aux = sender out-degree for PR, 1 when absent).
    frontier: (qid, v) — when given, only these receivers get messages, and
              an empty frontier gives an empty result.
    local:    (qid, v, val) frames aggregated as they are (base rows,
              materialized messages), concatenated into one Spark frame.
    keys:     (qid, v), or (qid, v, w[, it]) to keep messages per sender.

    Returns ``keys`` + val; keys with no input rows are absent.
    """
    out_cols = [*keys, "val"]
    if frontier is not None and not len(frontier):
        return _empty(out_cols)
    parts = []
    if senders is not None and len(senders):
        if "aux" not in senders.columns:
            senders = senders.assign(aux=1.0)
        st = _frame(spark, senders, ["qid", "w", "val", "aux", *keys[3:]])
        e = edges_sp
        if frontier is None:
            joined = e.join(st, on=e["src"] == st["w"], how="inner")
            col = {"qid": st["qid"], "v": e["dst"]}
        else:
            fq = _frame(spark, frontier, ["qid", "v"])
            joined = e.join(fq, on=e["dst"] == fq["v"], how="inner").join(
                st, on=(e["src"] == st["w"]) & (fq["qid"] == st["qid"]), how="inner"
            )
            col = {"qid": fq["qid"], "v": fq["v"]}
        sel = [(col[k] if k in col else st[k]).alias(k) for k in keys]
        parts.append(joined.select(*sel, _message_col(spec).alias("mval")))
    local = [f[out_cols] for f in local if len(f)]
    if local:
        rows = _frame(spark, pd.concat(local, ignore_index=True), out_cols)
        parts.append(rows.select(*keys, F.col("val").alias("mval")))
    if not parts:
        return _empty(out_cols)
    agg = F.min("mval") if spec.agg == "min" else F.sum("mval")
    return reduce(DataFrame.unionByName, parts).groupBy(*keys).agg(agg.alias("val")).toPandas()


def aggregate_at(
    spark: SparkSession,
    edges_sp: DataFrame,
    frontier: pd.DataFrame,
    states: pd.DataFrame,
    base: pd.DataFrame,
    spec: QuerySpec,
) -> pd.DataFrame:
    """Recompute the aggregation for every frontier vertex.

    frontier: (qid, v) — vertices whose aggregation reruns.
    states:   (qid, w, val[, aux]) — in-neighbour states at the previous
              iteration (aux = sender out-degree for PR).
    base:     (qid, v, val) — base contributions for frontier vertices.

    Returns (qid, v, val). Frontier vertices with no messages and no base
    are absent (= unreachable / +inf to the caller).
    """
    return _join_agg(
        spark, spec, ("qid", "v"), edges_sp=edges_sp, senders=states, frontier=frontier, local=(base,)
    )


def push_messages(
    spark: SparkSession,
    edges_sp: DataFrame,
    changed: pd.DataFrame,
    spec: QuerySpec,
) -> pd.DataFrame:
    """Messages from changed vertices to out-neighbours, agg'd per target.

    changed: (qid, w, val[, aux]) — the frontier's new states.
    Returns (qid, v, val): per-destination aggregated incoming messages.
    """
    return _join_agg(spark, spec, ("qid", "v"), edges_sp=edges_sp, senders=changed)


def raw_messages(
    spark: SparkSession,
    edges_sp: DataFrame,
    changed: pd.DataFrame,
    spec: QuerySpec,
    *,
    carry_it: bool = False,
) -> pd.DataFrame:
    """The Join output per (changed w, receiver v): VDC's δJ differences.

    Parallel edges from the same sender combine under the aggregator
    (min/sum are associative), so the δJ trace stays keyed by sender.
    Returns (qid, v, w, val), plus the sender's ``it`` column (before val)
    when ``carry_it`` (for bulk δJ builds).
    """
    keys = ("qid", "v", "w", "it") if carry_it else ("qid", "v", "w")
    return _join_agg(spark, spec, keys, edges_sp=edges_sp, senders=changed)


def aggregate_msgs(
    spark: SparkSession,
    msgs: pd.DataFrame,
    base: pd.DataFrame,
    spec: QuerySpec,
) -> pd.DataFrame:
    """Aggregate pre-materialized messages (VDC's reassembled J) plus base."""
    return _join_agg(spark, spec, ("qid", "v"), local=(msgs, base))
