"""DC^JOD: differential maintenance of the IFE dataflow (§4), eager-merged.

The engine keeps:

* a driver-side mirror of the current graph version's edges,
* the eager-merged difference store for D (:class:`repro.core.store.DiffStore`
  — 1-D iteration timestamps, positive multiplicities only, §4.2),
* optionally a :class:`repro.core.dropping.DropManager` (Det/Prob-Drop).

No δJ differences are stored — the defining JOD property; every aggregation
rerun reconstructs its Join input by joining the current edges with
neighbour states in Spark (:func:`repro.core.frontier.aggregate_at`).

Recomputation convention (DESIGN.md §5): rerunning the aggregation for
vertex v *at iteration i* reads in-neighbour states at i−1 plus v's base and
writes D_i[v]; it does not read D_{i-1}[v] (self-free), which is what makes
edge deletions maintainable by rerunning. Scheduling rules:

* δE direct rule — a changed edge (u, v) schedules v at j+1 for every
  iteration j at which u has a stored-or-dropped difference;
* δD direct rule — when v's state at i changes, out-neighbours are
  scheduled at i+1;
* upper-bound rule — whenever v is scheduled at t it is additionally
  scheduled at every j > t where v has a stored-or-dropped difference at j,
  and at jj+1 for every in-neighbour difference at jj ≥ t;
* new vertices (WCC/PR) — a vertex first seen in a batch gets its base
  difference at iteration 0 and is scheduled at 1.

Scheduling may over-approximate (spurious reruns produce empty differences
and are harmless, Thm 4.1) but never under-approximates.

A batch updates the store in place, with no copy of the old D: iteration i
writes and deletes only rows at i, and iterations run once each in
increasing order, so when iteration i runs the store still holds the old
trace's rows at i, which decide whether its differences changed.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import frontier as fr
from repro.core import static_ife
from repro.core.dropping import DropManager
from repro.core.memory import diff_bytes
from repro.core.specs import INF, STATE_DECIMALS, QuerySpec
from repro.core.store import DiffStore
from repro.graphs.updates import Batch, apply_batch

_SAFETY_CAP = 100_000


def _round(a):
    return np.round(a, STATE_DECIMALS)


def _keyframe(qid, v, **extra) -> pd.DataFrame:
    df = pd.DataFrame({"qid": np.asarray(qid, np.int64), "v": np.asarray(v, np.int64)})
    for k, val in extra.items():
        df[k] = val
    return df


class DCJODEngine:
    """Differentially maintains one QuerySpec workload over a dynamic graph."""

    #: subclass hook — VDC materializes δJ.
    materializes_join = False

    def __init__(
        self,
        spark: SparkSession,
        spec: QuerySpec,
        initial_edges: pd.DataFrame,
        drop_manager: DropManager | None = None,
    ) -> None:
        self.spark = spark
        fr.tune(spark)
        self.spec = spec
        self.edges = initial_edges.reset_index(drop=True).copy()
        self.store = DiffStore()
        self.drops = drop_manager
        self.max_it = 0
        self._edges_sp = None
        self.metrics = {"n_batches": 0, "n_sched": 0, "n_changed": 0, "load_s": 0.0}
        self._refresh_graph()
        t0 = time.perf_counter()
        self._load_initial()
        self.metrics["load_s"] = time.perf_counter() - t0

    # ------------------------------------------------------------ graph state
    def _refresh_graph(self) -> None:
        if self._edges_sp is not None:
            self._edges_sp.unpersist()
        self._edges_sp = fr.edges_to_spark(self.spark, self.edges)
        out_deg = self.edges.groupby("src").size()
        in_deg = self.edges.groupby("dst").size()
        self._outdeg = out_deg.astype(np.float64)
        self._deg = out_deg.add(in_deg, fill_value=0).astype(np.float64)

    def close(self) -> None:
        if self._edges_sp is not None:
            self._edges_sp.unpersist()
            self._edges_sp = None

    # ----------------------------------------------------------- initial load
    def _load_initial(self) -> None:
        res = static_ife.run_static(
            self.spark, self.edges, self.spec, edges_sp=self._edges_sp
        )
        self.max_it = max(self.max_it, res.n_iters)
        self._store_new_rows(res.trace)

    def _store_new_rows(self, rows: pd.DataFrame) -> None:
        """Insert new difference rows, routing them through the drop policy."""
        if not len(rows):
            return
        if self.drops is not None:
            kept = self.drops.filter_new_rows(rows, self._deg)
            # A dropped row may shadow a stale stored value at the same
            # (qid, v, it) — remove it so reads fall through to DroppedVT.
            dropped = rows.merge(kept[["qid", "v", "it"]], how="left", indicator=True)
            dropped = dropped[dropped["_merge"] == "left_only"]
            if len(dropped):
                self.store.delete_rows(dropped)
            rows = kept
        self.store.set_rows(rows)

    # -------------------------------------------------------- state resolution
    def _states_for(self, keys: pd.DataFrame, t: int, count: bool = True) -> pd.DataFrame:
        """States of (qid, v) keys at iteration t; +inf = unreachable.

        Without dropping this is a plain store reassembly. With dropping it
        is AccessD_i^vWithDrops (§5.1): find the latest stored g* <= t, ask
        DroppedVT for a dropped d* in (g*, t], and recompute dropped
        differences (recursively, batched per recursion level). When
        ``count``, the recomputations go to the Fig. 6b counters, which
        measure maintenance: output reads pass False.
        """
        keys = keys[["qid", "v"]].drop_duplicates().reset_index(drop=True)
        if self.drops is None:
            look = self.store.latest_leq(keys, t)
            return look[["qid", "v", "val"]]
        out = self._resolve(keys.assign(t=np.int64(t)), memo={}, count=count)
        return out[["qid", "v", "val"]]

    def _resolve(self, keys: pd.DataFrame, memo: dict, count: bool) -> pd.DataFrame:
        """Batched recursive AccessWithDrops; keys have per-row column t."""
        keys = keys.drop_duplicates(subset=["qid", "v", "t"]).reset_index(drop=True)
        look = self.store.latest_leq(keys[["qid", "v", "t"]].assign(t=keys["t"]))
        q = look.rename(columns={"it": "lo", "t": "hi"})[["qid", "v", "lo", "hi", "val"]]
        q.loc[q["lo"] < 0, "lo"] = -1  # no stored value: probe from iteration 0
        probe = q.copy()
        probe["lo"] = probe["lo"].clip(lower=0)  # it=0 is never dropped
        dr = self.drops.latest_dropped_in(probe[["qid", "v", "lo", "hi"]])
        q = q.merge(
            dr.rename(columns={"lo": "plo"}),
            left_on=["qid", "v", "hi"],
            right_on=["qid", "v", "hi"],
            how="left",
        )
        q["d"] = q["d"].fillna(-1).astype(np.int64)
        need = q[q["d"] > q["lo"].clip(lower=0)].copy()
        done = q[~(q["d"] > q["lo"].clip(lower=0))][["qid", "v", "hi", "val"]]
        if not len(need):
            return done.rename(columns={"hi": "t"})
        # Memoized recomputation of state-at-d* (state at hi equals state at
        # d* because no stored/dropped difference exists in (d*, hi]).
        need_keys = list(zip(need["qid"].astype(int), need["v"].astype(int), need["d"].astype(int)))
        hit_mask = np.array([k in memo for k in need_keys])
        resolved_parts = [done]
        if hit_mask.any():
            hits = need[hit_mask].copy()
            hits["val"] = [memo[k] for k, m in zip(need_keys, hit_mask) if m]
            resolved_parts.append(hits[["qid", "v", "hi", "val"]])
        todo = need[~hit_mask].copy()
        if len(todo):
            targets = todo[["qid", "v", "d"]].drop_duplicates().reset_index(drop=True)
            if count:
                self.drops.count_recomputations(targets)
            # Demands: in-neighbour states at d*-1 (recursion).
            in_e = self.edges[["src", "dst", "weight"]].merge(
                targets.rename(columns={"v": "dst"}), on="dst"
            )
            sub = pd.DataFrame(
                {
                    "qid": in_e["qid"].astype(np.int64),
                    "v": in_e["src"].astype(np.int64),
                    "t": (in_e["d"] - 1).astype(np.int64),
                }
            )
            if len(sub):
                sub_states = self._resolve(sub, memo, count)
            else:
                sub_states = pd.DataFrame({"qid": [], "v": [], "t": [], "val": []})
            # Recompute the aggregation per target at its own d* in Spark.
            # Targets can sit at different d* levels; group by level so each
            # Spark job reads a consistent states-at-(d*-1) snapshot.
            recs = []
            for d_level, grp in targets.groupby("d"):
                frontier_keys = grp[["qid", "v"]]
                st = sub_states[sub_states["t"] == d_level - 1]
                st = st[np.isfinite(st["val"])].rename(columns={"v": "w"})
                if self.spec.needs_outdeg and len(st):
                    st = st.assign(aux=st["w"].map(self._outdeg).fillna(1.0))
                base = static_ife.base_rows(self.spec, frontier_keys)
                agg = fr.aggregate_at(
                    self.spark, self._edges_sp, frontier_keys, st, base, self.spec
                )
                got = frontier_keys.merge(agg, on=["qid", "v"], how="left")
                got["val"] = got["val"].fillna(INF)
                got["d"] = np.int64(d_level)
                recs.append(got)
            rec = pd.concat(recs, ignore_index=True)
            for row in rec.itertuples(index=False):
                memo[(int(row.qid), int(row.v), int(row.d))] = float(row.val)
            out = todo.merge(
                rec.rename(columns={"val": "rval"}), on=["qid", "v", "d"], how="left"
            )
            out["val"] = out["rval"]
            resolved_parts.append(out[["qid", "v", "hi", "val"]])
        res = pd.concat(resolved_parts, ignore_index=True).rename(columns={"hi": "t"})
        return res

    # ------------------------------------------------------------- scheduling
    def _iters_with_drops(self, keys: pd.DataFrame) -> pd.DataFrame:
        """Stored ∪ dropped iterations > per-row t for (qid, v, t) keys."""
        stored = self.store.iters_after(keys)
        if self.drops is None:
            return stored
        dropped = self.drops.dropped_iters_after(keys, max(self.max_it, 1))
        if len(dropped):
            dropped = dropped.merge(keys[["qid", "v", "t"]], on=["qid", "v"])
            dropped = dropped[dropped["it"] > dropped["t"]][["qid", "v", "it"]]
        return (
            pd.concat([stored, dropped], ignore_index=True)
            .drop_duplicates()
            .reset_index(drop=True)
        )

    def _expand_schedule(self, sched: pd.DataFrame) -> pd.DataFrame:
        """Upper-bound rule (§4.1): close a schedule under stored/dropped diffs.

        ``sched``: (qid, v, it) rows. Adds (i) v's own difference iterations
        j > it, and (ii) jj+1 for in-neighbour differences at jj >= it.
        Single application is a closure (later iterations' expansions are
        subsets of this one's).
        """
        if not len(sched):
            return sched
        parts = [sched]
        own = self._iters_with_drops(sched.rename(columns={"it": "t"}))
        if len(own):
            parts.append(own)
        in_e = self.edges[["src", "dst"]].merge(
            sched.rename(columns={"v": "dst"}), on="dst"
        )
        if len(in_e):
            wkeys = pd.DataFrame(
                {
                    "qid": in_e["qid"].astype(np.int64),
                    "v": in_e["src"].astype(np.int64),
                    "t": (in_e["it"] - 1).astype(np.int64),
                }
            ).drop_duplicates()
            witers = self._iters_with_drops(wkeys)
            if len(witers):
                # map each in-neighbour difference back to the scheduled dst
                back = witers.rename(columns={"v": "src", "it": "jj"}).merge(
                    in_e.rename(columns={"it": "t0"})[["qid", "src", "dst", "t0"]],
                    on=["qid", "src"],
                )
                back = back[back["jj"] >= back["t0"] - 1]
                add = pd.DataFrame(
                    {
                        "qid": back["qid"].astype(np.int64),
                        "v": back["dst"].astype(np.int64),
                        "it": (back["jj"] + 1).astype(np.int64),
                    }
                )
                parts.append(add)
        out = pd.concat(parts, ignore_index=True).drop_duplicates().reset_index(drop=True)
        if self.spec.max_iters is not None:
            out = out[out["it"] <= self.spec.max_iters]
        return out[out["it"] >= 1].reset_index(drop=True)

    def _seed_schedule(self, batch: Batch) -> pd.DataFrame:
        """δE direct rule: schedule each changed edge's dst (and, for PR,
        every out-neighbour of the src, since messages divide by outdeg).

        Reads the live store, after ``_register_new_vertices``: a new
        source's base difference at iteration 0 schedules its dst at 1."""
        qids = np.asarray(self.spec.qids(), np.int64)
        ch = batch.changes
        pairs = ch[["src", "dst"]].drop_duplicates()
        if self.spec.needs_outdeg:
            extra = self.edges[["src", "dst"]].merge(
                pairs[["src"]].drop_duplicates(), on="src"
            )
            pairs = pd.concat([pairs, extra], ignore_index=True).drop_duplicates()
        # cross join query ids × changed edges
        rep = pairs.loc[pairs.index.repeat(len(qids))].reset_index(drop=True)
        rep["qid"] = np.tile(qids, len(pairs))
        ukeys = rep.rename(columns={"src": "v"})[["qid", "v"]].drop_duplicates()
        uiters = self.store.iters_of(ukeys)
        if self.drops is not None:
            d = self.drops.dropped_iters_after(
                ukeys.assign(t=np.int64(-1)), max(self.max_it, 1)
            )
            uiters = pd.concat([uiters, d], ignore_index=True).drop_duplicates()
        if not len(uiters):
            return _keyframe([], [], it=np.zeros(0, np.int64))
        sched = uiters.rename(columns={"v": "src", "it": "j"}).merge(
            rep, on=["qid", "src"]
        )
        out = pd.DataFrame(
            {
                "qid": sched["qid"].astype(np.int64),
                "v": sched["dst"].astype(np.int64),
                "it": (sched["j"] + 1).astype(np.int64),
            }
        ).drop_duplicates()
        if self.spec.max_iters is not None:
            out = out[out["it"] <= self.spec.max_iters]
        return out.reset_index(drop=True)

    # --------------------------------------------------------------- VDC hooks
    def _on_batch_start(self, batch: Batch) -> None:  # pragma: no cover - hook
        pass

    def _on_changed(self, changed: pd.DataFrame, i: int) -> None:  # hook
        pass

    def _recompute(self, F: pd.DataFrame, i: int) -> pd.DataFrame:
        """Rerun the aggregation for frontier F at iteration i (JOD path:
        reconstruct the Join input from edges × neighbour states)."""
        in_e = self.edges[["src", "dst"]].merge(F.rename(columns={"v": "dst"}), on="dst")
        need = pd.concat(
            [
                _keyframe(in_e["qid"], in_e["src"]),
                F[["qid", "v"]],
            ],
            ignore_index=True,
        ).drop_duplicates()
        states = self._states_for(need, i - 1)
        self._last_states = states  # reused for prev-value lookup
        st = states[np.isfinite(states["val"])].rename(columns={"v": "w"})
        if self.spec.needs_outdeg and len(st):
            st = st.assign(aux=st["w"].map(self._outdeg).fillna(1.0))
        base = static_ife.base_rows(self.spec, F)
        agg = fr.aggregate_at(self.spark, self._edges_sp, F, st, base, self.spec)
        new = F.merge(agg, on=["qid", "v"], how="left")
        new["val"] = new["val"].fillna(INF)
        return new

    # ------------------------------------------------------------- maintenance
    def apply_batch(self, batch: Batch) -> dict:
        """Differentially maintain the workload for one batch of updates."""
        t0 = time.perf_counter()
        self.metrics["n_batches"] += 1
        if not len(batch.changes):
            # e.g. an RPQ update whose label the automaton ignores
            return {"batch_s": time.perf_counter() - t0, "n_sched": 0, "n_changed": 0}
        self.edges = apply_batch(self.edges, batch)
        self._refresh_graph()
        born = self._register_new_vertices(batch)
        self._on_batch_start(batch)

        sched = pd.concat([self._seed_schedule(batch), born], ignore_index=True)
        sched = self._expand_schedule(sched)
        frontier: dict[int, list[pd.DataFrame]] = {}
        for it, grp in sched.groupby("it"):
            frontier.setdefault(int(it), []).append(grp[["qid", "v"]])

        n_sched = n_changed = 0
        guard = 0
        while frontier:
            guard += 1
            if guard > _SAFETY_CAP:
                raise RuntimeError("maintenance failed to converge")
            i = min(frontier)
            F = (
                pd.concat(frontier.pop(i), ignore_index=True)
                .drop_duplicates()
                .reset_index(drop=True)
            )
            n_sched += len(F)
            new = self._recompute(F, i)
            new["val"] = _round(new["val"])
            prev = self._last_states.rename(columns={"val": "pval"})
            cmp = new.merge(prev, on=["qid", "v"], how="left")
            cmp["pval"] = _round(cmp["pval"].fillna(INF))
            # The old trace's difference row at exactly iteration i (if any):
            # propagation is driven by *difference-set modifications*, not by
            # reassembled-value drift (the latter persists to the fixpoint
            # and would never converge). The live store still holds the old
            # rows at i: only iteration i writes there, iterations run once
            # each in increasing order, and new vertices are written at 0.
            old_rows = self.store.df
            old_exact = old_rows[old_rows["it"] == i][["qid", "v", "val"]].rename(
                columns={"val": "oval"}
            )
            cmp = cmp.merge(old_exact, on=["qid", "v"], how="left")
            old_diff_exists = cmp["oval"].notna().to_numpy()
            cmp["oval"] = _round(cmp["oval"].fillna(INF))
            # Does the *new* trace have a difference at (v, i)?
            new_diff_exists = ~(
                _feq(cmp["val"], cmp["pval"]) | ~np.isfinite(cmp["val"].to_numpy())
            )
            old_unknown = np.zeros(len(cmp), dtype=bool)
            if self.drops is not None:
                # A dropped old difference at exactly i has an unknown value:
                # treat any such slot as modified (conservative).
                probe = cmp[["qid", "v"]].copy()
                probe["lo"] = np.int64(i - 1)
                probe["hi"] = np.int64(i)
                dr = self.drops.latest_dropped_in(probe)
                cmp = cmp.merge(
                    dr.rename(columns={"d": "odrop"})[["qid", "v", "odrop"]],
                    on=["qid", "v"],
                    how="left",
                )
                old_unknown = (cmp["odrop"].fillna(-1) == i).to_numpy()
            changed_mask = (
                (new_diff_exists != (old_diff_exists | old_unknown))
                | (new_diff_exists & old_diff_exists & ~_feq(cmp["val"], cmp["oval"]))
                | (new_diff_exists & old_unknown)
            )

            # Store update at iteration i (eager merge semantics).
            dels = cmp[~new_diff_exists][["qid", "v"]].assign(it=np.int64(i))
            if len(dels):
                self.store.delete_rows(dels)
            ups = cmp[new_diff_exists][["qid", "v", "val"]].assign(it=np.int64(i))
            if len(ups):
                self._store_new_rows(ups[["qid", "v", "it", "val"]])

            changed = cmp[changed_mask][["qid", "v", "val"]].reset_index(drop=True)
            n_changed += len(changed)
            self.max_it = max(self.max_it, i)
            if len(changed):
                self._on_changed(changed, i)
                nxt = self.edges[["src", "dst"]].merge(
                    changed.rename(columns={"v": "src"})[["qid", "src"]], on="src"
                )
                if len(nxt):
                    ns = pd.DataFrame(
                        {
                            "qid": nxt["qid"].astype(np.int64),
                            "v": nxt["dst"].astype(np.int64),
                            "it": np.int64(i + 1),
                        }
                    ).drop_duplicates()
                    ns = self._expand_schedule(ns)
                    ns = ns[ns["it"] > i]
                    for it, grp in ns.groupby("it"):
                        frontier.setdefault(int(it), []).append(grp[["qid", "v"]])
        self.metrics["n_sched"] += n_sched
        self.metrics["n_changed"] += n_changed
        return {
            "batch_s": time.perf_counter() - t0,
            "n_sched": n_sched,
            "n_changed": n_changed,
        }

    def _register_new_vertices(self, batch: Batch) -> pd.DataFrame:
        """Base differences for vertices first seen in this batch (wcc/pr).

        Returns their schedule at iteration 1, where a vertex's value is
        its base plus its in-messages, not its iteration-0 init."""
        new = np.zeros(0, np.int64)
        if self.spec.base_all:
            vs = np.union1d(
                batch.changes["src"].unique(), batch.changes["dst"].unique()
            ).astype(np.int64)
            new = np.setdiff1d(vs, self.store.df["v"].unique())
        qid = np.zeros(len(new), np.int64)
        if len(new):
            val = new.astype(np.float64) if self.spec.kind == "wcc" else np.full(len(new), 1.0)
            # base rows bypass the drop policy
            self.store.set_rows(_keyframe(qid, new, it=np.int64(0), val=val))
        return _keyframe(qid, new, it=np.int64(1))

    # ------------------------------------------------------------------ output
    def final_states(self) -> pd.DataFrame:
        """Reassembled states at the final iteration for every known key."""
        t = self.max_it if self.spec.max_iters is None else self.spec.max_iters
        if self.drops is None:
            return self.store.snapshot_at(t)
        keys = pd.concat(
            [self.store.df[["qid", "v"]], self.drops.dropped_keys()], ignore_index=True
        ).drop_duplicates()
        out = self._states_for(keys, t, count=False)
        return out[np.isfinite(out["val"])].reset_index(drop=True)

    def memory_bytes(self) -> dict:
        """The §5 byte model applied to this engine's live structures."""
        n_d = self.store.n_diffs()
        n_j = len(self.jstore) if self.materializes_join else 0
        total = diff_bytes(n_d, n_j)
        dropped = self.drops.size_bytes() if self.drops is not None else 0
        return {
            "n_d_diffs": n_d,
            "n_j_diffs": n_j,
            "dropped_struct_bytes": dropped,
            "total_bytes": total + dropped,
        }


def _feq(a, b) -> np.ndarray:
    """Elementwise equality that treats inf == inf as equal."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    return both_inf | (a == b)
