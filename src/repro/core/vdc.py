"""VDC: vanilla differential computation — JOD's engine *plus* the δJ store.

The defining difference from DC^JOD (§4) is that vanilla DC materializes
the Join operator's output differences. ``VDCEngine`` therefore keeps a
second eager-merged :class:`repro.core.store.DiffStore`, δJ, keyed by
(qid, receiver v, sender w): a row ``(qid, v, it, w, val)`` means "the
message from w to v changed to val at iteration it". Aggregation reruns
reassemble J from this store (a per-receiver ``latest_leq``) instead of
re-joining edges with neighbour states (what JOD does on demand) — and the
store's rows are the memory that JOD saves (counted at 24 B each by
:mod:`repro.core.memory`).

δJ maintenance:

* initial load — one bulk Join job over the G0 state trace;
* edge changes — every changed edge's source has its whole out-message set
  rebuilt from its current state trace (covers inserts, deletes, weight
  changes, and PR's out-degree dependence);
* state changes at iteration i — messages to out-neighbours upserted at
  i+1 (deleted when the sender became unreachable, since by trace
  monotonicity it was unreachable at every earlier iteration too).

Scheduling is shared with DC^JOD (a conservative superset of vanilla DC's
reruns — Thm 4.1 — so results are identical; DESIGN.md §3 documents this).
Partial dropping composes with JOD only, as in the paper, so ``VDCEngine``
rejects a drop manager.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import frontier as fr
from repro.core import static_ife
from repro.core.engine import DCJODEngine
from repro.core.specs import INF
from repro.core.store import DiffStore
from repro.graphs.updates import Batch


class VDCEngine(DCJODEngine):
    """Vanilla DC: JOD maintenance plus a materialized δJ message store."""

    materializes_join = True

    def __init__(self, spark, spec, initial_edges, drop_manager=None) -> None:
        if drop_manager is not None:
            raise ValueError("partial dropping composes with JOD, not VDC (§5)")
        self.dj = DiffStore(keys=("qid", "v", "w"))
        super().__init__(spark, spec, initial_edges, None)

    @property
    def jstore(self) -> pd.DataFrame:
        """The δJ rows: columns qid, v, it, w, val."""
        return self.dj.df

    # ----------------------------------------------------------- δJ plumbing
    def _j_upsert(self, rows: pd.DataFrame) -> None:
        self.dj.set_rows(rows)

    def _j_delete_sender(self, senders: pd.DataFrame, max_it: int | None = None) -> None:
        """Drop all messages from (qid, w) senders (optionally it <= max_it)."""
        keys = senders[["qid", "w"]]
        self.dj.delete_rows(keys if max_it is None else keys.assign(t=np.int64(max_it)))

    def _sender_states(self, states: pd.DataFrame) -> pd.DataFrame:
        """Decorate sender states with aux (out-degree) when PR needs it."""
        st = states.copy()
        if self.spec.needs_outdeg and len(st):
            st["aux"] = st["w"].map(self._outdeg).fillna(1.0)
        return st

    def _rebuild_sender_messages(self, senders: pd.DataFrame) -> None:
        """Recompute the full out-message trace of the given (qid, w) senders
        from their current state trace and the current edges (one Join job)."""
        self._j_delete_sender(senders)
        trace = self.store.rows_for_keys(senders.rename(columns={"w": "v"}))
        if len(trace):
            self._upsert_trace_messages(trace)

    def _upsert_trace_messages(self, trace: pd.DataFrame) -> None:
        """Store the messages of a sender state trace, each one iteration later."""
        changed = trace.rename(columns={"v": "w"})[["qid", "w", "val", "it"]]
        raw = fr.raw_messages(
            self.spark, self._edges_sp, self._sender_states(changed), self.spec, carry_it=True
        )
        if len(raw):
            raw["it"] = raw["it"] + 1
            self._j_upsert(raw)

    # ------------------------------------------------------------- engine hooks
    def _load_initial(self) -> None:
        res = static_ife.run_static(self.spark, self.edges, self.spec, edges_sp=self._edges_sp)
        self.max_it = max(self.max_it, res.n_iters)
        self._store_new_rows(res.trace)
        self._upsert_trace_messages(res.trace)

    def _on_batch_start(self, batch: Batch) -> None:
        # Every message from a changed edge's source changes (for PR, with
        # its out-degree), so each such sender's messages are rebuilt.
        qids = np.asarray(self.spec.qids(), np.int64)
        srcs = batch.changes["src"].unique().astype(np.int64)
        senders = pd.DataFrame(
            {
                "qid": np.repeat(qids, len(srcs)),
                "w": np.tile(srcs, len(qids)),
            }
        )
        self._rebuild_sender_messages(senders)

    def _on_changed(self, changed: pd.DataFrame, i: int) -> None:
        fin = changed[np.isfinite(changed["val"])]
        dead = changed[~np.isfinite(changed["val"])]
        if len(dead):
            # unreachable at i ⇒ unreachable at every earlier iteration of
            # the new trace ⇒ all its messages at it <= i+1 are stale.
            self._j_delete_sender(dead.rename(columns={"v": "w"}), max_it=i + 1)
        if not len(fin):
            return
        st = fin.rename(columns={"v": "w"})[["qid", "w", "val"]]
        raw = fr.raw_messages(self.spark, self._edges_sp, self._sender_states(st), self.spec)
        if not len(raw):
            return
        raw["it"] = np.int64(i + 1)
        # Eager-merge hygiene: if the new message equals the sender's message
        # value already in force at iteration i, there is no difference at
        # i+1 — delete any stale row instead of storing a redundant one.
        # raw holds one row per (qid, v, w), so the lookup lines up with it.
        prev = self._messages_at(raw, i)
        same = (prev["it"].to_numpy() >= 0) & (prev["val"].to_numpy() == raw["val"].to_numpy())
        self.dj.delete_rows(raw[same])
        self._j_upsert(raw[~same])

    def _messages_at(self, keys: pd.DataFrame, t: int) -> pd.DataFrame:
        """Reassemble J entries: latest message per (qid, v, w) with it <= t.

        One row per distinct key, in key order; ``it = -1`` where none."""
        return self.dj.latest_leq(keys[["qid", "v", "w"]], t)

    def _recompute(self, F: pd.DataFrame, i: int) -> pd.DataFrame:
        """Rerun the aggregation reading J from the δJ store (no re-join)."""
        # prev states for the change comparison (store lookup; VDC never drops)
        look = self.store.latest_leq(F, i - 1)
        self._last_states = look[["qid", "v", "val"]]
        msgs = self.dj.latest_leq(F[["qid", "v"]], i)
        msgs = msgs[msgs["it"] >= 0]
        base = static_ife.base_rows(self.spec, F)
        agg = fr.aggregate_msgs(self.spark, msgs, base, self.spec)
        new = F.merge(agg, on=["qid", "v"], how="left")
        new["val"] = new["val"].fillna(INF)
        return new
