"""The eager-merged difference index for D and δJ (§4.2, Appendix C).

The paper stores, per key, a list of ``(iteration, value)`` pairs sorted
by iteration — 1-D timestamps because the graph-version dimension is merged
eagerly, and positive multiplicities only because each key takes one
value per iteration (the negative half of each change is implied). The
value of a key at iteration t is the one at the latest stored iteration
``i* <= t`` (binary search in the paper; a vectorized groupby here).

``DiffStore`` is that index, vectorized: a pandas frame with the key
columns, ``it`` and ``val``. The engine keeps two of them:

* D, keyed by ``(qid, v)``: the state trace of every vertex;
* δJ (VDC only), keyed by ``(qid, v, w)``: the trace of the message that
  sender w sends receiver v.

Reads and deletes match on whichever key columns the argument frame
carries, so δJ answers per-receiver ``(qid, v)`` and per-sender ``(qid, w)``
questions through the same calls D uses. It is driver-side state — the
arrangement the dataflow operators read — while the Join/aggregate work
runs in Spark (:mod:`repro.core.frontier`).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.specs import INF


def _as_frame(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    return pd.DataFrame(
        {c: df[c].to_numpy(np.float64 if c == "val" else np.int64) for c in cols}
    )


class DiffStore:
    """Eager-merged, positive-only difference traces, one per key."""

    def __init__(self, keys: tuple[str, ...] = ("qid", "v")) -> None:
        self.keys = list(keys)
        self.cols = [*self.keys[:2], "it", *self.keys[2:], "val"]
        self.df = self._empty()

    def _empty(self) -> pd.DataFrame:
        return _as_frame(pd.DataFrame(columns=self.cols), self.cols)

    def _on(self, frame: pd.DataFrame) -> list[str]:
        """The key columns ``frame`` carries: the ones a read matches on."""
        return [c for c in self.keys if c in frame.columns]

    def __len__(self) -> int:
        return len(self.df)

    def n_diffs(self) -> int:
        return len(self.df)

    def per_qid_counts(self) -> pd.Series:
        return self.df.groupby("qid").size()

    def max_iter(self) -> int:
        return int(self.df["it"].max()) if len(self.df) else 0

    # ------------------------------------------------------------------ writes
    def set_rows(self, rows: pd.DataFrame) -> None:
        """Upsert rows keyed by (keys..., it)."""
        if not len(rows):
            return
        rows = _as_frame(rows, self.cols)
        merged = pd.concat([self.df, rows], ignore_index=True)
        self.df = merged.drop_duplicates(subset=self.cols[:-1], keep="last").reset_index(
            drop=True
        )

    def delete_rows(self, keys: pd.DataFrame) -> None:
        """Delete the rows that match a row of ``keys``.

        A row matches on the key columns ``keys`` carries and, when it
        carries them, on ``it`` exactly or on ``it <= t`` for a per-row
        bound ``t``.
        """
        if not len(keys) or not len(self.df):
            return
        on = [c for c in self.cols[:-1] if c in keys.columns]
        t = keys["t"].to_numpy() if "t" in keys.columns else np.iinfo(np.int64).max
        keys = _as_frame(keys, on).assign(t=t).groupby(on, as_index=False)["t"].max()
        m = self.df.merge(keys, on=on, how="left")  # t is NaN where no key matched
        self.df = self.df[~(m["it"] <= m["t"]).to_numpy()].reset_index(drop=True)

    # ------------------------------------------------------------------- reads
    def rows_for_keys(self, keys: pd.DataFrame) -> pd.DataFrame:
        """All stored rows that match the key columns ``keys`` carries."""
        if not len(keys) or not len(self.df):
            return self._empty()
        on = self._on(keys)
        keys = _as_frame(keys, on).drop_duplicates()
        return self.df.merge(keys, on=on, how="inner")

    def latest_leq(self, keys: pd.DataFrame, t: int | None = None) -> pd.DataFrame:
        """Reassembly: the latest stored iteration ``<= t`` of every trace.

        ``keys`` carries some of the key columns and, when ``t`` is None, a
        per-row column ``t``. Returns, per distinct input row and in input
        order, one row for each matching trace with columns
        ``keys..., t, it, val``. An input row with no stored row ``<= t``
        gets one row with ``it = -1, val = +inf`` (unreachable) and -1 in
        the key columns it does not carry.
        """
        keys = keys.copy()
        if t is not None:
            keys["t"] = np.int64(t)
        on = self._on(keys)
        keys = _as_frame(keys, on).assign(t=keys["t"].astype(np.int64).to_numpy())
        keys = keys.drop_duplicates().reset_index(drop=True)
        out_cols = [*self.keys, "t", "it", "val"]
        if not len(keys):
            return _as_frame(pd.DataFrame(columns=out_cols), out_cols)
        m = self.df.merge(keys, on=on, how="inner")
        m = m[m["it"] <= m["t"]]
        m = m.sort_values("it").groupby([*self.keys, "t"], as_index=False).last()
        # Keys with no stored row <= t vanish above; restore them.
        out = keys.merge(m, on=[*on, "t"], how="left")
        for c in [*self.keys, "it"]:
            out[c] = out[c].fillna(-1).astype(np.int64)
        out["val"] = out["val"].fillna(INF)
        return out[out_cols]

    def snapshot_at(self, t: int) -> pd.DataFrame:
        """Full reassembly at iteration t: (keys..., val) for every trace."""
        d = self.df[self.df["it"] <= t]
        d = d.sort_values("it").groupby(self.keys, as_index=False).last()
        return d[[*self.keys, "val"]].reset_index(drop=True)

    def iters_after(self, keys: pd.DataFrame) -> pd.DataFrame:
        """Stored iterations strictly greater than each key's ``t``.

        ``keys``: key columns plus t. Returns (keys..., it) rows, it > t.
        Used by the upper-bound rule's conditions (i)/(ii) (§4.1).
        """
        out_cols = [*self.keys, "it"]
        if not len(keys) or not len(self.df):
            return self._empty()[out_cols]
        on = self._on(keys)
        k = _as_frame(keys, on).assign(t=keys["t"].astype(np.int64).to_numpy())
        k = k.drop_duplicates()
        m = k.merge(self.df, on=on, how="inner")
        m = m[m["it"] > m["t"]]
        return m[out_cols].drop_duplicates().reset_index(drop=True)

    def iters_of(self, keys: pd.DataFrame) -> pd.DataFrame:
        """All stored iterations of the matching traces: (keys..., it)."""
        return self.rows_for_keys(keys)[[*self.keys, "it"]].reset_index(drop=True)
