"""Dropped-difference maintenance: Det-Drop and Prob-Drop (§5.1).

A :class:`DropManager` sits between the DC^JOD engine and its difference
store. New differences pass through :meth:`filter_new_rows`; dropped ones
are recorded as vertex/timestamp (VT) pairs in ``DroppedVT``:

* ``structure='det'`` — exact: a table of dropped (qid, v, it) rows. Costs
  12 bytes per dropped VT pair (the d/(d+s) scalability ceiling of §5.1.1).
* ``structure='prob'`` — a fixed-size Bloom filter over encoded VT keys
  (§5.1.2, Appendix C). No false negatives; false positives cause spurious
  recomputation only. Membership questions go through the filter. An exact
  log is kept alongside and is not charged to the byte model, but it is
  live state: :meth:`filter_new_rows` de-duplicates new drops against it
  (so ``n_dropped`` counts distinct pairs) and :meth:`dropped_keys`, which
  ``final_states`` reads, lists its keys. It grows with the drops.

The manager also answers the two queries the engine needs during
``AccessD_i^vWithDrops`` and upper-bound scheduling: the latest dropped
iteration in a range, and all (possibly spurious, for prob) dropped
iterations after a point.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.bloom import BloomFilter
from repro.bloom.bloom import encode_vt

_VT_COLS = ["qid", "v", "it"]


def _vt_frame(df: pd.DataFrame | None = None) -> pd.DataFrame:
    if df is None or not len(df):
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in _VT_COLS})
    return df[_VT_COLS].astype(np.int64).reset_index(drop=True)


class DropManager:
    def __init__(
        self,
        policy,
        structure: str = "det",
        *,
        bloom_capacity: int = 1 << 16,
        bloom_fp_rate: float = 0.01,
    ) -> None:
        if structure not in ("det", "prob"):
            raise ValueError(structure)
        self.policy = policy
        self.structure = structure
        self.bloom = (
            BloomFilter(bloom_capacity, bloom_fp_rate) if structure == "prob" else None
        )
        # Exact dropped log. For 'det' this IS DroppedVT; for 'prob',
        # membership uses the bloom, but new drops are de-duplicated
        # against this log and dropped_keys() reads it (not byte-modelled).
        self._log = _vt_frame()
        self.n_dropped = 0
        self.n_recomputed = 0
        # Fig. 6b metric: recomputation count per (qid, v).
        self.recompute_counts: dict[tuple[int, int], int] = {}

    # --------------------------------------------------------------- dropping
    def filter_new_rows(self, rows: pd.DataFrame, degrees: pd.Series) -> pd.DataFrame:
        """Apply the drop policy to new difference rows (qid, v, it, val).

        Returns the kept rows; records the dropped VT pairs. Iteration-0
        base differences are never dropped (they are the dataflow's inputs,
        not maintained state).
        """
        if not len(rows):
            return rows
        drop = self.policy.drop_mask(rows, degrees) & (rows["it"].to_numpy() > 0)
        dropped = rows[drop]
        if len(dropped):
            # A VT pair may be re-dropped across batches (difference
            # recreated, dropped again); DroppedVT tracks it once, and
            # n_dropped counts tracked pairs so byte accounting matches.
            vt = _vt_frame(dropped).drop_duplicates()
            if len(self._log):
                m = vt.merge(self._log.assign(_hit=1), on=_VT_COLS, how="left")
                vt = vt[m["_hit"].isna().to_numpy()]
            if len(vt):
                self._log = pd.concat([self._log, vt], ignore_index=True)
                if self.bloom is not None:
                    self.bloom.add(
                        encode_vt(
                            vt["v"].to_numpy(), vt["it"].to_numpy(), vt["qid"].to_numpy()
                        )
                    )
                self.n_dropped += len(vt)
        return rows[~drop].reset_index(drop=True)

    # ---------------------------------------------------------------- queries
    def latest_dropped_in(self, keys: pd.DataFrame) -> pd.DataFrame:
        """Per key (qid, v, lo, hi): the latest dropped iteration in (lo, hi].

        Det consults the exact table; Prob probes the Bloom filter from hi
        down to lo+1 (§5.1.2's modified AccessD_i^vWithDrops). Returns the
        keys with an added ``d`` column, -1 when none.
        """
        keys = keys.drop_duplicates(subset=["qid", "v", "lo", "hi"]).reset_index(drop=True)
        if not len(keys):
            return keys.assign(d=pd.Series(dtype=np.int64))
        if self.structure == "det":
            m = keys.merge(self._log, on=["qid", "v"], how="left")
            m = m[(m["it"].notna()) & (m["it"] > m["lo"]) & (m["it"] <= m["hi"])]
            best = m.groupby(["qid", "v", "lo", "hi"], as_index=False)["it"].max()
            out = keys.merge(best, on=["qid", "v", "lo", "hi"], how="left")
            out["d"] = out["it"].fillna(-1).astype(np.int64)
            return out[["qid", "v", "lo", "hi", "d"]]
        # prob: probe every candidate iteration, take the max positive.
        reps = (keys["hi"] - keys["lo"]).clip(lower=0).astype(np.int64).to_numpy()
        if reps.sum() == 0:
            return keys.assign(d=np.int64(-1))
        idx = np.repeat(np.arange(len(keys)), reps)
        # candidate iterations lo+1 .. hi per key
        offs = np.concatenate([np.arange(1, r + 1) for r in reps]) if len(idx) else np.array([], np.int64)
        cand_it = keys["lo"].to_numpy()[idx] + offs
        hit = self.bloom.contains(
            encode_vt(keys["v"].to_numpy()[idx], cand_it, keys["qid"].to_numpy()[idx])
        )
        d = np.full(len(keys), -1, dtype=np.int64)
        if hit.any():
            hi_idx, hi_it = idx[hit], cand_it[hit]
            np.maximum.at(d, hi_idx, hi_it)
        return keys.assign(d=d)

    def dropped_iters_after(self, keys: pd.DataFrame, max_it: int) -> pd.DataFrame:
        """Per key (qid, v, t): dropped iterations it > t (up to max_it).

        Used by upper-bound scheduling so dropped differences still trigger
        reruns (the paper's Example 3). Prob probes (t, max_it] and may
        return spurious iterations — extra scheduling, never missed work.
        """
        keys = keys.drop_duplicates(subset=["qid", "v", "t"]).reset_index(drop=True)
        empty = _vt_frame()
        if not len(keys):
            return empty
        if self.structure == "det":
            m = keys.merge(self._log, on=["qid", "v"], how="inner")
            m = m[m["it"] > m["t"]]
            return _vt_frame(m)
        reps = (max_it - keys["t"]).clip(lower=0).astype(np.int64).to_numpy()
        if reps.sum() == 0:
            return empty
        idx = np.repeat(np.arange(len(keys)), reps)
        offs = np.concatenate([np.arange(1, r + 1) for r in reps])
        cand_it = keys["t"].to_numpy()[idx] + offs
        hit = self.bloom.contains(
            encode_vt(keys["v"].to_numpy()[idx], cand_it, keys["qid"].to_numpy()[idx])
        )
        if not hit.any():
            return empty
        return _vt_frame(
            pd.DataFrame(
                {
                    "qid": keys["qid"].to_numpy()[idx][hit],
                    "v": keys["v"].to_numpy()[idx][hit],
                    "it": cand_it[hit],
                }
            )
        )

    def count_recomputations(self, keys: pd.DataFrame) -> None:
        """Record dropped-difference recomputations (Fig. 6b metric)."""
        self.n_recomputed += len(keys)
        for qid, v in zip(keys["qid"].to_numpy(), keys["v"].to_numpy()):
            k = (int(qid), int(v))
            self.recompute_counts[k] = self.recompute_counts.get(k, 0) + 1

    # ---------------------------------------------------------------- metrics
    @property
    def dropped_log(self) -> pd.DataFrame:
        return self._log

    def dropped_keys(self) -> pd.DataFrame:
        return self._log[["qid", "v"]].drop_duplicates().reset_index(drop=True)

    def size_bytes(self) -> int:
        """DroppedVT memory: exact table for det, fixed bit array for prob."""
        from repro.core.memory import BYTES_DROPPED_DET

        if self.structure == "det":
            return len(self._log) * BYTES_DROPPED_DET
        return self.bloom.size_bytes
