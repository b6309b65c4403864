"""DiffStore tests: the eager-merged 1-D difference index (§4.2, App. C).

Every case runs on both key shapes the engines use: D, keyed by (qid, v),
and δJ, keyed by (qid, v, w) — the ``*DJ`` classes rerun the D classes
with the ``keys`` fixture overridden. The δJ rows here all come from
sender w=7, so (qid, v) questions have the same answers for both.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.specs import INF
from repro.core.store import DiffStore

SHAPES = {"D": ("qid", "v"), "dJ": ("qid", "v", "w")}


def rows(*tuples):
    return pd.DataFrame(tuples, columns=["qid", "v", "it", "val"]).assign(w=7)


@pytest.fixture
def keys():
    return SHAPES["D"]


@pytest.fixture
def store(keys):
    s = DiffStore(keys)
    s.set_rows(rows((0, 1, 0, 10.0), (0, 1, 3, 7.0), (0, 2, 1, 5.0), (1, 1, 2, 9.0)))
    return s


class TestWrites:
    def test_set_and_len(self, store):
        assert len(store) == 4

    def test_upsert_overwrites(self, store):
        store.set_rows(rows((0, 1, 3, 6.0)))
        assert len(store) == 4
        got = store.latest_leq(pd.DataFrame({"qid": [0], "v": [1]}), 3)
        assert got["val"].iloc[0] == 6.0

    def test_delete(self, store):
        store.delete_rows(rows((0, 1, 3, 0.0))[["qid", "v", "it"]])
        assert len(store) == 3

    def test_delete_absent_noop(self, store):
        store.delete_rows(rows((9, 9, 9, 0.0))[["qid", "v", "it"]])
        assert len(store) == 4

    def test_empty_ops(self, keys):
        s = DiffStore(keys)
        s.set_rows(rows())
        s.delete_rows(rows()[["qid", "v", "it"]])
        assert len(s) == 0


class TestReassembly:
    def test_latest_leq_picks_latest(self, store):
        keys = pd.DataFrame({"qid": [0], "v": [1]})
        assert store.latest_leq(keys, 5)["val"].iloc[0] == 7.0
        assert store.latest_leq(keys, 2)["val"].iloc[0] == 10.0

    def test_latest_leq_unreachable(self, store):
        keys = pd.DataFrame({"qid": [0], "v": [99]})
        got = store.latest_leq(keys, 5)
        assert got["val"].iloc[0] == INF and got["it"].iloc[0] == -1

    def test_latest_leq_before_first(self, store):
        keys = pd.DataFrame({"qid": [0], "v": [2]})
        got = store.latest_leq(keys, 0)
        assert got["val"].iloc[0] == INF

    def test_latest_leq_per_row_t(self, store):
        keys = pd.DataFrame({"qid": [0, 0], "v": [1, 1], "t": [2, 3]})
        got = store.latest_leq(keys).sort_values("t")
        assert list(got["val"]) == [10.0, 7.0]

    def test_qid_isolation(self, store):
        keys = pd.DataFrame({"qid": [1], "v": [1]})
        assert store.latest_leq(keys, 5)["val"].iloc[0] == 9.0

    def test_snapshot(self, store):
        snap = store.snapshot_at(2).set_index(["qid", "v"])["val"]
        assert snap[(0, 1)] == 10.0 and snap[(0, 2)] == 5.0 and snap[(1, 1)] == 9.0

    def test_snapshot_excludes_future(self, store):
        snap = store.snapshot_at(0)
        assert len(snap) == 1  # only (0,1) has an it=0 diff


class TestSchedulingQueries:
    def test_iters_after(self, store):
        keys = pd.DataFrame({"qid": [0], "v": [1], "t": [0]})
        got = store.iters_after(keys)
        assert set(got["it"]) == {3}

    def test_iters_after_none(self, store):
        keys = pd.DataFrame({"qid": [0], "v": [1], "t": [3]})
        assert len(store.iters_after(keys)) == 0

    def test_iters_of(self, store):
        keys = pd.DataFrame({"qid": [0], "v": [1]})
        assert set(store.iters_of(keys)["it"]) == {0, 3}

    def test_rows_for_keys(self, store):
        keys = pd.DataFrame({"qid": [0, 1], "v": [1, 1]})
        assert len(store.rows_for_keys(keys)) == 3


class TestMetrics:
    def test_counts(self, store):
        assert store.n_diffs() == 4
        assert store.per_qid_counts()[0] == 3

    def test_max_iter(self, store):
        assert store.max_iter() == 3


class _DJShape:
    @pytest.fixture
    def keys(self):
        return SHAPES["dJ"]


class TestWritesDJ(_DJShape, TestWrites):
    pass


class TestReassemblyDJ(_DJShape, TestReassembly):
    pass


class TestSchedulingQueriesDJ(_DJShape, TestSchedulingQueries):
    pass


class TestMetricsDJ(_DJShape, TestMetrics):
    pass


@pytest.fixture
def dj():
    """δJ rows (qid, v, it, w, val): receiver 1 hears senders 5 and 6."""
    s = DiffStore(SHAPES["dJ"])
    s.set_rows(
        pd.DataFrame(
            [(0, 1, 1, 5, 4.0), (0, 1, 3, 5, 2.0), (0, 1, 1, 6, 8.0), (0, 2, 2, 5, 3.0),
             (1, 1, 1, 5, 9.0)],
            columns=["qid", "v", "it", "w", "val"],
        )
    )
    return s


def _keyset(df, cols):
    return set(map(tuple, df[cols].to_numpy().tolist()))


class TestPartialKeys:
    def test_columns_and_index(self, dj):
        assert list(dj.df.columns) == ["qid", "v", "it", "w", "val"]
        assert isinstance(dj.df.index, pd.RangeIndex)

    def test_delete_sender(self, dj):
        dj.delete_rows(pd.DataFrame({"qid": [0], "w": [5]}))
        assert _keyset(dj.df, ["qid", "v", "it", "w"]) == {(0, 1, 1, 6), (1, 1, 1, 5)}

    def test_delete_sender_up_to_bound(self, dj):
        dj.delete_rows(pd.DataFrame({"qid": [0, 0], "w": [5, 5], "t": [1, 2]}))
        assert _keyset(dj.df, ["qid", "v", "it", "w"]) == {
            (0, 1, 3, 5), (0, 1, 1, 6), (1, 1, 1, 5),
        }

    def test_delete_exact_message(self, dj):
        dj.delete_rows(pd.DataFrame({"qid": [0], "v": [1], "it": [3], "w": [5]}))
        assert len(dj) == 4 and (0, 1, 3, 5) not in _keyset(dj.df, ["qid", "v", "it", "w"])

    def test_latest_per_sender_for_receiver_keys(self, dj):
        keys = pd.DataFrame({"qid": [0, 0], "v": [1, 9]})
        got = dj.latest_leq(keys, 2)
        assert list(got.columns) == ["qid", "v", "w", "t", "it", "val"]
        assert _keyset(got, ["v", "w", "it", "val"]) == {
            (1, 5, 1, 4.0), (1, 6, 1, 8.0), (9, -1, -1, INF),
        }
        got = dj.latest_leq(keys.head(1), 3)
        assert _keyset(got, ["w", "val"]) == {(5, 2.0), (6, 8.0)}

    def test_latest_leq_input_order(self, dj):
        keys = pd.DataFrame({"qid": [0, 1, 0, 0], "v": [2, 1, 1, 2], "w": [5, 5, 6, 5]})
        got = dj.latest_leq(keys, 3)
        assert got[["qid", "v", "w"]].to_numpy().tolist() == [[0, 2, 5], [1, 1, 5], [0, 1, 6]]
        assert list(got["val"]) == [3.0, 9.0, 8.0]

    def test_rows_for_sender(self, dj):
        got = dj.rows_for_keys(pd.DataFrame({"qid": [0], "w": [5]}))
        assert _keyset(got, ["v", "it"]) == {(1, 1), (1, 3), (2, 2)}

    def test_snapshot_per_message(self, dj):
        snap = dj.snapshot_at(2).set_index(["qid", "v", "w"])["val"]
        assert snap.to_dict() == {(0, 1, 5): 4.0, (0, 1, 6): 8.0, (0, 2, 5): 3.0, (1, 1, 5): 9.0}
