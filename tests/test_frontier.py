"""Join+Aggregate operator contract: each entry point vs a pandas reference.

The graph has one pair of parallel edges (0→1 with weights 1 and 3), so
each test also checks how parallel messages combine.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import frontier as fr
from repro.core import specs

EDGES = pd.DataFrame(
    {
        "src": [0, 0, 0, 1, 2, 3],
        "dst": [1, 1, 2, 2, 3, 1],
        "weight": [1.0, 3.0, 2.0, 1.0, 1.0, 4.0],
    }
)

SPECS = {
    "sssp": specs.sssp_spec({0: 0, 1: 2}),
    "khop": specs.khop_spec({0: 0, 1: 2}, k=3),
    "rpq": specs.rpq_spec({0: 0, 1: 2}),
    "wcc": specs.wcc_spec(),
    "pr": specs.pr_spec(),
}


@pytest.fixture(scope="module")
def edges_sp(spark):
    sp = fr.edges_to_spark(spark, EDGES)
    yield sp
    sp.unpersist()


def _senders(spec) -> pd.DataFrame:
    """(qid, w, val[, aux]) sender states for every query of ``spec``."""
    rows = [(q, w, float(10 * q + w + 1)) for q in spec.qids() for w in (0, 1, 2, 3)]
    st = pd.DataFrame(rows, columns=["qid", "w", "val"])
    if spec.needs_outdeg:
        st["aux"] = st["w"].map(EDGES.groupby("src").size()).astype(float)
    return st


def _messages(spec, senders: pd.DataFrame) -> pd.DataFrame:
    """Reference Join: one (qid, v, w, val) row per sender out-edge."""
    m = EDGES.merge(senders.rename(columns={"w": "src"}), on="src")
    if spec.kind == "sssp":
        val = m["val"] + m["weight"]
    elif spec.kind in ("khop", "rpq"):
        val = m["val"] + 1.0
    elif spec.kind == "wcc":
        val = m["val"]
    else:
        val = 0.85 * m["val"] / m["aux"]
    out = pd.DataFrame({"qid": m["qid"], "v": m["dst"], "w": m["src"], "val": val})
    if "it" in m.columns:
        out["it"] = m["it"]
    return out


def _agg(spec, rows: pd.DataFrame, keys) -> pd.DataFrame:
    return rows.groupby(list(keys), as_index=False)["val"].agg(spec.agg)


def _same(got: pd.DataFrame, want: pd.DataFrame) -> None:
    cols = list(want.columns)
    keys = [c for c in cols if c != "val"]
    got = got[cols].sort_values(keys).reset_index(drop=True)
    want = want.sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, rtol=1e-12)


@pytest.mark.parametrize("kind", list(SPECS))
def test_push_messages(spark, edges_sp, kind):
    spec = SPECS[kind]
    st = _senders(spec)
    got = fr.push_messages(spark, edges_sp, st, spec)
    _same(got, _agg(spec, _messages(spec, st), ["qid", "v"]))


@pytest.mark.parametrize("kind", list(SPECS))
def test_aggregate_at(spark, edges_sp, kind):
    spec = SPECS[kind]
    st = _senders(spec)
    frontier = pd.DataFrame([(q, v) for q in spec.qids() for v in (0, 1, 2)], columns=["qid", "v"])
    base = pd.DataFrame([(q, 0, -5.0) for q in spec.qids()], columns=["qid", "v", "val"])
    got = fr.aggregate_at(spark, edges_sp, frontier, st, base, spec)
    msgs = _messages(spec, st).merge(frontier, on=["qid", "v"])
    want = _agg(spec, pd.concat([msgs[["qid", "v", "val"]], base]), ["qid", "v"])
    _same(got, want)
    # Vertex 3 receives messages from 2 but is outside the frontier.
    assert set(got["v"]) == {0, 1, 2}


def test_aggregate_at_base_only(spark, edges_sp):
    spec = SPECS["sssp"]
    frontier = pd.DataFrame({"qid": [0, 0], "v": [0, 3]})
    base = pd.DataFrame({"qid": [0], "v": [0], "val": [0.0]})
    empty_states = pd.DataFrame({"qid": [], "w": [], "val": []})
    got = fr.aggregate_at(spark, edges_sp, frontier, empty_states, base, spec)
    _same(got, base)


@pytest.mark.parametrize("carry_it", [False, True])
@pytest.mark.parametrize("kind", ["sssp", "pr"])
def test_raw_messages(spark, edges_sp, kind, carry_it):
    spec = SPECS[kind]
    st = _senders(spec)
    keys = ["qid", "v", "w"]
    if carry_it:
        st["it"] = st["w"] % 2
        keys.append("it")
    got = fr.raw_messages(spark, edges_sp, st, spec, carry_it=carry_it)
    want = _agg(spec, _messages(spec, st), keys)
    _same(got, want)
    # The parallel pair 0→1 gives one row per (qid, v, w).
    assert not got.duplicated(keys).any()
    assert len(got[(got["w"] == 0) & (got["v"] == 1)]) == len(spec.qids())


@pytest.mark.parametrize("kind", ["sssp", "pr"])
def test_aggregate_msgs(spark, kind):
    spec = SPECS[kind]
    msgs = pd.DataFrame(
        {"qid": [0, 0, 0, 0], "v": [1, 1, 2, 2], "w": [0, 3, 0, 1], "it": [1, 2, 1, 1], "val": [4.0, 2.0, 3.0, 9.0]}
    )
    base = pd.DataFrame({"qid": [0, 0], "v": [2, 3], "val": [0.15, 0.15]})
    got = fr.aggregate_msgs(spark, msgs, base, spec)
    want = _agg(spec, pd.concat([msgs[["qid", "v", "val"]], base]), ["qid", "v"])
    _same(got, want)


class TestEmptyInputs:
    E_ST = pd.DataFrame({"qid": [], "w": [], "val": []})
    E_KEYS = pd.DataFrame({"qid": [], "v": []})
    E_ROWS = pd.DataFrame({"qid": [], "v": [], "val": []})

    def _check(self, got, cols):
        assert len(got) == 0 and set(got.columns) == set(cols)

    def test_aggregate_at_empty_frontier(self, spark, edges_sp):
        st = _senders(SPECS["sssp"])
        got = fr.aggregate_at(spark, edges_sp, self.E_KEYS, st, self.E_ROWS, SPECS["sssp"])
        self._check(got, ["qid", "v", "val"])

    def test_aggregate_at_no_states_no_base(self, spark, edges_sp):
        frontier = pd.DataFrame({"qid": [0], "v": [1]})
        got = fr.aggregate_at(spark, edges_sp, frontier, self.E_ST, self.E_ROWS, SPECS["sssp"])
        self._check(got, ["qid", "v", "val"])

    def test_push_messages(self, spark, edges_sp):
        self._check(fr.push_messages(spark, edges_sp, self.E_ST, SPECS["sssp"]), ["qid", "v", "val"])

    @pytest.mark.parametrize("carry_it", [False, True])
    def test_raw_messages(self, spark, edges_sp, carry_it):
        got = fr.raw_messages(spark, edges_sp, self.E_ST, SPECS["sssp"], carry_it=carry_it)
        self._check(got, ["qid", "v", "w", "val"] + (["it"] if carry_it else []))

    def test_aggregate_msgs(self, spark):
        got = fr.aggregate_msgs(spark, self.E_ROWS, self.E_ROWS, SPECS["sssp"])
        self._check(got, ["qid", "v", "val"])

    def test_no_receiving_edge(self, spark, edges_sp):
        # Vertex 9 has no out-edges: the join yields nothing.
        st = pd.DataFrame({"qid": [0], "w": [9], "val": [1.0]})
        self._check(fr.push_messages(spark, edges_sp, st, SPECS["sssp"]), ["qid", "v", "val"])


def test_edges_to_spark_types(spark):
    sp = fr.edges_to_spark(spark, EDGES.astype({"src": np.int32, "weight": np.float32}))
    try:
        assert [(f.name, f.dataType.simpleString()) for f in sp.schema.fields] == [
            ("src", "bigint"), ("dst", "bigint"), ("weight", "double"),
        ]
        assert sp.count() == len(EDGES)
    finally:
        sp.unpersist()
