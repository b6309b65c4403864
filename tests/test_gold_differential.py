"""Gold invariant: differential maintenance ≡ from-scratch recomputation.

For every query kind × system configuration × update mix, after each batch
the engine's reassembled final states must equal a static run on the
updated graph (Thm 4.1 correctness, extended to partial dropping, whose
recomputation path must reconstruct every dropped difference exactly).
The SSSP case additionally cross-checks the static run against the DuckDB
oracle at the end, so the gold standard itself is anchored.
"""
import numpy as np
import pandas as pd
import pytest

from repro import oracle
from repro.core import specs
from repro.core.dropping import DropManager
from repro.core.engine import DCJODEngine
from repro.core.policies import DegreePolicy, RandomPolicy
from repro.core.static_ife import run_static
from repro.core.vdc import VDCEngine
from repro.rpq.automaton import q2
from repro.rpq.product import product_edges, source_product_vertex
from tests.helpers import assert_states_match, random_batches, tiny_graph
from tests.test_static_queries import SSSP_SQL, _edges_f64, _per_qid

N, M = 14, 36
N_BATCHES = 4


def _degrees(edges):
    return (
        edges.groupby("src").size().add(edges.groupby("dst").size(), fill_value=0)
    ).astype(float)


def make_engine(spark, spec, edges, system, p=0.5, policy="degree", seed=0):
    if system == "vdc":
        return VDCEngine(spark, spec, edges)
    if system == "jod":
        return DCJODEngine(spark, spec, edges)
    structure = "det" if system.startswith("det") else "prob"
    pol = (
        RandomPolicy(p, seed=seed)
        if policy == "random"
        else DegreePolicy(p, _degrees(edges), seed=seed)
    )
    dm = DropManager(pol, structure=structure, bloom_capacity=4096)
    return DCJODEngine(spark, spec, edges, drop_manager=dm)


def _spec_for(kind, edges, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "sssp":
        return specs.sssp_spec({0: int(edges["src"].iloc[0]), 1: int(edges["src"].iloc[1])})
    if kind == "khop":
        return specs.khop_spec({0: int(edges["src"].iloc[0])}, k=4)
    if kind == "wcc":
        return specs.wcc_spec()
    if kind == "pr":
        return specs.pr_spec()
    raise ValueError(kind)


def _edges_for(kind, seed):
    e = tiny_graph(N, M, seed=seed, weighted=(kind == "sssp"))
    if kind == "wcc":
        e = pd.concat(
            [e, e.rename(columns={"src": "dst", "dst": "src"})[e.columns]],
            ignore_index=True,
        ).drop_duplicates(subset=["src", "dst"], keep="first").reset_index(drop=True)
    return e


def _sym_batches(batches):
    from repro.graphs.updates import Batch

    out = []
    for b in batches:
        rev = b.changes.rename(columns={"src": "dst", "dst": "src"})[b.changes.columns]
        out.append(Batch(pd.concat([b.changes, rev], ignore_index=True)))
    return out


def _check_batches(spark, eng, spec, batches):
    """Apply each batch and compare with a static run; returns the last one."""
    for b in batches:
        eng.apply_batch(b)
        exp = run_static(spark, eng.edges, spec).final
        assert_states_match(eng.final_states(), exp)
    return exp


SYSTEMS = ["vdc", "jod", "det-degree", "det-random", "prob-degree", "prob-random"]
KINDS = ["sssp", "khop", "wcc", "pr"]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("delete_prob", [0.0, 0.5], ids=["inserts", "mixed"])
def test_gold(spark, system, kind, delete_prob):
    import zlib

    seed = zlib.crc32(f"{system}/{kind}/{delete_prob}".encode()) % 1000
    edges = _edges_for(kind, seed)
    spec = _spec_for(kind, edges, seed)
    batches = random_batches(edges, N_BATCHES, delete_prob=delete_prob, n_vertices=N, seed=seed)
    if kind == "wcc":
        batches = _sym_batches(batches)
    policy = system.split("-")[1] if "-" in system else "degree"
    sysname = system.split("-")[0]
    eng = make_engine(spark, spec, edges, sysname, p=0.5, policy=policy, seed=seed)
    try:
        exp = _check_batches(spark, eng, spec, batches)
        if kind == "sssp":
            cap = float(eng.edges["weight"].sum())
            src = spec.sources[0]
            oracle.assert_equivalent(
                spark.createDataFrame(_per_qid(exp, 0)),
                SSSP_SQL.format(src=src, cap=cap),
                edges=_edges_f64(eng.edges),
            )
    finally:
        eng.close()


# Vertices first seen mid-stream (WCC and PR give every vertex a base
# value): (spec, initial edges, one batch of inserts).
NEW_VERTICES = {
    # 1 joins the component {5, 6}, whose label must drop to 1.
    "wcc": (specs.wcc_spec(), [(5, 6), (6, 5)], [(1, 5), (5, 1)]),
    # New sources 1 and 7: static gives 0.15 at 1 and 7 and 1.85 at 5 and 6.
    "pr": (specs.pr_spec(), [(5, 6), (6, 5)], [(1, 5), (7, 6)]),
}


@pytest.mark.parametrize("system", ["jod", "vdc", "det", "prob"])
@pytest.mark.parametrize("case", list(NEW_VERTICES))
def test_gold_new_vertices(spark, system, case):
    from repro.graphs.updates import Batch
    from tests.helpers import edge_frame

    spec, initial, inserts = NEW_VERTICES[case]
    eng = make_engine(spark, spec, edge_frame([(s, d, 1) for s, d in initial]), system)
    try:
        batch = Batch(edge_frame([(s, d, 1) for s, d in inserts]).assign(mult=1))
        _check_batches(spark, eng, spec, [batch])
    finally:
        eng.close()


@pytest.mark.parametrize("system", ["jod", "det-degree", "prob-random"])
def test_gold_rpq(spark, system):
    """RPQ gold: maintenance over the product graph of Q2 = likes∘replyOf*."""
    rng = np.random.default_rng(42)
    edges = tiny_graph(N, M, seed=9, weighted=False)
    edges["label"] = rng.choice(["likes", "replyOf", "knows"], len(edges))
    a = q2("likes", "replyOf")
    cand = edges[edges["label"] == "likes"]["src"].unique()
    spec = specs.rpq_spec({0: source_product_vertex(int(cand[0]), a)})
    pinit = product_edges(edges, a)

    raw_batches = random_batches(edges, N_BATCHES, delete_prob=0.4, n_vertices=N, seed=10)
    from repro.graphs.updates import Batch

    pbatches = []
    live = edges.copy()
    for b in raw_batches:
        ch = b.changes.copy()
        ch["label"] = rng.choice(["likes", "replyOf", "knows"], len(ch))
        # deletes must name live labelled edges: relabel from the live set
        for idx, row in ch[ch["mult"] < 0].iterrows():
            m = live[(live["src"] == row["src"]) & (live["dst"] == row["dst"])]
            if len(m):
                ch.loc[idx, ["label", "weight"]] = m.iloc[0][["label", "weight"]]
            else:
                ch.loc[idx, "mult"] = 1  # nothing to delete: make it an insert
        from repro.graphs.updates import apply_batch

        live = apply_batch(live, Batch(ch))
        pbatches.append(Batch(product_edges(ch, a)))

    policy = system.split("-")[1] if "-" in system else "degree"
    eng = make_engine(spark, spec, pinit, system.split("-")[0], p=0.5, policy=policy)
    try:
        pedges = pinit
        for raw, pb in zip(raw_batches, pbatches):
            eng.apply_batch(pb)
            exp = run_static(spark, eng.edges, spec).final
            assert_states_match(eng.final_states(), exp)
    finally:
        eng.close()


class TestGoldEdgeCases:
    def test_delete_disconnects(self, spark):
        """Deleting the only path makes downstream vertices unreachable."""
        from repro.graphs.updates import Batch
        from tests.helpers import edge_frame

        edges = edge_frame([(0, 1, 2), (1, 2, 3), (2, 3, 1)])
        spec = specs.sssp_spec({0: 0})
        eng = DCJODEngine(spark, spec, edges)
        try:
            b = Batch(edge_frame([(1, 2, 3)]).assign(mult=-1))
            eng.apply_batch(b)
            got = dict(eng.final_states().set_index("v")["val"])
            assert got == {0: 0.0, 1: 2.0}  # 2 and 3 now unreachable
        finally:
            eng.close()

    def test_insert_reconnects(self, spark):
        from repro.graphs.updates import Batch
        from tests.helpers import edge_frame

        edges = edge_frame([(0, 1, 2)])
        spec = specs.sssp_spec({0: 0})
        eng = DCJODEngine(spark, spec, edges)
        try:
            eng.apply_batch(Batch(edge_frame([(1, 5, 4)]).assign(mult=1)))
            got = dict(eng.final_states().set_index("v")["val"])
            assert got[5] == 6.0
        finally:
            eng.close()

    def test_longer_convergence_than_g0(self, spark):
        """An update can push the computation beyond the old max iteration."""
        from repro.graphs.updates import Batch
        from tests.helpers import edge_frame

        edges = edge_frame([(0, 1, 1)])
        spec = specs.sssp_spec({0: 0})
        eng = DCJODEngine(spark, spec, edges)
        try:
            for i in range(1, 5):
                eng.apply_batch(Batch(edge_frame([(i, i + 1, 1)]).assign(mult=1)))
            got = dict(eng.final_states().set_index("v")["val"])
            assert got[5] == 5.0 and eng.max_it >= 5
        finally:
            eng.close()

    def test_weight_decrease_then_increase(self, spark):
        from repro.graphs.updates import Batch
        from tests.helpers import edge_frame

        edges = edge_frame([(0, 1, 10), (0, 2, 3), (2, 1, 3)])
        spec = specs.sssp_spec({0: 0})
        eng = DCJODEngine(spark, spec, edges)
        try:
            ch = pd.concat(
                [
                    edge_frame([(0, 1, 10)]).assign(mult=-1),
                    edge_frame([(0, 1, 1)]).assign(mult=1),
                ],
                ignore_index=True,
            )
            eng.apply_batch(Batch(ch))
            assert dict(eng.final_states().set_index("v")["val"])[1] == 1.0
            ch2 = pd.concat(
                [
                    edge_frame([(0, 1, 1)]).assign(mult=-1),
                    edge_frame([(0, 1, 50)]).assign(mult=1),
                ],
                ignore_index=True,
            )
            eng.apply_batch(Batch(ch2))
            assert dict(eng.final_states().set_index("v")["val"])[1] == 6.0
        finally:
            eng.close()
