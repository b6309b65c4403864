"""Engine-level partial-dropping tests (§5): Det/Prob-Drop semantics.

The gold matrix already proves answer correctness under dropping; these
tests pin the *mechanics*: memory shrinks, dropped differences are
recomputed on access (and counted during maintenance — the Fig. 6b
metric), Prob-Drop's structure stays fixed-size, and the degree policy
spares hubs.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.dropping import DropManager
from repro.core.engine import DCJODEngine
from repro.core.policies import DegreePolicy, RandomPolicy
from repro.core.specs import sssp_spec
from repro.core.static_ife import run_static
from repro.graphs.generators import skitter_like
from repro.graphs.updates import split_stream, to_batches
from tests.helpers import assert_states_match


@pytest.fixture(scope="module")
def setting():
    g = skitter_like(scale=0.05)
    init, stream = split_stream(g)
    batches = to_batches(init, stream, n_batches=3)
    spec = sssp_spec({0: int(init["src"].iloc[0])})
    deg = init.groupby("src").size().add(init.groupby("dst").size(), fill_value=0)
    return init, batches, spec, deg.astype(float)


def _engine(spark, setting, structure, policy, p):
    init, batches, spec, deg = setting
    pol = (
        RandomPolicy(p, seed=1) if policy == "random" else DegreePolicy(p, deg, seed=1)
    )
    dm = DropManager(pol, structure=structure, bloom_capacity=1 << 14)
    return DCJODEngine(spark, spec, init, drop_manager=dm), batches, spec


class TestMemoryReduction:
    @pytest.mark.parametrize("structure", ["det", "prob"])
    def test_dropping_shrinks_store(self, spark, setting, structure):
        init, batches, spec, _ = setting
        full = DCJODEngine(spark, spec, init)
        n_full = full.store.n_diffs()
        full.close()
        eng, _, _ = _engine(spark, setting, structure, "random", 0.7)
        try:
            assert eng.store.n_diffs() < n_full
            assert eng.drops.n_dropped > 0
        finally:
            eng.close()

    def test_prob_cheaper_than_det_at_same_drops(self, spark, setting):
        """§5.1.2: same dropped count, smaller DroppedVT footprint (with the
        Bloom filter sized to the same capacity the det table actually
        holds — ~1.2 bytes/entry vs 12)."""
        init, batches, spec, deg = setting
        det_dm = DropManager(RandomPolicy(0.7, seed=1), structure="det")
        det = DCJODEngine(spark, spec, init, drop_manager=det_dm)
        n = det_dm.n_dropped
        prob_dm = DropManager(
            RandomPolicy(0.7, seed=1), structure="prob", bloom_capacity=max(n, 1)
        )
        prob = DCJODEngine(spark, spec, init, drop_manager=prob_dm)
        try:
            # identical policies/seeds drop identical difference sets
            assert det.drops.n_dropped == prob.drops.n_dropped
            assert prob.drops.size_bytes() < det.drops.size_bytes()
        finally:
            det.close()
            prob.close()

    def test_prob_size_constant_while_det_grows(self, spark, setting):
        """The scalability asymmetry: det bytes grow with drops, prob don't."""
        d3, _, _ = _engine(spark, setting, "det", "random", 0.3)
        d9, _, _ = _engine(spark, setting, "det", "random", 0.9)
        p3, _, _ = _engine(spark, setting, "prob", "random", 0.3)
        p9, _, _ = _engine(spark, setting, "prob", "random", 0.9)
        try:
            assert d9.drops.size_bytes() > d3.drops.size_bytes()
            assert p9.drops.size_bytes() == p3.drops.size_bytes()
        finally:
            for e in (d3, d9, p3, p9):
                e.close()


class TestRecomputeOnAccess:
    @pytest.mark.parametrize("structure", ["det", "prob"])
    def test_final_states_recompute_dropped(self, spark, setting, structure):
        eng, batches, spec = _engine(spark, setting, structure, "random", 0.5)
        try:
            for b in batches:
                eng.apply_batch(b)
            exp = run_static(spark, eng.edges, spec).final
            assert_states_match(eng.final_states(), exp)
            assert eng.drops.n_dropped > 0  # drops really were exercised
        finally:
            eng.close()

    def test_final_states_leaves_counters(self, spark, setting):
        """The Fig. 6b counters count maintenance: reading the output adds nothing."""
        eng, batches, _ = _engine(spark, setting, "det", "random", 0.5)
        try:
            for b in batches:
                eng.apply_batch(b)
            before = (eng.drops.n_recomputed, dict(eng.drops.recompute_counts))
            eng.final_states()
            assert (eng.drops.n_recomputed, eng.drops.recompute_counts) == before
        finally:
            eng.close()

    def test_recompute_counts_per_vertex(self, spark, setting):
        eng, batches, _ = _engine(spark, setting, "det", "random", 0.5)
        try:
            for b in batches:
                eng.apply_batch(b)
            eng.final_states()
            assert sum(eng.drops.recompute_counts.values()) == eng.drops.n_recomputed
        finally:
            eng.close()


class TestDegreePolicyOnEngine:
    def test_hub_differences_survive(self, spark, setting):
        init, batches, spec, deg = setting
        eng, _, _ = _engine(spark, setting, "det", "degree", 1.0)
        try:
            tau_max = eng.drops.policy.tau_max
            hubs = set(deg[deg > tau_max].index.astype(int))
            dropped_vs = set(eng.drops.dropped_log["v"].astype(int))
            assert not (hubs & dropped_vs)
        finally:
            eng.close()

    def test_leaves_always_dropped_even_at_p0(self, spark):
        """Fig. 6a note: Degree at p=0 still drops all deg<τ_min diffs.

        Uses a handcrafted graph with degree-1 leaves reachable from the
        source (the module fixture's dense graph has no such vertices)."""
        from tests.helpers import edge_frame

        # hub 0 with enough fan-out to set a high τ_max; leaves 10..13
        rows = [(0, i, 1) for i in range(1, 6)] + [(1, 2, 1), (2, 3, 1)]
        rows += [(3, 10, 1), (3, 11, 1), (4, 12, 1), (4, 13, 1)]
        init = edge_frame(rows)
        deg = init.groupby("src").size().add(
            init.groupby("dst").size(), fill_value=0
        ).astype(float)
        spec = sssp_spec({0: 0})
        pol = DegreePolicy(0.0, deg, tau_min=2, seed=1)
        eng = DCJODEngine(
            spark, spec, init, drop_manager=DropManager(pol, structure="det")
        )
        try:
            assert eng.drops.n_dropped > 0
            dropped_deg = eng.drops.dropped_log["v"].map(deg).fillna(0)
            assert (dropped_deg < pol.tau_min).all()
            # 5 is also a degree-1 leaf of the hub
            assert {5, 10, 11, 12, 13} >= set(eng.drops.dropped_log["v"].astype(int))
        finally:
            eng.close()
