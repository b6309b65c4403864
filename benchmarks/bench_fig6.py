"""Bench for Fig. 6: Random vs Degree drop selection under Det-Drop."""
import pytest

from repro.harness.runner import build_engine


@pytest.mark.benchmark(group="fig6")
@pytest.mark.parametrize("policy", ["degree", "random"])
def test_drop_policy_cost(benchmark, spark, khop_wl, policy):
    eng = build_engine(spark, khop_wl, "det", p=0.5, policy=policy)

    def work():
        for b in khop_wl.batches:
            eng.apply_batch(b)
        eng.final_states()  # reads dropped differences back; not counted in n_recomputed
        return eng.drops.n_recomputed

    try:
        benchmark.pedantic(work, rounds=1, iterations=1)
    finally:
        eng.close()
