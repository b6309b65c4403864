"""The benchmark's workloads.

Every workload is built by the repo's own generators and
``repro.harness.workloads.make_workload`` at one fixed seed, so the graph,
the query sources, the update stream and the vertex ids are the same in
every run, whatever ``--seed`` says. The ids must stay fixed: the Degree
policy draws one random number per new difference in the row order the
engine produces, and that order follows Spark's hash partitioning of the
ids, so relabelling an isomorphic workload changes which differences
Prob-Drop drops and how much work follows (README, "Workloads").
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.generators import livejournal_like, skitter_like
from repro.harness.workloads import Workload, make_workload

#: seed of the generators, the 90/10 split and the update stream
STRUCTURE_SEED = 0
N_QUERIES = 10
K_HOPS = 5
#: batches generated per workload; the timed window stops early if they run out
N_BATCHES = 400


@dataclass(frozen=True)
class Plan:
    """How one workload is built and run."""

    name: str
    graph: str  # generator name in GRAPHS
    kind: str  # query kind passed to make_workload
    system: str  # system passed to build_engine
    delete_prob: float
    engine_kw: dict
    warmup: int  # untimed batches before the timed window
    round_size: int  # batches per timed round


GRAPHS = {
    "skitter_like(0.2)": lambda: skitter_like(scale=0.2),
    "livejournal_like(0.2)": lambda: livejournal_like(scale=0.2),
}

# The warm-up and round sizes keep one run between 40 and 80 s on 4 vCPUs. One
# round takes longer than the 8 s window on its own, so every run times the
# same batches. The sssp-vdc-del batches issue 14 to 36 Spark jobs each; a
# round of 15 puts the median among batches of similar cost, so one slowed
# batch moves batch_p50_s by a few percent rather than a quarter.
PLANS = {
    p.name: p
    for p in (
        Plan(
            name="khop-prob",
            graph="skitter_like(0.2)",
            kind="khop",
            system="prob",
            delete_prob=0.0,
            engine_kw={"p": 0.5, "policy": "degree"},
            warmup=1,
            round_size=3,
        ),
        Plan(
            name="sssp-vdc-del",
            graph="livejournal_like(0.2)",
            kind="sssp",
            system="vdc",
            delete_prob=0.5,
            engine_kw={},
            warmup=2,
            round_size=15,
        ),
    )
}


def build(plan: Plan) -> Workload:
    """The plan's workload; the same in every run."""
    return make_workload(
        GRAPHS[plan.graph](),
        plan.kind,
        n_queries=N_QUERIES,
        n_batches=N_BATCHES,
        delete_prob=plan.delete_prob,
        k=K_HOPS,
        seed=STRUCTURE_SEED,
    )


def describe(plan: Plan) -> str:
    q = f"{N_QUERIES} {plan.kind.upper()} queries" + (f" (K={K_HOPS})" if plan.kind == "khop" else "")
    kw = ", ".join(f"{k}={v}" for k, v in plan.engine_kw.items())
    return (
        f"{plan.graph}; {q}; system={plan.system}{' (' + kw + ')' if kw else ''}; "
        f"delete_prob={plan.delete_prob}; single-edge batches"
    )

