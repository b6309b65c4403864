"""Experiment driver: run one (workload × system configuration) cell.

Systems (§6.1.3):

* ``scratch``  — re-run the static IFE after every batch (no differential
  state; its difference memory is 0).
* ``vdc``      — vanilla differential computation (stores δD and δJ).
* ``jod``      — DC^JOD (stores δD only).
* ``det``/``prob`` — JOD plus Det-Drop / Prob-Drop partial dropping with a
  Random or Degree selection policy and drop probability p.

Returns a metrics dict with per-batch times, peak modelled memory
(:mod:`repro.core.memory`), difference counts, dropped/recompute counters,
and an ``oom`` flag when a ``budget_bytes`` is exceeded — the analogue of
the paper's fixed 10 GB difference-storage budget.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core.dropping import DropManager
from repro.core.engine import DCJODEngine
from repro.core.policies import DegreePolicy, RandomPolicy
from repro.core.static_ife import run_static
from repro.core.vdc import VDCEngine
from repro.graphs.updates import apply_batch
from repro.harness.workloads import Workload

SYSTEMS = ("scratch", "vdc", "jod", "det", "prob")


def make_policy(name: str, p: float, degrees, seed: int = 0):
    if name == "random":
        return RandomPolicy(p, seed=seed)
    if name == "degree":
        return DegreePolicy(p, degrees, seed=seed)
    raise ValueError(name)


def build_engine(
    spark: SparkSession,
    wl: Workload,
    system: str,
    *,
    p: float = 0.0,
    policy: str = "degree",
    bloom_capacity: int | None = None,
    bloom_fp_rate: float = 0.01,
    seed: int = 0,
) -> DCJODEngine:
    """Instantiate the differential engine for a system configuration."""
    if system == "vdc":
        return VDCEngine(spark, wl.spec, wl.initial)
    if system == "jod":
        return DCJODEngine(spark, wl.spec, wl.initial)
    if system in ("det", "prob"):
        pol = make_policy(policy, p, wl.degrees, seed=seed)
        cap = bloom_capacity or max(1024, 2 * len(wl.initial))
        dm = DropManager(
            pol, structure=system, bloom_capacity=cap, bloom_fp_rate=bloom_fp_rate
        )
        return DCJODEngine(spark, wl.spec, wl.initial, drop_manager=dm)
    raise ValueError(system)


def run_config(
    spark: SparkSession,
    wl: Workload,
    system: str,
    *,
    p: float = 0.0,
    policy: str = "degree",
    budget_bytes: float | None = None,
    bloom_capacity: int | None = None,
    bloom_fp_rate: float = 0.01,
    max_batches: int | None = None,
    seed: int = 0,
) -> dict:
    """Run the workload under one system; collect the paper's metrics."""
    batches = wl.batches if max_batches is None else wl.batches[: max_batches]
    out: dict = {
        "workload": wl.name,
        "system": system,
        "p": p,
        "policy": policy,
        "n_queries": wl.n_queries,
        "batch_times": [],
        "oom": False,
    }

    if system == "scratch":
        edges = wl.initial
        t_load0 = time.perf_counter()
        res = run_static(spark, edges, wl.spec)
        out["load_s"] = time.perf_counter() - t_load0
        for b in batches:
            t0 = time.perf_counter()
            edges = apply_batch(edges, b)
            res = run_static(spark, edges, wl.spec)
            out["batch_times"].append(time.perf_counter() - t0)
        out.update(
            update_s=float(np.sum(out["batch_times"])),
            peak_bytes=0,
            n_d_diffs=0,
            n_j_diffs=0,
            n_dropped=0,
            n_recomputed=0,
            final=res.final,
        )
        return out

    eng = build_engine(
        spark, wl, system, p=p, policy=policy,
        bloom_capacity=bloom_capacity, bloom_fp_rate=bloom_fp_rate, seed=seed,
    )
    try:
        out["load_s"] = eng.metrics["load_s"]
        peak = eng.memory_bytes()["total_bytes"]
        if budget_bytes is not None and peak > budget_bytes:
            out.update(oom=True, peak_bytes=peak, update_s=float("nan"))
            return out
        for b in batches:
            m = eng.apply_batch(b)
            out["batch_times"].append(m["batch_s"])
            mem = eng.memory_bytes()["total_bytes"]
            peak = max(peak, mem)
            if budget_bytes is not None and mem > budget_bytes:
                out["oom"] = True
                break
        mb = eng.memory_bytes()
        dm = eng.drops
        out.update(
            update_s=float(np.sum(out["batch_times"])),
            peak_bytes=peak,
            n_d_diffs=mb["n_d_diffs"],
            n_j_diffs=mb["n_j_diffs"],
            dropped_struct_bytes=mb["dropped_struct_bytes"],
            n_dropped=dm.n_dropped if dm else 0,
            n_recomputed=dm.n_recomputed if dm else 0,
            recompute_counts=dict(dm.recompute_counts) if dm else {},
            per_qid_diffs=eng.store.per_qid_counts().to_dict(),
            n_sched=eng.metrics["n_sched"],
            n_changed=eng.metrics["n_changed"],
        )
        if not out["oom"]:
            out["final"] = eng.final_states()
        return out
    finally:
        eng.close()
