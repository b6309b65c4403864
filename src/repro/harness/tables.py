"""Shared infrastructure for the jobs/ entrypoints.

Each job reproduces one table/figure of the paper's evaluation as a table
of numbers: it exposes ``run(spark) -> pandas.DataFrame`` and a ``main()``
wrapper for ``spark-submit``. Results are printed and also written to
``results/<job>.csv`` so EXPERIMENTS.md can cite them.

Scale knobs (environment variables, defaults chosen so the whole suite
runs on one local session in tens of minutes — see DESIGN.md §6):

* ``REPRO_SCALE``           graph scale factor (default 0.2 ≈ 1/5000 of paper)
* ``REPRO_BATCHES``         update batches per experiment (default 20)
* ``REPRO_SCRATCH_BATCHES`` batches actually measured for SCRATCH before
  extrapolating to REPRO_BATCHES (SCRATCH's per-batch cost is constant —
  it recomputes everything every time — so 3 measured batches suffice)
* ``REPRO_QUERIES``         concurrent queries per workload (default 10)
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pandas as pd

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def envf(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def envi(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


SCALE = envf("REPRO_SCALE", 0.2)
N_BATCHES = envi("REPRO_BATCHES", 20)
SCRATCH_BATCHES = envi("REPRO_SCRATCH_BATCHES", 3)
N_QUERIES = envi("REPRO_QUERIES", 10)


def get_spark(app: str):
    """Session for standalone (spark-submit) job execution."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def scratch_time(spark, wl, n_total: int) -> tuple[float, list[float]]:
    """Measured-then-extrapolated SCRATCH total update time.

    SCRATCH re-executes the full static computation per batch, so its
    per-batch cost does not depend on the batch index; we measure
    ``REPRO_SCRATCH_BATCHES`` batches and scale to ``n_total``.
    """
    from repro.harness.runner import run_config

    out = run_config(spark, wl, "scratch", max_batches=min(SCRATCH_BATCHES, n_total))
    per = float(np.mean(out["batch_times"]))
    return per * n_total, out["batch_times"]


def emit(name: str, df: pd.DataFrame) -> pd.DataFrame:
    """Print the table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.csv"
    df.to_csv(path, index=False)
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        print(f"\n== {name} ==")
        print(df.to_string(index=False))
        print(f"[written {path}]")
    return df
