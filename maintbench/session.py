"""The benchmark's Spark session, CPU clocks and teardown.

Everything Spark and Python write at run time goes under ``work``, a
directory inside the checkout: the JVM's temp dir, Spark's local dirs and
warehouse, and the gateway's connection file.
"""
from __future__ import annotations

import os
import time
from pathlib import Path

#: fixed for every run: one local core and a 1 GiB driver heap. One core
#: runs these small jobs as fast as two, with less CPU (README, Spark session).
MASTER = "local[1]"
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = 8
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def start_spark(work: Path):
    """One SparkSession with the settings the README lists."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f'--driver-java-options "-Djava.io.tmpdir={tmp} -XX:-UsePerfData" '
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={work / 'spark-local'} "
        f"--conf spark.sql.warehouse.dir={work / 'warehouse'} "
        "pyspark-shell"
    )
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("maintbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it."""
    sc = spark.sparkContext
    proc = sc._gateway.proc
    spark.stop()
    sc._gateway.shutdown()
    if proc.stdin:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except Exception:
        proc.kill()
        proc.wait()


def jvm_pid(spark) -> int:
    return int(spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid())


def _proc_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def cpu_seconds(jvm: int) -> float:
    """CPU seconds used so far by this process and by the Spark JVM."""
    return time.process_time() + _proc_cpu(jvm)


def steal_seconds() -> float | None:
    """Machine-wide CPU steal so far (all CPUs), or None if unreadable."""
    try:
        with open("/proc/stat") as f:
            cpu = f.readline().split()
        return int(cpu[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return None
