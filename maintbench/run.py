"""Maintenance benchmark for the differential engines.

Usage, from the root of the repository:

    python3 maintbench/run.py --workload khop-prob --seed 1 --seconds 8 --trace 0

One run builds one workload (see ``workloads.py``) in one SparkSession and
drives the public engine API: ``repro.harness.runner.build_engine`` and
``DCJODEngine.apply_batch``. It

1. builds the engine once, untimed, to warm the JVM, then ``SETUPS`` more
   times (once with ``--trace 1``), closing each engine before the next
   build, and reports the median of the timed builds as ``setup_s``;
2. applies the workload's warm-up batches, untimed;
3. checks the states against networkx (``check.py``);
4. applies whole rounds of batches, timing each ``apply_batch``, until the
   timed batches add up to ``--seconds``;
5. checks the states again.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, from the last set-up engine. With ``--trace 1`` two
fresh engines then run steps 2 to 5 one after the other, one untraced and
one traced (``tracer.py``), in an order that alternates with the seed.
The JSON holds the traced engine's per-layer metrics, and the ratio of the
two engines' update rates is the tracing overhead. Diagnostics go to
stderr as one ``diagnostics:`` JSON line.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".maintbench"
SETUPS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def state_bytes(eng) -> int:
    """Measured bytes of the frames and arrays the engine reads."""
    frames = [eng.store.df]
    if eng.materializes_join:
        frames.append(eng.jstore)
    n = 0
    if eng.drops is not None:
        # The exact dropped log is read by filter_new_rows and final_states
        # under both structures, so it is counted for Prob-Drop too.
        frames.append(eng.drops.dropped_log)
        if eng.drops.bloom is not None:
            n += eng.drops.bloom._bits.nbytes
    return n + sum(int(f.memory_usage(index=True).sum()) for f in frames)


def drop_counters(eng) -> dict:
    """Fig. 6b counters; read them before ``final_states`` adds to them."""
    dm = eng.drops
    if dm is None:
        return {"n_recomputed": 0, "n_dropped": 0, "recomputed_keys": 0}
    return {
        "n_recomputed": dm.n_recomputed,
        "n_dropped": dm.n_dropped,
        "recomputed_keys": len(dm.recompute_counts),
    }


def bloom_fill(eng) -> float:
    """Share of the Bloom filter's bits that are set."""
    import numpy as np

    if eng.drops is None or eng.drops.bloom is None:
        return 0.0
    bloom = eng.drops.bloom
    return float(np.unpackbits(bloom._bits.view(np.uint8)).sum()) / bloom.n_bits


class Lane:
    """One engine and what the run has seen of it."""

    def __init__(self, eng, traced: bool) -> None:
        self.eng = eng
        self.traced = traced
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.jobs: list[int] = []
        self.updates = 0
        self.n_sched = 0
        self.n_changed = 0
        self.diff_peak = 0
        self.state_peak = 0
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.errors: list[str] = []
        self.rounds = 0
        self.steal0 = self.steal1 = None  # machine-wide steal around the timed window
        self.start = self.end = self.after = {}  # drop counters (drop_counters)
        self.digest: str | None = None
        self.bloom_fill = 0.0
        self.dj_rows = 0
        self.note_memory()

    def note_memory(self) -> None:
        self.diff_peak = max(self.diff_peak, self.eng.memory_bytes()["total_bytes"])
        self.state_peak = max(self.state_peak, state_bytes(self.eng))


def run(spark, plan, args) -> tuple[dict, dict]:
    import check
    import session
    import workloads
    from repro.harness.runner import build_engine
    from tracer import Tracer

    trace = bool(args.trace)
    wl = workloads.build(plan)
    batches = wl.batches
    jvm = session.jvm_pid(spark)
    tracer = Tracer(spark.sparkContext)
    if trace:
        tracer.install()
    diag: dict = {
        "workload": plan.name,
        "inputs": workloads.describe(plan),
        "seed": args.seed,
        "master": session.MASTER,
        "trace": args.trace,
        "phase_s": {},
    }
    last = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        diag["phase_s"][name] = round(now - last[0], 2)
        last[0] = now

    def build():
        return build_engine(spark, wl, plan.system, **plan.engine_kw)

    # -- 1. set-up: one untimed build warms the JVM, then SETUPS timed ones
    # (one traced one with --trace 1, which builds two more engines below);
    # each engine is closed before the next build, except the last untraced one
    setups, static_s, setup_jobs = [], [], []
    n_setups = 1 if trace else SETUPS
    for k in range(1 + n_setups):
        tracer.reset()
        tracer.scope(f"bench-setup{k}")
        tracer.enabled = trace and k > 0
        t0 = time.perf_counter()
        eng = build()
        wall = time.perf_counter() - t0
        tracer.enabled = False
        jobs = tracer.scope_jobs()
        if k == 0:
            diag["warmup_setup_s"] = wall
        else:
            setups.append(wall)
            setup_jobs.append(jobs)
            static_s.append(tracer.total_s["static"])
        if k < n_setups or trace:
            eng.close()
    diag["setup_s"] = setups
    diag["setup_spark_jobs"] = setup_jobs
    phase("setup")

    def apply(lane: Lane, i: int, timed: bool) -> None:
        lane.attempted += 1
        b = batches[i]
        tracer.scope(f"bench-b{i}-{int(lane.traced)}")
        tracer.enabled = lane.traced and timed
        c0 = session.cpu_seconds(jvm)
        t0 = time.perf_counter()
        try:
            m = lane.eng.apply_batch(b)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            lane.failed += 1
            lane.broken = True
            return
        finally:
            tracer.enabled = False
        wall = time.perf_counter() - t0
        cpu = session.cpu_seconds(jvm) - c0
        jobs = tracer.scope_jobs()
        if timed:
            lane.walls.append(wall)
            lane.cpus.append(cpu)
            lane.jobs.append(jobs)
            lane.updates += len(b.changes)
            lane.n_sched += m["n_sched"]
            lane.n_changed += m["n_changed"]

    def verify(lane: Lane, upto: int, covered: int) -> str | None:
        if lane.broken:
            return None
        errs, digest = check.check_engine(
            lane.eng, wl.spec, check.live_edges(wl.initial, batches[:upto])
        )
        if errs:
            lane.failed += covered
            lane.errors += errs
            print(f"check after batch {upto} failed: {errs}", file=sys.stderr)
        return digest

    def drive(lane: Lane, tag: str) -> None:
        """Warm-up, mid-run check, timed rounds and final check of one lane."""
        for i in range(plan.warmup):
            if not lane.broken:
                apply(lane, i, timed=False)
                lane.note_memory()
        phase(f"{tag}warmup")
        verify(lane, plan.warmup, plan.warmup)
        phase(f"{tag}mid_check")
        lane.start = drop_counters(lane.eng)

        # the timed window: whole rounds until --seconds is spent
        lane.steal0 = session.steal_seconds()
        if lane.traced:
            tracer.reset()
        i = plan.warmup
        while sum(lane.walls) < args.seconds and i + plan.round_size <= len(batches):
            for _ in range(plan.round_size):
                if not lane.broken:
                    apply(lane, i, timed=True)
                    if lane.rounds == 0:
                        lane.note_memory()
                i += 1
            lane.rounds += 1
        lane.steal1 = session.steal_seconds()
        lane.end = drop_counters(lane.eng)
        phase(f"{tag}timed")

        lane.digest = verify(lane, i, i - plan.warmup)
        lane.after = drop_counters(lane.eng)
        lane.bloom_fill = bloom_fill(lane.eng)
        lane.dj_rows = len(lane.eng.jstore) if lane.eng.materializes_join else 0
        lane.eng.close()
        phase(f"{tag}final_check")

    # -- 2. the lanes, one after the other. Untraced: the last set-up engine.
    # Traced: two fresh engines, untraced and traced, in an order that
    # alternates with the seed. Engines of one session must not be alive
    # together: equal edge frames share one cache entry, which either
    # engine's unpersist drops (README, "Tracing overhead").
    if not trace:
        lanes = [Lane(eng, traced=False)]
        drive(lanes[0], "")
    else:
        lanes = []
        for traced in (False, True) if args.seed % 2 == 0 else (True, False):
            lane = Lane(build(), traced=traced)
            drive(lane, "traced_" if traced else "untraced_")
            lanes.append(lane)
        lanes.sort(key=lambda lane: lane.traced)

    main = lanes[-1]
    attempted = sum(lane.attempted for lane in lanes)
    failed = sum(lane.failed for lane in lanes)
    correct = not any(lane.errors or lane.broken for lane in lanes)
    if not main.walls:
        raise RuntimeError("no batch was timed")
    ups = main.updates / sum(main.walls)
    diag.update(
        attempted_batches=attempted,
        failed_batches=failed,
        timed_batches=len(main.walls),
        rounds=main.rounds,
        steal_s=None if main.steal0 is None else round(main.steal1 - main.steal0, 2),
        timed_wall_s=round(sum(main.walls), 3),
        batch_walls=[round(w, 3) for w in main.walls],
        timed_cpu_s=round(sum(main.cpus), 3),
        spark_jobs=sum(main.jobs),
        spark_jobs_per_batch=main.jobs,
        n_sched=main.n_sched,
        n_changed=main.n_changed,
        diff_bytes_peak=main.diff_peak,
        state_bytes_peak=main.state_peak,
        drop_counters_at_end=main.end,
        recomputations_added_by_final_check=main.after["n_recomputed"] - main.end["n_recomputed"],
        final_states_digest=main.digest,
    )

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "batch_p50_s": (statistics.median(main.walls), "s"),
            "updates_per_s": (ups, "1/s"),
            "cpu_s_per_update": (sum(main.cpus) / main.updates, "s"),
            "diff_bytes_peak": (main.diff_peak, "B"),
            "state_bytes_peak": (main.state_peak, "B"),
        }
    else:
        plain = lanes[0]
        ups_plain = plain.updates / sum(plain.walls)
        u = main.updates
        ts, cnt = tracer.self_s, tracer.counts
        layer_sum = sum(ts.values()) + tracer.overhead_s
        diag.update(
            lane_order="untraced first" if args.seed % 2 == 0 else "traced first",
            untraced_updates_per_s=round(ups_plain, 4),
            traced_updates_per_s=round(ups, 4),
            tracing_overhead=round(1 - ups / ups_plain, 4),
            untraced_spark_jobs_per_batch=plain.jobs,
            ungrouped_jobs=tracer.ungrouped_jobs,
            self_time_coverage=round(layer_sum / sum(main.walls), 4),
            engine_self_share=round(ts["engine"] / sum(main.walls), 4),
            tracer_bookkeeping_s=round(tracer.overhead_s, 4),
        )
        rec = main.end["n_recomputed"] - main.start["n_recomputed"]
        metrics = {
            "batch.wall_s": (sum(main.walls) / u, "s/update"),
            "batch.spark_jobs": (sum(main.jobs) / u, "count/update"),
            "frontier.self_s": (ts["frontier"] / u, "s/update"),
            "frontier.calls": (tracer.calls["frontier"] / u, "count/update"),
            "frontier.spark_jobs": (cnt["frontier.spark_jobs"] / u, "count/update"),
            "frontier.rows_in": (cnt["frontier.rows_in"] / u, "count/update"),
            "frontier.rows_out": (cnt["frontier.rows_out"] / u, "count/update"),
            "store.read_s": (ts["store.read"] / u, "s/update"),
            "store.write_s": (ts["store.write"] / u, "s/update"),
            "store.calls": ((tracer.calls["store.read"] + tracer.calls["store.write"]) / u, "count/update"),
            "schedule.self_s": (ts["schedule"] / u, "s/update"),
            "schedule.reruns": (main.n_sched / u, "count/update"),
            "schedule.changed": (main.n_changed / u, "count/update"),
            "schedule.precision": (main.n_changed / main.n_sched if main.n_sched else 0.0, "ratio"),
            "resolve.self_s": (ts["resolve"] / u, "s/update"),
            "resolve.recomputed": (rec / u, "count/update"),
            "dropping.self_s": (ts["dropping"] / u, "s/update"),
            "dropping.dropped": (cnt["dropping.dropped"] / u, "count/update"),
            "bloom.self_s": (ts["bloom"] / u, "s/update"),
            "bloom.fill_est": (main.bloom_fill, "ratio"),
            "vdc.djstore_s": (ts["vdc"] / u, "s/update"),
            "vdc.dj_rows": (main.dj_rows, "count"),
            "graph.update_s": (ts["graph"] / u, "s/update"),
            "engine.self_s": (ts["engine"] / u, "s/update"),
            "static.run_s": (statistics.median(static_s), "s"),
            "setup.spark_jobs": (statistics.median(setup_jobs), "count"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, diag


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"maintbench: no engine sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    plan = workloads.PLANS.get(args.workload)
    if plan is None:
        print(f"maintbench: unknown workload {args.workload!r}; one of {sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    import session

    t0 = time.perf_counter()
    spark = session.start_spark(WORK)
    t1 = time.perf_counter()
    try:
        result, diag = run(spark, plan, args)
    finally:
        session.stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)
    diag["phase_s"].update(spark_start=round(t1 - t0, 2), total=round(time.perf_counter() - t0, 2))
    print("diagnostics: " + json.dumps(diag), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
