#!/usr/bin/env python3
"""LoCEC pipeline benchmark.

    python3 locec_bench/run.py --workload xgb_large_ego --seed 1 --seconds 1 --trace 0

Run from the repository root. ``--trace 0`` is the timed run: it calls
only ``repro.core.locec.run_locec`` and collects the edge predictions,
and reports the end-to-end metrics of ``BENCHMARK.json``. ``--trace 1``
adds a traced run of the same pipeline, layer by layer, and reports the
per-layer metrics. Either way the last line of standard output is one
JSON object; a table of the same metrics with their units goes before
it, and the full record (environment, inputs, every run, spans) is
written to ``.bench_out/``.

Each process starts Spark and builds the workload's inputs five times
(``setup_s`` is the median, which leaves out the JVM launch of the
first), then repeats timed runs until ``--seconds`` have passed and the
workload's number of runs were made, and reports their medians. The
first run of a fresh session is measured as it comes, JIT compilation,
code generation and Python worker start-up included (a third of it
here), as every batch job pays them. Several runs per process damp the
bursts of a shared machine, to which the ~1.5 s training phase of
``xgb_large_ego`` (``train_s``) is the most exposed measurement; there
the median of three runs also sets the first aside. A warm-up run left
out of the medians would cost as much and, on the same runs, gave
``train_s`` a wider spread.
The traced mode makes two untraced runs, which must do the same Spark
work and give the same predictions, then the traced run, which is
compared with the second, warm one (``trace.overhead_s``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer, spark_counts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
SETUP_REPEATS = 5
TRACE_UNTRACED_RUNS = 2
#: no timed run starts once the next would likely end past this many
#: seconds of the process, so that a slow machine still ends in time
TIME_BUDGET_S = 100.0


def prepare_environment() -> str:
    """Make ``repro`` importable here and in Spark's Python workers, and
    keep the files Spark, the JVM and Python write inside the checkout.

    Workers are started by the JVM and inherit its environment, not this
    interpreter's ``sys.path``, so ``src`` goes on ``PYTHONPATH`` before
    the JVM is launched. Returns the temporary directory.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: {SRC}/repro not found; run from a full checkout")
    sys.path.insert(0, SRC)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # Spark gives its Python workers one BLAS thread per task; the driver
    # trains the models while the JVM's own threads still run, so it gets
    # one too rather than a pool as large as the machine (same speed here)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ["TMPDIR"] = tmp
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={shlex.quote(tmp)} pyspark-shell"
    )
    return tmp


def start_spark(tmp: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("locec-bench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", tmp)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark):
    """Stop the session and the JVM behind it, and wait for the JVM."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    spark.stop()
    if gw is not None:
        gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits at EOF on its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def openblas_info() -> dict:
    """Thread count and build config of the OpenBLAS numpy links against."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libopenblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_cfg = getattr(lib, f"openblas_get_config{suffix}", None)
            if get_cfg is not None:
                get_cfg.restype = ctypes.c_char_p
                return {"config": get_cfg().decode(),
                        "threads": getattr(lib, f"openblas_get_num_threads{suffix}")()}
    return {}


def environment(spark, load_at_start) -> dict:
    import numpy as np

    sc = spark.sparkContext
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "load_avg_at_start": load_at_start,
        "spark_version": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "adaptive_execution": spark.conf.get("spark.sql.adaptive.enabled"),
        "driver_memory": DRIVER_MEMORY,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_info(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---- one pipeline run ---------------------------------------------------

def timed_run(spark, inp, params: dict, tag: str):
    """``run_locec`` plus collecting its predictions, under job group
    ``tag``. Returns the run's record, the (cached) ``LocecResult`` and
    the collected predictions."""
    from repro.core.locec import run_locec

    sc = spark.sparkContext
    sc.setJobGroup(tag, tag)
    t0 = time.perf_counter()
    res = run_locec(spark, inp.edges, inp.interactions, inp.users, inp.train_df,
                    **params)
    pred = res.edge_pred.toPandas()
    wall = time.perf_counter() - t0
    sc.setJobGroup(f"{tag}-checks", "output checks")
    rec = {
        "wall_s": wall,
        "infer_s": res.timings["total"],
        "train_s": res.train_time,
        "timings": dict(res.timings),
        "spark": spark_counts(sc, tag),
        "member_rows": res.member_df.count(),
    }
    return rec, res, pred


def release(spark, res, baseline: int) -> int:
    """Unpersist every frame of a ``LocecResult``; returns how many cached
    frames the run left behind beyond those, then drops them too, so the
    next run starts from the same state."""
    from pyspark.sql import DataFrame

    for v in vars(res).values():
        if isinstance(v, DataFrame):
            v.unpersist(blocking=True)
    leaked = spark.sparkContext._jsc.getPersistentRDDs().size() - baseline
    spark.catalog.clearCache()
    return leaked


def check_outputs(rec: dict, pred, inp, wl) -> list[str]:
    """The checks every timed run must pass; returns the failures."""
    from repro.core.experiment import score_edge_predictions
    from repro.socialnet.generator import MAJOR_TYPES

    n_edges = inp.net.n_edges
    fails = []
    if len(pred) != n_edges:
        fails.append(f"predicted edges {len(pred)} != |E| {n_edges}")
    if pred.duplicated(["src", "dst"]).any():
        fails.append("duplicate predicted edges")
    if rec["member_rows"] != 2 * n_edges:
        fails.append(f"member_df rows {rec['member_rows']} != 2|E| {2 * n_edges}")
    bad = set(pred["pred"]) - set(MAJOR_TYPES)
    if bad:
        fails.append(f"predictions outside MAJOR_TYPES: {sorted(bad)}")
    tab = score_edge_predictions(inp.test, pred)
    rec["f1"] = float(tab.loc[tab["type"] == "overall", "f1"].iloc[0])
    if abs(rec["f1"] - wl.f1_ref) > wl.f1_tol:
        fails.append(f"f1 {rec['f1']:.4f} outside {wl.f1_ref} +- {wl.f1_tol}")
    return fails


def same_predictions(a, b) -> tuple[bool, float]:
    """Equal edge sets and labels? Also returns max |dp| over the p_*."""
    key = ["src", "dst"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    if len(a) != len(b) or not (a[key].to_numpy() == b[key].to_numpy()).all():
        return False, float("inf")
    pcols = [c for c in a.columns if c.startswith("p_")]
    dp = float((a[pcols] - b[pcols]).abs().to_numpy().max()) if pcols else 0.0
    return bool((a["pred"] == b["pred"]).all()), dp


# ---- main ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_process = time.perf_counter()
    load_at_start = os.getloadavg()
    tmp = prepare_environment()

    from traced import TracedRun
    from workloads import WORKLOADS, build_inputs, input_record, run_params

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    params = run_params(wl)

    setup_s, spark, problems, computed = [], None, [], {}
    iters, preds, fails, attempted = [], [], [], 0
    try:
        for _ in range(SETUP_REPEATS):
            if spark is not None:
                spark.stop()
            t0 = time.perf_counter()
            spark = start_spark(tmp)
            inp = build_inputs(spark, wl, args.seed)
            setup_s.append(time.perf_counter() - t0)
        sc = spark.sparkContext
        record = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "params": params,
            "env": environment(spark, load_at_start),
            "inputs": input_record(inp.net),
            "setup_s": setup_s,
        }
        baseline = sc._jsc.getPersistentRDDs().size()
        t_loop = time.perf_counter()
        while True:
            attempted += 1
            try:
                rec, res, pred = timed_run(spark, inp, params, f"run{attempted}")
                rec["failures"] = check_outputs(rec, pred, inp, wl)
            except Exception:  # a crashed run counts as failed; go on
                fails.append(traceback.format_exc())
                rec = None
            if rec is not None:  # measured, even if a check failed
                # a frame left cached would serve the next run's plans
                rec["leaked_cached_frames"] = release(spark, res, baseline)
                iters.append(rec)
                preds.append(pred)
                if rec["failures"]:
                    fails.append("; ".join(rec["failures"]))
            now = time.perf_counter()
            if args.trace:
                if attempted == TRACE_UNTRACED_RUNS:
                    break
            elif (now - t_loop >= args.seconds and attempted >= wl.runs) or (
                    now - t_process) + (now - t_loop) / attempted > TIME_BUDGET_S:
                break
        record["runs"] = iters
        record["failed_runs"] = fails

        # repeated runs on one input must redo the same work: equal
        # executed task counts rule out reused shuffle output, and equal
        # predictions show the pipeline is deterministic
        for rec, pred in zip(iters[1:], preds[1:]):
            if (rec["spark"]["tasks"], rec["spark"]["stages"]) != (
                    iters[0]["spark"]["tasks"], iters[0]["spark"]["stages"]):
                problems.append(f"Spark work differs between runs: "
                                f"{rec['spark']} vs {iters[0]['spark']}")
            eq, rec["max_dprob_vs_first"] = same_predictions(pred, preds[0])
            if not eq:
                problems.append("predictions differ between runs of one input")

        if args.trace and len(iters) == TRACE_UNTRACED_RUNS:
            tracer = Tracer(sc, "trace")
            tr = TracedRun(spark, tracer, params, inp, res)
            traced_pred = tr.pipeline()
            eq, dp = same_predictions(traced_pred, preds[-1])
            if not eq:
                problems.append("traced predictions differ from the timed run's")
            tr.replay_udfs()
            tr.replay_models()
            tr.unpersist()
            computed = tr.metrics(iters[-1], iters[0]["wall_s"])
            computed["locec.leaked_cached_frames"] = iters[-1]["leaked_cached_frames"]
            record.update(spans=tracer.records(), absent=tr.absent,
                          traced_max_dprob=dp)
        elif args.trace:
            problems.append("no traced run: an untraced run failed")
    finally:
        if spark is not None:
            stop_spark(spark)

    if iters and not args.trace:
        med = lambda k: statistics.median(r[k] for r in iters)  # noqa: E731
        computed = {
            "setup_s": statistics.median(setup_s),
            "wall_s": med("wall_s"),
            "infer_s": med("infer_s"),
            "train_s": med("train_s"),
            "edges_per_s": statistics.median(
                inp.net.n_edges / r["infer_s"] for r in iters),
            "f1": med("f1"),
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(computed.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in metrics_spec}
    missing = [m["name"] for m in metrics_spec if m["name"] not in computed]
    correct = bool(computed) and not fails and not problems
    record.update(metrics=metrics, missing_metrics=missing, problems=problems,
                  attempted=attempted, failed=len(fails),
                  process_s=time.perf_counter() - t_process)
    with open(os.path.join(
            OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)

    for m in metrics_spec:
        v = metrics[m["name"]]
        print(f"{m['name']:<48} {v['value']:>14.6g} {v['unit']}")
    print(f"{'failed_frac':<48} {len(fails) / attempted:>14.6g} runs")
    for name, why in record.get("absent", {}).items():
        print(f"absent: {name} ({why}); its metrics read 0")
    for p in problems + [f.splitlines()[-1] for f in fails]:
        print(f"PROBLEM: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(fails), "metrics": metrics}))
    return 0 if computed else 1


if __name__ == "__main__":
    sys.exit(main())
