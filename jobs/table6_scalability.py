#!/usr/bin/env python
"""Reproduce paper Table VI: per-phase running time of LoCEC-CNN, plus
the paper's Fig.-12a-style scaling check in input size.

Absolute numbers are seconds on one local[*] machine rather than hours
on 100 servers; the reproducible *shape* is the per-phase share
(Phase I ≫ Phase II > Phase III) and near-linear growth in input size.

    python jobs/table6_scalability.py [--n-nodes 3000] [--scaling]
"""
import time

import pandas as pd

from _common import arg_parser, emit, spark_session


def main():
    ap = arg_parser("Table VI: phase running time")
    ap.add_argument("--cnn-epochs", type=int, default=30)
    ap.add_argument(
        "--scaling", action="store_true",
        help="also run the input-size scaling sweep (Fig. 12a analogue)",
    )
    ap.add_argument(
        "--sweep-only", action="store_true",
        help="skip the main phase-split run, only do the scaling sweep",
    )
    args = ap.parse_args()

    spark = spark_session("table6")
    spark.sparkContext.setLogLevel("ERROR")
    from repro.core.tables import table6
    from repro.core.experiment import make_experiment
    from repro.core.locec import run_locec

    if not args.sweep_only:
        tab = table6(
            spark, n_nodes=args.n_nodes, seed=args.seed, cnn_epochs=args.cnn_epochs
        )
        emit(tab.round(4), "table6", args.out)

    if args.scaling or args.sweep_only:
        rows = []
        for n in (args.n_nodes // 4, args.n_nodes // 2, args.n_nodes):
            # distinct seed per size: identical lineages would let Spark
            # reuse shuffle outputs and fake sub-linear scaling
            ex = make_experiment(spark, n_nodes=n, seed=args.seed + n)
            t0 = time.perf_counter()
            res = run_locec(
                spark, ex.edges, ex.interactions, ex.users, ex.train_df(spark),
                variant="cnn", cnn_epochs=max(4, args.cnn_epochs // 4),
            )
            rows.append(
                {"n_nodes": n, "n_edges": ex.net.n_edges,
                 **{k: round(v, 2) for k, v in res.timings.items()},
                 "wall": round(time.perf_counter() - t0, 2)}
            )
            res.unpersist()
        emit(pd.DataFrame(rows), "table6_scaling", None)
    spark.stop()


if __name__ == "__main__":
    main()
