#!/usr/bin/env python
"""Reproduce paper Table IV: relationship (edge) classification P/R/F1
for ProbWP, Economix, XGBoost, LoCEC-XGB and LoCEC-CNN on the
40%-labeled sub-graph with an 80/20 train/test split.

    python jobs/table4_edge_classification.py [--n-nodes 3000] [--cnn-epochs 80]
"""
from _common import arg_parser, emit, spark_session


def main():
    ap = arg_parser("Table IV: edge classification, 5 methods")
    ap.add_argument("--cnn-epochs", type=int, default=80)
    ap.add_argument("--labeled-frac", type=float, default=0.4)
    ap.add_argument(
        "--methods",
        default="ProbWP,Economix,XGBoost,LoCEC-XGB,LoCEC-CNN",
        help="comma-separated subset to run",
    )
    args = ap.parse_args()

    spark = spark_session("table4")
    spark.sparkContext.setLogLevel("ERROR")
    from repro.core.tables import table4

    tab = table4(
        spark,
        n_nodes=args.n_nodes,
        seed=args.seed,
        labeled_frac=args.labeled_frac,
        cnn_epochs=args.cnn_epochs,
        methods=tuple(args.methods.split(",")),
    )
    emit(tab.round(4), "table4", args.out)
    spark.stop()


if __name__ == "__main__":
    main()
