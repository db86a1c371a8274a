#!/usr/bin/env python
"""Reproduce paper Table V: local-community classification P/R/F1 for
LoCEC-XGB vs LoCEC-CNN over ground-truth-labeled communities (majority
vote of labeled ego↔member edges), 80/20 split.

    python jobs/table5_community_classification.py [--n-nodes 3000]
"""
from _common import arg_parser, emit, spark_session


def main():
    ap = arg_parser("Table V: community classification")
    ap.add_argument("--cnn-epochs", type=int, default=80)
    args = ap.parse_args()

    spark = spark_session("table5")
    spark.sparkContext.setLogLevel("ERROR")
    from repro.core.tables import table5

    tab = table5(
        spark, n_nodes=args.n_nodes, seed=args.seed, cnn_epochs=args.cnn_epochs
    )
    emit(tab.round(4), "table5", args.out)
    spark.stop()


if __name__ == "__main__":
    main()
