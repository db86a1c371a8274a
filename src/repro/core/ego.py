"""Phase I, step 1 — ego-network extraction as a Spark dataflow.

An edge (a, b) belongs to the ego network of v iff v is friends with
both a and b (and the ego's own incident edges are excluded — paper
Sec. IV-A). Materializing all ego networks at once is therefore a
triangle enumeration: join the undirected edge list with the adjacency
list twice. The shuffle cost is Σ_v deg(v)², the same quantity the
paper parallelizes per ego node across servers.

All outputs keep ``src < dst`` canonical edge orientation.
``tests/test_ego.py`` checks these DataFrames against a DuckDB SQL
oracle over the same edge table.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def adjacency(edges: DataFrame) -> DataFrame:
    """Symmetrize the canonical edge list into (ego, member) rows.

    One row per *directed* friendship; the members of ego v's network
    are exactly the rows with ego = v. The ground-truth ``label`` column
    (if present) is carried along for evaluation joins.
    """
    cols = [c for c in edges.columns if c not in ("src", "dst")]
    fwd = edges.select(
        F.col("src").alias("ego"), F.col("dst").alias("member"), *cols
    )
    bwd = edges.select(
        F.col("dst").alias("ego"), F.col("src").alias("member"), *cols
    )
    return fwd.unionByName(bwd)


def ego_edges(edges: DataFrame) -> DataFrame:
    """All (ego, src, dst) triples: edge (src, dst) inside ego's network.

    Triangle join: (ego, src) ∈ adj  AND  (src, dst) ∈ E  AND
    (ego, dst) ∈ adj. Both endpoints being the ego's friends is exactly
    the paper's ego-network edge set E_v; the ego's own edges never
    appear because src ≠ ego ≠ dst by construction.
    """
    adj = adjacency(edges.select("src", "dst"))
    e = edges.select("src", "dst")
    left = adj.select(F.col("ego"), F.col("member").alias("src"))
    right = adj.select(
        F.col("ego").alias("ego_r"), F.col("member").alias("dst_r")
    )
    return (
        left.join(e, on="src")
        .join(
            right,
            (F.col("ego") == F.col("ego_r")) & (F.col("dst") == F.col("dst_r")),
        )
        .select("ego", "src", "dst")
    )

