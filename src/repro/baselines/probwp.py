"""ProbWP baseline — min-hash label propagation (paper ref [13]).

Aggarwal, He & Zhao, "Edge classification in networks" (ICDE 2016):
structural similarity between nodes is the Jaccard similarity of their
neighbor sets, estimated with min-hash signatures (the paper and ours
use 20 hash functions). For an unlabeled edge <u, v>, take the top-k
nodes most similar to u (S_u) and to v (S_v); the dominant label among
*labeled* edges with one endpoint in S_u and the other in S_v is the
prediction. The method abstains when no labeled edge spans S_u × S_v —
which is why its F1 collapses at low label percentages (paper Fig. 11).

Signatures are computed distributed (one aggregation over the
adjacency list); the top-k similarity search and voting run on the
driver over the collected signature matrix, which is exact at our
sub-graph scale (the original operates on a labeled sub-graph too).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

_PRIME = 2_147_483_647  # Mersenne prime for the affine hash family


def minhash_signatures(
    spark: SparkSession, edges: DataFrame, n_hashes: int = 20, seed: int = 0
) -> pd.DataFrame:
    """Per-node min-hash signature of the neighbor set.

    Returns a pandas frame (node, s_0..s_{H-1}) in node order; computed
    as one Spark aggregation, ``s_i = min((a_i·member + b_i) mod P)``
    over each node's neighbors. The order is fixed because
    :meth:`ProbWP._top_similar` breaks similarity ties by row.
    """
    g = np.random.default_rng(seed)
    a = g.integers(1, _PRIME, n_hashes, dtype=np.int64)
    b = g.integers(0, _PRIME, n_hashes, dtype=np.int64)
    e = edges.select(F.col("src").alias("node"), F.col("dst").alias("member"))
    member = F.col("member").cast("long")
    return (
        e.unionByName(e.select(F.col("member").alias("node"), F.col("node").alias("member")))
        .groupBy("node")
        .agg(*(F.min((F.lit(int(ai)) * member + F.lit(int(bi))) % _PRIME).alias(f"s_{i}")
               for i, (ai, bi) in enumerate(zip(a, b))))
        .toPandas()
        .sort_values("node", ignore_index=True)
    )


class ProbWP:
    """Fit/predict wrapper following the experiment harness protocol."""

    def __init__(self, n_hashes: int = 20, top_k: int = 10, seed: int = 0):
        self.n_hashes = n_hashes
        self.top_k = top_k
        self.seed = seed

    def fit(
        self, spark: SparkSession, edges: DataFrame, train: pd.DataFrame
    ) -> "ProbWP":
        sigs = minhash_signatures(spark, edges, self.n_hashes, self.seed)
        self.nodes_ = sigs["node"].to_numpy()
        self.sigs_ = sigs[[f"s_{i}" for i in range(self.n_hashes)]].to_numpy()
        self.node_pos_ = {int(n): i for i, n in enumerate(self.nodes_)}
        self.train_ = train.reset_index(drop=True)
        # labeled-edge incidence: node -> list of (other endpoint, label)
        self.incident_: dict = {}
        for s, d, lab in train[["src", "dst", "label"]].itertuples(index=False):
            self.incident_.setdefault(int(s), []).append((int(d), lab))
            self.incident_.setdefault(int(d), []).append((int(s), lab))
        return self

    def _top_similar(self, u: int) -> dict[int, float]:
        """Top-k structurally similar nodes to u, with similarity weights.

        u itself is included with weight 1 (a node is maximally similar
        to itself; its own labeled edges are first-class evidence).
        """
        if u not in self.node_pos_:
            return {u: 1.0}
        su = self.sigs_[self.node_pos_[u]]
        sim = (self.sigs_ == su[None, :]).mean(axis=1)
        order = np.argsort(-sim, kind="stable")[: self.top_k]
        out = {int(self.nodes_[i]): float(sim[i]) for i in order if sim[i] > 0}
        out[u] = 1.0
        return out

    def predict(self, pairs: pd.DataFrame) -> pd.DataFrame:
        """Predict labels for (src, dst) rows; abstentions get None.

        Votes are weighted probabilistically by the min-hash similarity
        of the voting edge's endpoints to u and v — the "probabilistic"
        weighting of ref [13] — so a labeled edge between close
        structural analogues of (u, v) counts more than a distant one.
        """
        preds = []
        for s, d in pairs[["src", "dst"]].itertuples(index=False):
            Su = self._top_similar(int(s))
            Sv = self._top_similar(int(d))
            votes: dict = {}
            for x, wx in Su.items():
                for other, lab in self.incident_.get(x, []):
                    wy = Sv.get(other)
                    if wy is not None and not (x == s and other == d):
                        votes[lab] = votes.get(lab, 0.0) + wx * wy
            if not votes:
                # fallback of the dominant-label rule: when no labeled
                # edge spans S_u × S_v, vote with labeled edges incident
                # to the similar sets one-sidedly (still propagation —
                # never a feature model)
                for x, wx in Su.items():
                    for other, lab in self.incident_.get(x, []):
                        if not (x == s and other == d):
                            votes[lab] = votes.get(lab, 0.0) + wx
                for x, wx in Sv.items():
                    for other, lab in self.incident_.get(x, []):
                        if not (x == d and other == s):
                            votes[lab] = votes.get(lab, 0.0) + wx
            pred = max(sorted(votes), key=lambda k: votes[k]) if votes else None
            preds.append(pred)
        out = pairs[["src", "dst"]].copy()
        out["pred"] = preds
        return out
