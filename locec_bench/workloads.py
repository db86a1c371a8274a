"""Benchmark workloads: generator settings, the labelled split, and the
per-workload input record.

Each workload stresses a different layer of the pipeline, so that a
change to one layer moves the end-to-end figures of one workload and
leaves the other unchanged:

- ``xgb_large_ego``: LoCEC-XGB on a graph whose colleague and school
  circles have 20-24 members. Ego networks of up to ~40 friends make
  Girvan-Newman ~30% of Phase I's core-seconds (~12% on ``cnn_train``),
  towards the regime of the paper's Table VI. GBDT training and
  inference run here and not in ``cnn_train``.
- ``cnn_train``: LoCEC-CNN on the default graph. Ego networks are small
  (median ~11 friends), so Girvan-Newman is cheap (the negative control
  for GN work), driver-side CommCNN training is ~90% of ``train_s``,
  and Phase II uses the k x 12 matrix instead of the pooled vector.

Phase II and III run on both. Sizes are small so that every process
fits two or three timed runs into the benchmark's time budget.
"""
from __future__ import annotations

import inspect
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.socialnet.generator import MAJOR_TYPES, NetConfig, generate, to_spark


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    n_nodes: int
    net: dict = field(default_factory=dict)  # extra NetConfig fields
    run: dict = field(default_factory=dict)  # extra run_locec arguments
    # overall F1 expected on any seed (the median over seeds 1-12), and
    # the allowed deviation: 1.5-2x the largest deviation seen there, far
    # from the ~0.3 of a classifier that has lost the signal
    f1_ref: float = 0.0
    f1_tol: float = 0.0
    # timed runs per process, at the least; the metrics are their medians
    runs: int = 2


LARGE_CIRCLES = {"dept_size_lo": 20, "dept_size_hi": 24,
                 "class_size_lo": 20, "class_size_hi": 24}

WORKLOADS = {
    w.name: w
    for w in (
        # three runs: a ~1.5 s training phase (train_s) is the
        # measurement most exposed to the bursts of a shared machine
        Workload("xgb_large_ego", "xgb", 200, net=LARGE_CIRCLES,
                 f1_ref=0.82, f1_tol=0.10, runs=3),
        Workload("cnn_train", "cnn", 300, run={"cnn_epochs": 4},
                 f1_ref=0.70, f1_tol=0.15),
    )
}

#: The paper's protocol (Sec. V-B), as in ``repro.core.experiment``:
#: 40% of major-type edges are labelled, split 80/20 into train/test.
LABELED_FRAC, TRAIN_FRAC = 0.4, 0.8


@dataclass
class Inputs:
    net: object  # repro.socialnet.generator.SocialNetwork
    edges: object  # Spark frames handed to the program
    interactions: object
    users: object
    train_df: object
    test: pd.DataFrame  # labels never shown to the program, for scoring


def run_params(wl: Workload) -> dict:
    """``run_locec``'s keyword defaults, overridden by the workload."""
    from repro.core.locec import run_locec

    p = {k: v.default for k, v in inspect.signature(run_locec).parameters.items()
         if v.default is not inspect.Parameter.empty}
    p.update(wl.run, variant=wl.variant)
    return p


def build_inputs(spark, wl: Workload, seed: int) -> Inputs:
    """Generate the workload's graph from ``seed`` and split its labels."""
    net = generate(NetConfig(n_nodes=wl.n_nodes, seed=seed, **wl.net))
    edges, inter, users = to_spark(spark, net)
    major = net.edges[net.edges["label"].isin(MAJOR_TYPES)].reset_index(drop=True)
    labeled = major.sample(frac=LABELED_FRAC, random_state=seed)
    train = labeled.sample(frac=TRAIN_FRAC, random_state=seed + 1)
    # scored on every major-type edge the program never saw a label for:
    # the paper's test split plus the unlabelled 60%, ~11x more edges,
    # which narrows F1's seed-to-seed spread
    test = major.drop(train.index).reset_index(drop=True)
    train_df = spark.createDataFrame(train.reset_index(drop=True))
    return Inputs(net, edges, inter, users, train_df, test)


def input_record(net) -> dict:
    """Size of the generated graph and of the per-ego work it implies.

    ``sum_ego_edges`` is the number of Girvan-Newman betweenness passes
    a full dendrogram needs; ``sum_ego_edges_sq`` tracks the GN cost,
    which grows with the square of an ego network's edge count.
    """
    adj = defaultdict(set)
    for s, d in zip(net.edges["src"].tolist(), net.edges["dst"].tolist()):
        adj[s].add(d)
        adj[d].add(s)
    # ego-network edges of v = edges among v's friends = triangles at v
    ego_edges = {v: 0 for v in adj}
    for s, d in zip(net.edges["src"].tolist(), net.edges["dst"].tolist()):
        for v in adj[s] & adj[d]:
            ego_edges[v] += 1
    sizes = np.array([len(f) for f in adj.values()])
    ee = np.array(list(ego_edges.values()), dtype=np.int64)
    return {
        "n": int(net.n_nodes),
        "edges": int(net.n_edges),
        "egos": int(len(adj)),
        "planted_circles": int(net.circles["circle_id"].nunique()),
        "ego_size_p50": float(np.percentile(sizes, 50)),
        "ego_size_p90": float(np.percentile(sizes, 90)),
        "ego_size_max": int(sizes.max()),
        "sum_ego_edges": int(ee.sum()),
        "sum_ego_edges_sq": int((ee**2).sum()),
    }
