"""Economix baseline — matrix factorization over structure + content
(paper ref [14]: Aggarwal, Li, Yu & Zhao, ICDE 2017).

The original treats every edge as a *document*: the words are drawn
from text attached to the relationship (communication history), and a
matrix-factorization couples the edge×word matrix with the network
structure to propagate labels. Communication text is unavailable (as
in the LoCEC paper itself, which substitutes "each interaction together
with the number of interaction times as a word"), so we follow the same
substitution:

- **content**: each edge's bag-of-words has one token per (interaction
  dimension, log-count bucket); the edge×word count matrix is
  factorized with a truncated SVD into latent edge factors.
- **structure**: per-endpoint distributions of *visible* (train) edge
  labels, plus the label distribution over the edge's *common
  neighborhood* (labeled edges lying strictly inside N(u)∩N(v)).
  Structurally adjacent edges share these features, which is how the
  original's factorization propagates labels along the graph — and why
  Economix improves as more labels are revealed (paper Fig. 11). The
  edge's own incident labels are deliberately NOT looked up directly:
  MF propagates through latent smoothing, not neighbor lookups.

A multinomial logistic regression over [latent factors ‖ endpoint
label distributions] produces the final prediction. This preserves the
baseline's qualitative behaviour: better than raw-feature XGBoost at
low label rates (it uses structure), worse than LoCEC (no community
aggregation), improving steadily with label percentage.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ml.logreg import LogisticRegression
from repro.socialnet.generator import INTERACTION_DIMS, LABEL_TO_IDX, MAJOR_TYPES

_BUCKETS = 4  # log2 count buckets per interaction dimension
_RANK = 24  # latent edge factors kept from the SVD


def edge_word_matrix(interactions: pd.DataFrame) -> np.ndarray:
    """Edge×word counts: word = (dimension, min(⌊log2(count)⌋+1, B))."""
    counts = interactions[INTERACTION_DIMS].to_numpy(dtype=float)
    m, d = counts.shape
    W = np.zeros((m, d * _BUCKETS))
    nz = counts > 0
    bucket = np.minimum(np.floor(np.log2(np.maximum(counts, 1))).astype(int), _BUCKETS - 1)
    rows, dims = np.nonzero(nz)
    W[rows, dims * _BUCKETS + bucket[rows, dims]] = 1.0
    return W


def _svd_factors(W: np.ndarray, rank: int) -> np.ndarray:
    """Truncated-SVD edge factors (U·Σ) of the edge×word matrix."""
    if W.shape[1] == 0 or not W.any():
        return np.zeros((len(W), rank))
    U, S, _ = np.linalg.svd(W, full_matrices=False)
    r = min(rank, len(S))
    out = np.zeros((len(W), rank))
    out[:, :r] = U[:, :r] * S[:r]
    return out


class Economix:
    """Fit/predict wrapper following the experiment harness protocol."""

    def _label_dist(self, node: int) -> np.ndarray:
        d = self._node_labels.get(int(node))
        if d is None:
            return np.zeros(len(MAJOR_TYPES))
        return d / d.sum()

    def _common_nbhd_dist(self, u: int, v: int) -> np.ndarray:
        """Label distribution of visible edges strictly inside N(u)∩N(v).

        Only edges between two *common neighbors* vote — the edge's own
        endpoints are excluded, so this is indirect structural evidence
        (factor sharing between structurally adjacent edge-documents),
        not a direct neighbor-label lookup.
        """
        u, v = int(u), int(v)
        w = self._nbrs.get(u, frozenset()) & self._nbrs.get(v, frozenset())
        if not w:
            return np.zeros(len(MAJOR_TYPES) + 1)
        votes = np.zeros(len(MAJOR_TYPES))
        for x in w:
            for other, lab in self._incident.get(x, []):
                if other in w and other > x:
                    votes[LABEL_TO_IDX[lab]] += 1
        t = votes.sum()
        dist = votes / t if t else votes
        return np.concatenate([dist, [len(w)]])

    def _features(self, pairs: pd.DataFrame) -> np.ndarray:
        latent = self._factors[pairs["_eid"].to_numpy(dtype=int)]
        su = np.stack([self._label_dist(s) for s in pairs["src"]])
        sv = np.stack([self._label_dist(d) for d in pairs["dst"]])
        cn = np.stack(
            [self._common_nbhd_dist(s, d)
             for s, d in pairs[["src", "dst"]].itertuples(index=False)]
        )
        # symmetrize endpoint structure features (edges are undirected)
        return np.concatenate([latent, su + sv, np.abs(su - sv), cn], axis=1)

    def fit(self, edges: pd.DataFrame, interactions: pd.DataFrame,
            train: pd.DataFrame) -> "Economix":
        """``edges`` indexes the universe; ``train`` carries visible labels."""
        self._edges = edges.reset_index(drop=True)[["src", "dst"]].copy()
        self._edges["_eid"] = np.arange(len(self._edges))
        inter = self._edges[["src", "dst", "_eid"]].merge(
            interactions, on=["src", "dst"], how="left"
        ).fillna(0)
        self._factors = _svd_factors(edge_word_matrix(inter), _RANK)
        # adjacency over the *whole* graph (structure is label-free)
        self._nbrs: dict = {}
        for s, d in self._edges[["src", "dst"]].itertuples(index=False):
            self._nbrs.setdefault(int(s), set()).add(int(d))
            self._nbrs.setdefault(int(d), set()).add(int(s))
        self._nbrs = {k: frozenset(v) for k, v in self._nbrs.items()}
        # per-node visible label distributions (the propagation signal)
        self._node_labels = {}
        self._incident: dict = {}
        for s, d, lab in train[["src", "dst", "label"]].itertuples(index=False):
            for n, o in ((int(s), int(d)), (int(d), int(s))):
                v = self._node_labels.setdefault(n, np.zeros(len(MAJOR_TYPES)))
                v[LABEL_TO_IDX[lab]] += 1
                self._incident.setdefault(n, []).append((o, lab))
        tr = self._edges.merge(train, on=["src", "dst"])
        X = self._features(tr)
        y = tr["label"].map(LABEL_TO_IDX).to_numpy()
        self._lr = LogisticRegression(n_classes=len(MAJOR_TYPES)).fit(X, y)
        return self

    def predict(self, pairs: pd.DataFrame) -> pd.DataFrame:
        p = pairs.merge(self._edges[["src", "dst", "_eid"]], on=["src", "dst"])
        X = self._features(p)
        pred = self._lr.predict(X)
        out = p[["src", "dst"]].copy()
        out["pred"] = [MAJOR_TYPES[i] for i in pred]
        return out
