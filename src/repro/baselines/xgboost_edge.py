"""Plain XGBoost baseline (paper Sec. V "Comparative methods").

A GBDT trained directly on raw pair features: the two endpoints'
individual feature vectors plus the pairwise interaction counters.
This is the method the paper uses to demonstrate the sparsity problem
— ~60% of pairs have all-zero interactions, so recall suffers and
adding more labeled samples does not help (paper Table IV discussion).

Uses the from-scratch GBDT in ``repro.ml.gbdt`` (no xgboost wheel
offline — see DESIGN.md substitutions).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ml.gbdt import GBDT
from repro.socialnet.generator import INTERACTION_DIMS, LABEL_TO_IDX, MAJOR_TYPES, USER_FEATURES


class XGBoostEdge:
    """Fit/predict wrapper following the experiment harness protocol."""

    def __init__(self, n_rounds: int = 40):
        self.n_rounds = n_rounds

    def _features(self, pairs: pd.DataFrame) -> np.ndarray:
        fu = self._users.loc[pairs["src"], USER_FEATURES].to_numpy()
        fv = self._users.loc[pairs["dst"], USER_FEATURES].to_numpy()
        merged = pairs.merge(self._inter, on=["src", "dst"], how="left").fillna(0)
        iv = merged[INTERACTION_DIMS].to_numpy()
        # endpoint order is arbitrary for an undirected edge; use
        # symmetric combinations so the model cannot overfit order
        return np.concatenate([fu + fv, np.abs(fu - fv), iv], axis=1)

    def fit(self, users: pd.DataFrame, interactions: pd.DataFrame,
            train: pd.DataFrame) -> "XGBoostEdge":
        self._users = users.set_index("user_id")
        self._inter = interactions
        X = self._features(train)
        y = train["label"].map(LABEL_TO_IDX).to_numpy()
        self._gbdt = GBDT(n_classes=len(MAJOR_TYPES), n_rounds=self.n_rounds).fit(X, y)
        return self

    def predict(self, pairs: pd.DataFrame) -> pd.DataFrame:
        pred = self._gbdt.predict(self._features(pairs))
        out = pairs[["src", "dst"]].copy()
        out["pred"] = [MAJOR_TYPES[i] for i in pred]
        return out
