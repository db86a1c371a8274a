"""Per-class and overall precision / recall / F1 (paper Tables II, IV, V).

The paper reports per-type P/R/F1 plus an "Overall" row. Its overall
numbers behave like macro averages of the per-class precision and
recall (with F1 recomputed from those averages), which is what
:func:`prf_table` produces.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r else 0.0


def prf_table(y_true, y_pred, labels: list[str]) -> pd.DataFrame:
    """Per-class P/R/F1 plus a macro 'overall' row.

    ``y_true`` / ``y_pred`` are array-likes of label strings (or ints
    matching ``labels``). Rows appear in ``labels`` order, then
    'overall'.
    """
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    rows = []
    for lab in labels:
        tp = int(((yp == lab) & (yt == lab)).sum())
        fp = int(((yp == lab) & (yt != lab)).sum())
        fn = int(((yp != lab) & (yt == lab)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        rows.append({"type": lab, "precision": p, "recall": r, "f1": _f1(p, r)})
    mp = float(np.mean([r["precision"] for r in rows]))
    mr = float(np.mean([r["recall"] for r in rows]))
    rows.append({"type": "overall", "precision": mp, "recall": mr, "f1": _f1(mp, mr)})
    return pd.DataFrame(rows)

