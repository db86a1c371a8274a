"""Phase II feature computation: Eq. 1 (interact), Eq. 3 (tightness),
and each model's input from one community's member rows.

Pure pandas/numpy functions. Phase I (``repro.core.communities``) calls
:func:`eq1_eq3` once per Arrow batch, on every ego network of the batch.
Phase II (``repro.core.comm_classify``) groups member rows into local
communities with :func:`communities`, then calls :func:`top_k_matrix`
(Algorithm 1) or :func:`mean_std` on ONE community's member array.

Interpretation note (Eq. 1): the paper's denominator is written
``Σ_{v∈C} I^j_vw`` with ``w`` undeclared. We read it as the total
interaction volume on dimension ``j`` over all member pairs inside the
community, which normalizes ``interact(u, C, j)`` into a per-community
share in [0, 1] — consistent with the text "evaluates how this friend
interacts with all members in the same local community". A community
with zero volume on a dimension yields 0 for every member.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.socialnet.generator import INTERACTION_DIMS, USER_FEATURES

#: Eq.-1 feature column names (one per interaction dimension).
X_COLS = [f"x_{c}" for c in INTERACTION_DIMS]
#: Width of the community feature matrix: |I| + |f|.
MATRIX_WIDTH = len(INTERACTION_DIMS) + len(USER_FEATURES)
#: One member's row in a community's member array: tightness, then its
#: matrix row.
ROW_COLS = ["tightness"] + X_COLS + USER_FEATURES


def eq1_eq3(comm: np.ndarray, src: np.ndarray, dst: np.ndarray, ivals: np.ndarray):
    """Eq. 1 and Eq. 3 for the members of one or more ego networks at once.

    ``comm`` gives each member its community, numbered 0..C-1 across all
    the ego networks; ``src``/``dst`` are each edge's two members, as
    indices into ``comm``, and ``ivals`` its (E, |I|) interaction
    counters. Returns ``(comm_size, tightness, x)`` per member, ``x``
    being the (N, |I|) Eq.-1 shares.
    """
    n = len(comm)
    sizes = np.bincount(comm)
    # friend(u, G_v): degree inside the ego network
    deg_ego = np.bincount(np.concatenate([src, dst]), minlength=n)
    # same-community edges
    same = comm[src] == comm[dst]
    s, d = src[same], dst[same]
    # friend(u, C): degree restricted to same-community edges
    deg_comm = np.bincount(np.concatenate([s, d]), minlength=n)

    # Eq. 1 numerator: per member, per dim, sum of interactions on
    # intra-community edges incident to the member, added edge by edge
    # (src, then dst) in edge order
    ivals = ivals[same]
    ends = np.column_stack([s, d]).ravel()
    num = np.column_stack(
        [np.bincount(ends, w, minlength=n) for w in np.repeat(ivals, 2, axis=0).T]
    )
    # Eq. 1 denominator: total volume per dim inside each community
    denom = np.column_stack(
        [np.bincount(comm[s], w, minlength=len(sizes)) for w in ivals.T]
    )[comm]

    size = sizes[comm]
    fc, fe = deg_comm.astype(float), deg_ego.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        tight = np.where(
            size == 1,
            1.0,  # Eq. 3 special case
            np.where(fe > 0, fc / fe, 0.0) * (fc / (size - 1)),
        )
        x = np.where(denom > 0, num / denom, 0.0)
    return size, tight, x


def communities(pdf: pd.DataFrame):
    """Group member rows (ego, member, comm_id, comm_size, ``ROW_COLS``
    and any per-community columns) into local communities.

    Returns ``(comms, comm_of)``. ``comms`` has one row per community in
    (ego, comm_id) order: ego, comm_id, ``size``, every other column
    that is not a member's (such as a label), and ``rows``, the
    community's (size, len(ROW_COLS)) member array in member-id order,
    so that it, and the last bits of sums over it, do not depend on
    the order the member rows arrive in. ``comm_of`` gives each row of
    ``pdf`` the position of its community in ``comms``.
    """
    order = np.lexsort([pdf[c].to_numpy() for c in ("member", "comm_id", "ego")])
    key = pdf[["ego", "comm_id"]].to_numpy()[order]
    starts = np.ones(len(pdf), dtype=bool)
    starts[1:] = (key[1:] != key[:-1]).any(axis=1)
    comm_of = np.empty(len(pdf), dtype=np.int64)
    comm_of[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    comms = (
        pdf.iloc[order[first]]
        .drop(columns=["member", *ROW_COLS])
        .rename(columns={"comm_size": "size"})
        .reset_index(drop=True)
    )
    vals = pdf[ROW_COLS].to_numpy(dtype=float)[order]
    bounds = np.append(first, len(pdf))
    comms["rows"] = [vals[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return comms, comm_of


def top_k_matrix(rows, k: int) -> np.ndarray:
    """Algorithm 1: the k×(|I|+|f|) feature matrix of one community.

    ``rows`` is the community's (size, len(ROW_COLS)) member array in
    member-id order. Members are sorted by descending tightness; the
    stable sort breaks ties by member id, for determinism — the paper's
    max-heap pop order. The top k rows [I_u^C, f_u] form the matrix,
    zero-padded when the community is smaller than k.
    """
    members = np.asarray(rows, dtype=float)
    top = members[np.argsort(-members[:, 0], kind="stable")[:k], 1:]
    mat = np.zeros((k, MATRIX_WIDTH))
    mat[: len(top)] = top
    return mat


def mean_std(rows) -> np.ndarray:
    """Mean/std pooling of member features (the LoCEC-XGB community
    representation — paper Sec. IV-B.2: "the mean and standard deviation
    of each feature dimension regarding all nodes in a local community");
    ``rows`` is the community's (size, len(ROW_COLS)) member array."""
    members = np.asarray(rows, dtype=float)
    # column-contiguous: numpy rounds an axis-0 sum over a row-major array
    # differently, and GBDT splits see the last bits
    vals = np.asfortranarray(members[:, 1:])
    return np.concatenate([vals.mean(axis=0), vals.std(axis=0)])
