"""The traced run: LoCEC's layers called one by one from the benchmark,
each in its own span, plus single-threaded driver replays of the Python
work that runs inside the Spark UDFs.

The composition mirrors ``repro.core.locec.run_locec`` step for step and
takes its arguments from ``run_locec``'s own defaults, so its edge
predictions must equal the timed run's. A layer whose public function is
gone, or no longer takes these arguments, is reported ``absent`` and its
output is taken from the untraced reference run, so later refactors that
fuse or rename a layer do not stop the traced run.
"""
from __future__ import annotations

import importlib
import inspect
import time

import numpy as np
import pandas as pd

from tracing import Tracer, timed_method

#: Spark-side layers, in pipeline order; names are ``module.function``
#: under ``repro.core``.
SPARK_LAYERS = [
    "ego.ego_edges",
    "communities.member_features",
    "comm_classify.community_matrices",
    "comm_classify.community_labels",
    "comm_classify.train_community_model",
    "comm_classify.classify_communities",
    "edge_features.edge_features",
    "edge_features.train_edge_model",
    "edge_features.classify_edges",
]
SPAN_FIELDS = ("s", "self_s", "rows", "jobs", "stages", "tasks", "failed_tasks")


def resolve(path: str, pkg: str = "repro.core"):
    """``module.attr`` under ``pkg``, or None when it no longer exists."""
    mod, attr = path.rsplit(".", 1)
    try:
        return getattr(importlib.import_module(f"{pkg}.{mod}"), attr, None)
    except ModuleNotFoundError:
        return None


class MissingInput(Exception):
    """An upstream layer was absent and left no frame to consume."""


def need(x):
    if x is None:
        raise MissingInput
    return x


class TracedRun:
    def __init__(self, spark, tracer: Tracer, params: dict, inp, ref):
        self.spark, self.tr, self.p, self.inp, self.ref = spark, tracer, params, inp, ref
        self.absent: dict[str, str] = {}
        self.frames: list = []
        self.spans: dict = {}
        self.fits = {"gbdt": [], "cnn": [], "logreg": []}
        self.out: dict = {}

    # ---- traced composition -----------------------------------------
    def _cached(self, df):
        df = df.cache()
        self.frames.append(df)
        return df, df.count()

    @staticmethod
    def _counted(df):
        return df, df.count()

    def _step(self, name, run, fallback):
        fn = resolve(name)
        if fn is None:
            self.absent[name] = "function not found"
            return fallback
        try:
            with self.tr.span(name) as sp:
                out, sp.counts["rows"] = run(fn)
        except MissingInput:
            self.absent[name] = "its input comes from an absent layer"
            return fallback
        except TypeError as e:  # the layer's signature changed
            self.absent[name] = f"call failed: {e}"
            return fallback
        self.spans[name] = sp
        return out

    def pipeline(self) -> pd.DataFrame:
        """Run every layer in its own span; returns collected predictions."""
        spark, inp, p = self.spark, self.inp, self.p

        def ref(field):  # the untraced run's output, if it still has one
            return getattr(self.ref, field, None)

        ml = {n: resolve(f"{m}.{n}", "repro.ml") for m, n in
              (("gbdt", "GBDT"), ("cnn", "CommCNN"), ("logreg", "LogisticRegression"))}

        def train_comm(f):
            labeled = need(matrices).join(need(labels), on=["ego", "comm_id"]).toPandas()
            with timed_method(ml["GBDT"], "fit", self.fits["gbdt"]), \
                    timed_method(ml["CommCNN"], "fit", self.fits["cnn"]):
                model = f(labeled, variant=p["variant"], k=p["k"], seed=p["seed"],
                          cnn_epochs=p["cnn_epochs"], gbdt_rounds=p["gbdt_rounds"])
            return model, len(labeled)

        def train_edge(f):
            tf = need(feats).join(inp.train_df, on=["src", "dst"]).toPandas()
            with timed_method(ml["LogisticRegression"], "fit", self.fits["logreg"]):
                return f(tf, seed=p["seed"], epochs=p["lr_epochs"]), len(tf)

        with self.tr.span("locec.traced") as root:
            self._step("ego.ego_edges", lambda f: (None, f(inp.edges).count()), None)
            member_df = self._step(
                "communities.member_features",
                lambda f: self._cached(f(spark, inp.edges, inp.interactions)),
                ref("member_df"))
            matrices = self._step(
                "comm_classify.community_matrices",
                lambda f: self._cached(f(need(member_df), inp.users, k=p["k"])),
                ref("matrices"))
            # left uncached, as run_locec leaves it: the labelled rows'
            # order follows the join's plan, and CommCNN's mini-batches
            # follow that order
            labels = self._step(
                "comm_classify.community_labels",
                lambda f: self._counted(f(need(member_df), inp.train_df)), None)
            comm_model = self._step("comm_classify.train_community_model",
                                    train_comm, ref("comm_model"))
            comm_results = self._step(
                "comm_classify.classify_communities",
                lambda f: self._cached(f(spark, need(matrices), comm_model,
                                         variant=p["variant"], k=p["k"])),
                ref("comm_results"))
            member_results = resolve("edge_features.member_results")
            feats = self._step(
                "edge_features.edge_features",
                lambda f: self._cached(f(inp.edges, need(member_results)(
                    need(member_df), need(comm_results)))), None)
            edge_model = self._step("edge_features.train_edge_model",
                                    train_edge, ref("edge_model"))
            edge_pred = self._step(
                "edge_features.classify_edges",
                lambda f: self._cached(f(spark, need(feats), edge_model)),
                ref("edge_pred"))
            pred = edge_pred.toPandas()
        self.root = root
        self.models = (comm_model, edge_model)
        self.matrices, self.feats = matrices, feats
        return pred

    # ---- driver replays ---------------------------------------------
    def replay_udfs(self):
        """Girvan-Newman and Eq. 1/3 per ego, Algorithm 1 per community,
        single-threaded on the driver over the inputs Phase I builds."""
        fns = {n: resolve(n) for n in (
            "ego.adjacency", "ego.ego_edges", "girvan_newman.girvan_newman",
            "features.community_member_features", "features.build_matrix",
            "features.pooled_vector")}
        if any(f is None for f in fns.values()):
            missing = [n for n, f in fns.items() if f is None]
            self.absent["girvan_newman"] = self.absent["features"] = \
                f"replay needs {missing}"
            return
        from repro.socialnet.generator import INTERACTION_DIMS, USER_FEATURES

        edges, inp = self.inp.edges, self.inp
        # the same inputs communities.member_features hands its UDF
        members = fns["ego.adjacency"](edges.select("src", "dst")).toPandas()
        ee = (fns["ego.ego_edges"](edges)
              .join(inp.interactions, on=["src", "dst"], how="left")
              .na.fill({c: 0 for c in INTERACTION_DIMS}).toPandas())
        gn = fns["girvan_newman.girvan_newman"]
        max_edges = inspect.signature(gn).parameters.get("max_edges")
        max_edges = max_edges.default if max_edges is not None else None
        by_ego = dict(tuple(ee.groupby("ego", sort=False)))
        empty = ee.iloc[:0]

        gn_ms, feat_s, fallback, n_edges, per_ego = [], 0.0, 0, 0, []
        for ego, mem in members.groupby("ego", sort=True):
            eed = by_ego.get(ego, empty)
            nodes = mem["member"].to_numpy()
            pairs = list(zip(eed["src"].to_numpy(), eed["dst"].to_numpy()))
            n_edges += len(pairs)
            fallback += max_edges is not None and len(pairs) > max_edges
            t0 = time.perf_counter()
            comm_of = gn(list(nodes), pairs)
            t1 = time.perf_counter()
            feats = fns["features.community_member_features"](nodes, comm_of, eed)
            t2 = time.perf_counter()
            gn_ms.append(1e3 * (t1 - t0))
            feat_s += t2 - t1
            feats.insert(0, "ego", ego)
            per_ego.append(feats)

        users = inp.net.users.rename(columns={"user_id": "member"})
        mf = pd.concat(per_ego, ignore_index=True).merge(
            users[["member"] + USER_FEATURES], on="member", how="left"
        ).fillna({c: 0.0 for c in USER_FEATURES})
        mat_s = pool_s = 0.0
        n_comm = 0
        for _, pdf in mf.groupby(["ego", "comm_id"], sort=False):
            t0 = time.perf_counter()
            fns["features.build_matrix"](pdf, self.p["k"])
            t1 = time.perf_counter()
            fns["features.pooled_vector"](pdf)
            t2 = time.perf_counter()
            mat_s += t1 - t0
            pool_s += t2 - t1
            n_comm += 1
        ms = np.asarray(gn_ms)
        self.out.update({
            "girvan_newman.busy_s": ms.sum() / 1e3,
            "girvan_newman.egos": len(ms),
            "girvan_newman.ego_edges_total": n_edges,
            "girvan_newman.ego_ms.p50": float(np.percentile(ms, 50)),
            "girvan_newman.ego_ms.p99": float(np.percentile(ms, 99)),
            "girvan_newman.ego_ms.max": float(ms.max()),
            "girvan_newman.fallback_egos": int(fallback),
            "features.member_features.busy_s": feat_s,
            "features.build_matrix.busy_s": mat_s,
            "features.pooled_vector.busy_s": pool_s,
            "features.communities": n_comm,
        })

    def replay_models(self):
        """Fit times seen during the traced training spans, and inference
        busy time over every community and edge, on the driver."""
        comm_model, edge_model = self.models
        v = self.p["variant"]
        for m in ("gbdt", "cnn", "logreg"):
            self.out[f"{m}.fit_s"] = sum(self.fits[m])
            self.out[f"{m}.predict_busy_s"] = 0.0
        epochs = self.p["cnn_epochs"] if self.fits["cnn"] else 0
        self.out["cnn.epoch_s"] = self.out["cnn.fit_s"] / epochs if epochs else 0.0

        mat = self.matrices.toPandas() if self.matrices is not None else None
        built = {c: float(mat[c].map(len).sum()) for c in ("matrix", "pooled")
                 if mat is not None and c in mat.columns}
        used = "matrix" if v == "cnn" else "pooled"
        if not built:
            self.absent["comm_classify.repr_used_frac"] = "no community matrices"
        else:
            self.out["comm_classify.repr_used_frac"] = built.get(used, 0.0) / sum(
                built.values())
            if used in mat.columns:
                X = np.stack([np.asarray(r) for r in mat[used]])
                calls = [getattr(comm_model, a, None) for a in
                         (("predict_proba", "leaf_values") if v == "xgb"
                          else ("predict_proba",))]
                name = "gbdt.predict_busy_s" if v == "xgb" else "cnn.predict_busy_s"
                if all(calls):
                    t0 = time.perf_counter()
                    for c in calls:
                        c(X)
                    self.out[name] = time.perf_counter() - t0
                else:
                    self.absent[name] = "model has no predict_proba/leaf_values"
        if self.feats is not None:
            X = np.stack([np.asarray(f) for f in self.feats.toPandas()["features"]])
            t0 = time.perf_counter()
            edge_model.predict_proba(X)
            self.out["logreg.predict_busy_s"] = time.perf_counter() - t0

    def unpersist(self):
        for df in self.frames:
            df.unpersist(blocking=True)

    # ---- per-layer metrics ------------------------------------------
    def metrics(self, ref_iter: dict, first_wall: float) -> dict:
        out = dict(self.out)
        for name in SPARK_LAYERS:
            sp = self.spans.get(name)
            for f in SPAN_FIELDS:
                if sp is None:
                    out[f"{name}.{f}"] = 0.0
                elif f == "s":
                    out[f"{name}.s"] = sp.seconds
                elif f == "self_s":
                    out[f"{name}.self_s"] = self.tr.self_seconds(sp)
                else:
                    out[f"{name}.{f}"] = sp.counts[f]
        t = ref_iter["timings"]
        out.update({f"locec.{p}_s": t[p] for p in ("phase1", "phase2", "phase3")
                    if p in t})
        out.update({
            "locec.unattributed_s": ref_iter["wall_s"] - t["total"] - ref_iter["train_s"],
            "locec.first_wall_s": first_wall,
            "trace.overhead_s": self.root.seconds - ref_iter["wall_s"],
        })
        return out
