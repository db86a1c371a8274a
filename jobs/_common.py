"""Shared plumbing for the spark-submit table jobs."""
import argparse
import os
import sys

# allow running as `python jobs/tableX.py` without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.session import spark_session  # noqa: E402,F401  (used by the jobs)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def arg_parser(desc: str, n_nodes_default: int = 3000) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=desc)
    ap.add_argument("--n-nodes", type=int, default=n_nodes_default)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=None, help="CSV output path")
    return ap


def emit(tab, name: str, out: str | None):
    print(tab.to_string(index=False))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = out or os.path.join(RESULTS_DIR, f"{name}.csv")
    tab.to_csv(path, index=False)
    print(f"\n[saved] {path}")
