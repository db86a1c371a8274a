"""Tests for precision/recall/F1 metrics."""
import numpy as np
import pytest

from repro.ml.metrics import prf_table


def test_perfect_prediction():
    y = ["a", "b", "c", "a"]
    t = prf_table(y, y, ["a", "b", "c"])
    assert (t["precision"] == 1.0).all()
    assert (t["recall"] == 1.0).all()
    assert (t["f1"] == 1.0).all()


def test_hand_computed_binaryish():
    y_true = ["a", "a", "a", "b", "b", "b"]
    y_pred = ["a", "a", "b", "b", "b", "a"]
    t = prf_table(y_true, y_pred, ["a", "b"]).set_index("type")
    # a: tp=2 fp=1 fn=1 → p=2/3 r=2/3
    assert t.loc["a", "precision"] == pytest.approx(2 / 3)
    assert t.loc["a", "recall"] == pytest.approx(2 / 3)
    # b: tp=2 fp=1 fn=1
    assert t.loc["b", "precision"] == pytest.approx(2 / 3)
    # overall = macro average
    assert t.loc["overall", "precision"] == pytest.approx(2 / 3)
    assert t.loc["overall", "f1"] == pytest.approx(2 / 3)


def test_absent_class_zero_not_nan():
    t = prf_table(["a", "a"], ["a", "a"], ["a", "b"]).set_index("type")
    assert t.loc["b", "precision"] == 0.0
    assert t.loc["b", "recall"] == 0.0
    assert t.loc["b", "f1"] == 0.0


def test_abstention_marker_hurts_recall_not_precision():
    y_true = ["a", "a", "a", "a"]
    y_pred = ["a", "a", "__none__", "__none__"]
    t = prf_table(y_true, y_pred, ["a"]).set_index("type")
    assert t.loc["a", "precision"] == 1.0
    assert t.loc["a", "recall"] == 0.5


def test_rows_order_and_overall_last():
    t = prf_table(["a"], ["a"], ["b", "a"])
    assert list(t["type"]) == ["b", "a", "overall"]


def test_integer_labels_work():
    t = prf_table([0, 1, 0], [0, 1, 1], [0, 1]).set_index("type")
    assert t.loc[0, "recall"] == pytest.approx(0.5)


def test_f1_harmonic_mean_property():
    t = prf_table(["a", "a", "b"], ["a", "b", "b"], ["a", "b"]).set_index("type")
    for lab in ("a", "b"):
        p, r, f1 = t.loc[lab, ["precision", "recall", "f1"]]
        expect = 2 * p * r / (p + r) if p + r else 0.0
        assert f1 == pytest.approx(expect)
