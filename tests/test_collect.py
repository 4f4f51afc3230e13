"""The pair statistics of ``bench/collect.py`` on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("collect", ROOT / "bench" / "collect.py")
collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(collect)

SPEC = {"end_to_end": [{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                       {"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def runs_of(parent: list, change: list, trace: int = 0) -> list:
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        for side, v in (("parent", a), ("change", b)):
            runs.append({"pair": pair, "side": side, "trace": trace, "metrics": {
                "throughput_per_s": {"value": v, "unit": "1/s"},
                "latency_s": {"value": 48 / v, "unit": "s"}}})
    return runs


def test_wins_quartiles_and_claim():
    parent = [10.0, 9.0, 11.0, 10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1]
    change = [18.0, 19.0, 17.5, 9.0, 18.2, 18.8, 17.9, 18.1, 18.4, 18.0]
    out = collect.summarize(SPEC, runs_of(parent, change))
    thr, lat = out["throughput_per_s"], out["latency_s"]
    assert (thr["change_wins"], thr["pairs"], thr["ties"]) == (9, 10, 0)
    assert lat["change_wins"] == 9   # lower latency wins
    assert thr["parent"]["median"] == pytest.approx(10.0)
    assert thr["parent"]["q1"] <= thr["parent"]["median"] <= thr["parent"]["q3"]
    assert thr["gain_claimable"] and lat["gain_claimable"]
    assert thr["worse_by"] < 0 and thr["within_bound"]


def test_regression_past_bound_and_ties():
    parent = [10.0] * 10
    change = [10.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0]
    thr = collect.summarize(SPEC, runs_of(parent, change))["throughput_per_s"]
    assert (thr["change_wins"], thr["ties"]) == (0, 1)
    assert thr["worse_by"] == pytest.approx(0.3)
    assert not thr["within_bound"] and not thr["gain_claimable"]


def test_unpaired_and_traced_runs_left_out():
    runs = runs_of([10.0, 10.0], [20.0, 20.0]) + runs_of([1.0], [1.0], trace=1)
    runs.append({"pair": 7, "side": "parent", "trace": 0, "metrics": {}})
    thr = collect.summarize(SPEC, runs)["throughput_per_s"]
    assert thr["pairs"] == 2 and thr["change"]["median"] == 20.0
