"""The pair statistics of ``bench/collect.py`` on hand-made runs."""

import importlib.util
import subprocess
import sys
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


def test_failures_summed_per_side_over_untraced_runs():
    def run(pair, side, attempted=None, failed=None, trace=0):
        out = {"pair": pair, "side": side, "trace": trace}
        if attempted is not None:
            out.update(attempted=attempted, failed=failed)
        return out

    runs = [run(0, "parent", 7, 0), run(0, "change", 7, 1),
            run(1, "parent", 6, 1), run(1, "change", 8, 0),
            run(2, "parent"), run(2, "change", 5, 0),     # the parent printed nothing
            run(3, "parent", 9, 9, trace=1), run(3, "change", 9, 0, trace=1)]
    out = collect.failure_summary(runs)
    assert out["parent"] == {"attempted": 13, "failed": 1, "no_result": 1, "share": 1 / 13}
    assert out["change"] == {"attempted": 20, "failed": 1, "no_result": 0, "share": 1 / 20}
    assert not out["more_failures"]
    runs.append(run(4, "change", 2, 2))
    assert collect.failure_summary(runs)["more_failures"]
    empty = collect.failure_summary([])
    assert empty["parent"]["share"] == 0.0 and not empty["more_failures"]


def test_rusage_medians_per_side_over_untraced_runs():
    def run(side, user, system, faults, trace=0):
        return {"side": side, "trace": trace,
                "rusage": {"utime_s": user, "stime_s": system, "minflt": faults}}

    runs = [run("parent", 40.0, 6.0, 900_000), run("change", 41.0, 0.5, 20_000),
            run("parent", 39.0, 7.0, 800_000), run("change", 40.0, 0.3, 30_000),
            run("parent", 38.0, 5.0, 700_000), run("change", 39.0, 0.4, 10_000),
            run("parent", 1.0, 1.0, 1, trace=1), run("change", 99.0, 99.0, 99, trace=1)]
    out = collect.rusage_summary(runs)
    assert out["parent"] == {"utime_s": 39.0, "stime_s": 6.0, "minflt": 800_000, "n": 3}
    assert out["change"] == {"utime_s": 40.0, "stime_s": 0.4, "minflt": 20_000, "n": 3}
    assert collect.rusage_summary([])["change"] == {"utime_s": None, "stime_s": None,
                                                    "minflt": None, "n": 0}


def test_children_usage_counts_a_finished_child():
    before = collect.children_usage()
    subprocess.run([sys.executable, "-c", "bytearray(64 << 20)"], check=True)
    cost = [b - a for a, b in zip(before, collect.children_usage())]
    assert cost[0] + cost[1] > 0 and cost[2] > 1000   # 64 MiB touched: many pages
