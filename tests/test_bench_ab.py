"""scripts/bench_ab.py: pairing perfbench runs of two checkouts and
summarising them, on synthetic run details."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

METRICS = [
    {"name": "items_per_s", "better": "higher"},
    {"name": "item_s_p50", "better": "lower"},
]


def untraced(items_per_s: float, item_s_p50: float = 1.0) -> dict:
    return {
        "end_to_end": {"items_per_s": items_per_s, "item_s_p50": item_s_p50},
        "fail_ratio": 0.0,
    }


def traced(nodes: int) -> dict:
    counters = {name: 0 for name in bench_ab.TRACED}
    counters["cover.min_cover.nodes"] = nodes
    return {"end_to_end": {}, "fail_ratio": 0.0, "metrics": dict(counters, other=1.0)}


class TestCompare:
    def test_a_seed_on_one_side_only_is_not_paired(self):
        parent = {("w", s, 0): untraced(10.0) for s in (1, 2, 3)}
        change = {("w", s, 0): untraced(11.0) for s in (2, 3, 4)}
        pairs = bench_ab.compare(parent, change, METRICS)["w"]["pairs"]
        assert [p["seed"] for p in pairs] == [2, 3]

    def test_a_workload_on_one_side_only_is_left_out(self):
        parent = {("w", 1, 0): untraced(10.0), ("v", 1, 0): untraced(10.0)}
        change = {("w", 1, 0): untraced(10.0)}
        assert list(bench_ab.compare(parent, change, METRICS)) == ["w"]

    def test_ties_count_for_neither_side(self):
        parent = {("w", s, 0): untraced(10.0, 2.0) for s in range(4)}
        change = {
            ("w", 0, 0): untraced(10.0, 2.0),  # tie on both metrics
            ("w", 1, 0): untraced(12.0, 1.0),  # change better on both
            ("w", 2, 0): untraced(8.0, 3.0),  # parent better on both
            ("w", 3, 0): untraced(10.0, 2.0),  # tie
        }
        won = bench_ab.compare(parent, change, METRICS)["w"]["summary"]
        lost = bench_ab.compare(change, parent, METRICS)["w"]["summary"]
        for name in ("items_per_s", "item_s_p50"):
            assert won[name]["pairs"] == lost[name]["pairs"] == 4
            assert won[name]["change_won"] == lost[name]["change_won"] == 1
        assert won["items_per_s"]["median_ratio"] == pytest.approx(1.0)

    def test_traced_counters_are_copied(self):
        parent = {("w", 7, 1): traced(100)}
        change = {("w", 7, 1): traced(90)}
        entry = bench_ab.compare(parent, change, METRICS)["w"]
        assert entry["pairs"] == []
        (t,) = entry["traced"]
        assert t["seed"] == 7
        assert set(t["parent"]) == set(t["change"]) == set(bench_ab.TRACED)
        assert t["parent"]["cover.min_cover.nodes"] == 100
        assert t["change"]["cover.min_cover.nodes"] == 90

    def test_fewer_than_two_pairs_give_no_summary(self):
        parent = {("w", 1, 0): untraced(10.0), ("w", 2, 1): traced(5)}
        change = {("w", 1, 0): untraced(11.0), ("w", 2, 1): traced(5)}
        entry = bench_ab.compare(parent, change, METRICS)["w"]
        assert len(entry["pairs"]) == 1 and "summary" not in entry
        parent[("w", 3, 0)] = untraced(10.0)
        change[("w", 3, 0)] = untraced(11.0)
        entry = bench_ab.compare(parent, change, METRICS)["w"]
        assert entry["summary"]["items_per_s"]["change_won"] == 2

    def test_spread_gives_the_median_and_quartiles(self):
        assert bench_ab.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
            "median": 3.0, "q1": 2.0, "q3": 4.0,
        }
