"""scripts/bench_ab.py: pairing perfbench runs of two checkouts and
summarising them, on synthetic run details."""

import importlib.util
import json
import sys
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


def untraced(items_per_s: float, item_s_p50: float = 1.0, seconds: int = 20) -> dict:
    return {
        "end_to_end": {"items_per_s": items_per_s, "item_s_p50": item_s_p50},
        "fail_ratio": 0.0,
        "seconds": seconds,
    }


def traced(nodes: int, seconds: int = 20, unresolved: int = 0) -> dict:
    return {"end_to_end": {}, "fail_ratio": 0.0, "seconds": seconds, "metrics": {
        "cover.min_cover.nodes": nodes,
        "mdim.first_unresolved_pair.calls": unresolved,
        "mdim.exhaustive_mdim.calls": 1200,
        "cover.min_cover.self_s": 0.5,
    }}


def full_run(seconds: int = 20) -> dict:
    """Untraced run details with every end-to-end metric of BENCHMARK.json."""
    spec = json.loads((bench_ab.ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: 1.0 for m in spec["end_to_end"]},
            "fail_ratio": 0.0, "seconds": seconds}


def checkout(root: Path, files: dict[str, dict]) -> Path:
    """A directory whose perfbench/out holds the given run details."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True)
    for name, details in files.items():
        (out / name).write_text(json.dumps(dict(details, machine={"nproc": 2})))
    return root


def run_main(monkeypatch, parent: Path, change: Path, out: Path) -> int:
    monkeypatch.setattr(sys, "argv", [
        "bench_ab.py", "--parent", str(parent), "--parent-rev", "a",
        "--change", str(change), "--change-rev", "b", "--out", str(out)])
    return bench_ab.main()


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
        parent = {("w", 7, 1): traced(100, unresolved=62802)}
        change = {("w", 7, 1): traced(90, unresolved=2802)}
        entry = bench_ab.compare(parent, change, METRICS)["w"]
        assert entry["pairs"] == []
        (t,) = entry["traced"]
        assert t["seed"] == 7
        assert t["parent"] == parent[("w", 7, 1)]["metrics"]
        assert t["change"] == change[("w", 7, 1)]["metrics"]

    def test_counts_moved_names_the_counts_that_differ(self):
        # a count equal on both sides, a self-time that moved (no count), and
        # a count missing on one side
        parent = {("w", 7, 1): traced(100, unresolved=62802)}
        change = {("w", 7, 1): traced(100, unresolved=2802)}
        change[("w", 7, 1)]["metrics"].update({"cover.min_cover.self_s": 0.4,
                                                "cover.build_instance.calls": 21})
        counts = ["cover.min_cover.nodes", "mdim.first_unresolved_pair.calls",
                  "cover.build_instance.calls"]
        (t,) = bench_ab.compare(parent, change, METRICS, counts)["w"]["traced"]
        assert t["counts_moved"] == {
            "mdim.first_unresolved_pair.calls": {"parent": 62802, "change": 2802},
            "cover.build_instance.calls": {"parent": None, "change": 21},
        }
        (t,) = bench_ab.compare(parent, change, METRICS)["w"]["traced"]
        assert t["counts_moved"] == {}

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

    def test_item_medians_per_name(self):
        # each side's median over the paired untraced runs, per item name;
        # a traced run, an unpaired seed and a name on one side are left out
        def run(search: list[float], structure: float = 2.0, extra: str | None = None) -> dict:
            items = [{"name": "g.search", "seconds": t} for t in search]
            items.append({"name": "g.structure", "seconds": structure})
            if extra:
                items.append({"name": extra, "seconds": 9.0})
            return dict(untraced(10.0), items=items)

        parent = {("w", 1, 0): run([1.0, 3.0]), ("w", 2, 0): run([2.0], extra="old"),
                  ("w", 3, 0): run([50.0]), ("w", 4, 1): dict(traced(5), items=[
                      {"name": "g.search", "seconds": 70.0}])}
        change = {("w", 1, 0): run([0.5, 0.5]), ("w", 2, 0): run([1.0], extra="new"),
                  ("w", 4, 1): dict(traced(5), items=[{"name": "g.search", "seconds": 80.0}])}
        items = bench_ab.compare(parent, change, METRICS)["w"]["items"]
        assert items == {
            "g.search": {"parent": 2.0, "change": 0.5, "ratio": 0.25},
            "g.structure": {"parent": 2.0, "change": 2.0, "ratio": 1.0},
        }

    def test_tail_items_count_the_runs_whose_eleven_slowest_hold_each_name(self):
        # thirteen items a run: the ten searches are always among the eleven
        # slowest and "fast" never; the eleventh is "slow" or, where "slow"
        # was made faster than it, "mid".  A traced run and an unpaired seed
        # are left out.
        def run(slow: float) -> dict:
            items = [{"name": "slow", "seconds": slow}, {"name": "mid", "seconds": 3.0},
                     {"name": "fast", "seconds": 0.1}]
            items += [{"name": f"g{i}.search", "seconds": 5.0 + i} for i in range(10)]
            return dict(untraced(10.0), items=items)

        parent = {("w", s, 0): run(9.0) for s in (1, 2, 3)}
        change = {("w", 1, 0): run(9.0), ("w", 2, 0): run(1.0), ("w", 3, 0): run(1.0)}
        parent[("w", 4, 0)] = run(1.0)
        parent[("w", 5, 1)] = change[("w", 5, 1)] = dict(traced(5), items=run(1.0)["items"])
        tail = bench_ab.compare(parent, change, METRICS)["w"]["tail_items"]
        assert tail == {"mid": {"parent": 0, "change": 2}, "slow": {"parent": 3, "change": 1},
                        **{f"g{i}.search": {"parent": 3, "change": 3} for i in range(10)}}
        assert bench_ab.TAIL_ITEMS == 11

    def test_runs_of_different_lengths_are_not_paired(self):
        parent = {("w", 1, 0): untraced(10.0), ("w", 2, 1): traced(5)}
        change = {("w", 1, 0): untraced(10.0, seconds=1), ("w", 2, 1): traced(5, seconds=1)}
        assert bench_ab.compare(parent, change, METRICS) == {}


class TestMain:
    def test_equal_lengths_are_written_with_their_length(self, tmp_path, monkeypatch):
        files = {f"w-seed{s}-trace0.json": full_run() for s in (1, 2)}
        parent = checkout(tmp_path / "p", files)
        change = checkout(tmp_path / "c", files)
        assert run_main(monkeypatch, parent, change, tmp_path / "ab.json") == 0
        payload = json.loads((tmp_path / "ab.json").read_text())
        assert payload["seconds"] == 20
        assert len(payload["workloads"]["w"]["pairs"]) == 2
        assert payload["workloads"]["w"]["items"] == {}
        assert payload["workloads"]["w"]["tail_items"] == {}

    def test_counts_moved_reads_the_count_metrics_of_the_spec(self, tmp_path, monkeypatch):
        # cover.build_instance.calls and cover.min_cover.nodes have unit
        # count in BENCHMARK.json; cover.min_cover.self_s has unit s
        def run(builds: int, self_s: float) -> dict:
            details = traced(500)
            details["metrics"].update({"cover.build_instance.calls": builds,
                                       "cover.min_cover.self_s": self_s})
            return details

        parent = checkout(tmp_path / "p", {"w-seed3-trace1.json": run(27, 0.5)})
        change = checkout(tmp_path / "c", {"w-seed3-trace1.json": run(21, 0.4)})
        assert run_main(monkeypatch, parent, change, tmp_path / "ab.json") == 0
        (t,) = json.loads((tmp_path / "ab.json").read_text())["workloads"]["w"]["traced"]
        assert t["counts_moved"] == {"cover.build_instance.calls": {"parent": 27, "change": 21}}

    def test_lengths_differing_across_sides_exit_1(self, tmp_path, monkeypatch, capsys):
        parent = checkout(tmp_path / "p", {"w-seed5-trace1.json": traced(5)})
        change = checkout(tmp_path / "c", {"w-seed5-trace1.json": traced(5, seconds=1)})
        assert run_main(monkeypatch, parent, change, tmp_path / "ab.json") == 1
        err = capsys.readouterr().err
        assert "--seconds 1: " + str(change / "perfbench/out/w-seed5-trace1.json") in err
        assert "--seconds 20: " + str(parent / "perfbench/out/w-seed5-trace1.json") in err
        assert not (tmp_path / "ab.json").exists()

    def test_lengths_differing_on_one_side_exit_1(self, tmp_path, monkeypatch, capsys):
        files = {"w-seed1-trace0.json": untraced(10.0), "w-seed2-trace0.json": untraced(10.0)}
        parent = checkout(tmp_path / "p", files)
        change = checkout(tmp_path / "c", dict(files, **{
            "w-seed3-trace0.json": untraced(10.0, seconds=1)}))
        assert run_main(monkeypatch, parent, change, tmp_path / "ab.json") == 1
        err = capsys.readouterr().err
        assert "--seconds 1: " + str(change / "perfbench/out/w-seed3-trace0.json") in err
        assert not (tmp_path / "ab.json").exists()

    def test_run_lengths_group_the_files(self):
        parent = {("w", 1, 0): dict(untraced(1.0), file="p1")}
        change = {("w", 1, 0): dict(untraced(1.0), file="c1"),
                  ("w", 2, 0): dict(untraced(1.0, seconds=1), file="c2")}
        assert bench_ab.run_lengths(parent, change) == {20: ["p1", "c1"], 1: ["c2"]}
