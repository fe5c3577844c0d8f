"""Collect perfbench A/B runs of two checkouts into one JSON file.

    python3 scripts/bench_ab.py --parent DIR --parent-rev REV \\
        --change DIR --change-rev REV --out BENCH_9.json

Each checkout's perfbench/out/ holds the <workload>-seed<n>-trace<t>.json
files that `python3 perfbench/run.py --workload W --seed N --seconds S
--trace T` left there.  Every run on both sides must have the same run
length (--seconds); otherwise the script names the files of each length
and exits 1.  Untraced runs (trace 0) of the same workload and seed on
both sides form one pair; the file keeps every pair's end-to-end metrics
and fail ratio, and per metric each side's median and quartiles and the
number of pairs the change won.  Under "items" it keeps, for each item
name, each side's median of that item's seconds over the paired runs
(the worker's clock, as the details files' "items" hold them) and their
ratio, change over parent: they show which items a change moved, and
whether the ones it does not touch stayed.  Under "tail_items" it keeps,
for each item name, how many times on each side that item was among the
TAIL_ITEMS slowest items of a paired run (worker clock again), summed over
the pairs: item_s_tail is the slowest but ten, so these are the items that
set the tail.  Traced runs (trace 1) give
their whole metrics mapping, which perfbench fills with every per-layer
metric of BENCHMARK.json, for each seed traced on both sides; beside it,
"counts_moved" holds each per-layer metric of unit count whose value
differs between the two sides, with both values, so one key shows both
that node counts held and which call counts fell.
Nothing is run here: run the pairs first, alternating which side goes
first.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
RUN_FILE = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
TAIL_ITEMS = 11  # perfbench's item_s_tail has exactly ten items slower than it


def runs(checkout: Path) -> dict[tuple[str, int, int], dict]:
    """(workload, seed, trace) -> the details file of that run, with its
    path under "file"."""
    out = {}
    for path in sorted((checkout / "perfbench" / "out").glob("*.json")):
        m = RUN_FILE.fullmatch(path.name)
        if m:
            key = (m["workload"], int(m["seed"]), int(m["trace"]))
            out[key] = dict(json.loads(path.read_text()), file=str(path))
    return out


def run_lengths(*sides: dict) -> dict[int, list[str]]:
    """Run length (seconds) -> the files of the runs of that length."""
    lengths: dict[int, list[str]] = {}
    for side in sides:
        for details in side.values():
            lengths.setdefault(details["seconds"], []).append(details["file"])
    return lengths


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def item_medians(parent: list[list[dict]], change: list[list[dict]]) -> dict:
    """Item name -> each side's median seconds and their ratio, for the
    names timed on both sides; each side holds the "items" of its paired
    runs."""
    parent, change = _seconds_by_name(parent), _seconds_by_name(change)
    out = {}
    for name in sorted(parent.keys() & change.keys()):
        a, b = statistics.median(parent[name]), statistics.median(change[name])
        out[name] = {"parent": a, "change": b, "ratio": b / a if a else None}
    return out


def _seconds_by_name(runs_items: list[list[dict]]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for items in runs_items:
        for item in items:
            out.setdefault(item["name"], []).append(item["seconds"])
    return out


def tail_items(parent: list[list[dict]], change: list[list[dict]]) -> dict:
    """Item name -> the number of runs on each side in which that item was
    among the TAIL_ITEMS slowest, for the names in any side's tail; each
    side holds the "items" of its paired runs."""
    out: dict[str, dict[str, int]] = {}
    for side, runs_items in (("parent", parent), ("change", change)):
        for items in runs_items:
            for item in sorted(items, key=lambda it: -it["seconds"])[:TAIL_ITEMS]:
                counts = out.setdefault(item["name"], {"parent": 0, "change": 0})
                counts[side] += 1
    return dict(sorted(out.items()))


def counts_moved(parent: dict, change: dict, counts: Iterable[str]) -> dict:
    """Count name -> both sides' values, for the names in counts whose
    values differ between the two metrics mappings."""
    return {name: {"parent": parent.get(name), "change": change.get(name)}
            for name in counts if parent.get(name) != change.get(name)}


def compare(parent: dict, change: dict, metrics: list[dict], counts: Iterable[str] = ()) -> dict:
    """The pairs, summaries, item medians, tail items and traced runs of
    each workload run on both sides; metrics are the end-to-end metrics to
    summarise, and counts the per-layer counts that counts_moved compares."""
    workloads: dict[str, dict] = {}
    timed: dict[str, tuple[list, list]] = {}  # workload -> each paired run's items, per side
    for (workload, seed, trace), a in sorted(parent.items()):
        b = change.get((workload, seed, trace))
        if b is None or b["seconds"] != a["seconds"]:
            continue
        entry = workloads.setdefault(workload, {"pairs": [], "traced": []})
        if trace == 0:
            entry["pairs"].append({
                "seed": seed,
                "parent": dict(a["end_to_end"], fail_ratio=a["fail_ratio"]),
                "change": dict(b["end_to_end"], fail_ratio=b["fail_ratio"]),
            })
            for side, details in zip(timed.setdefault(workload, ([], [])), (a, b)):
                side.append(details.get("items", ()))
        else:
            entry["traced"].append({
                "seed": seed,
                "parent": a["metrics"],
                "change": b["metrics"],
                "counts_moved": counts_moved(a["metrics"], b["metrics"], counts),
            })
    for workload, entry in workloads.items():
        if workload in timed:
            entry["items"] = item_medians(*timed[workload])
            entry["tail_items"] = tail_items(*timed[workload])
        pairs = entry["pairs"]
        if len(pairs) < 2:
            continue
        summary = {}
        for metric in metrics:
            name = metric["name"]
            sign = 1 if metric["better"] == "higher" else -1
            a = [p["parent"][name] for p in pairs]
            b = [p["change"][name] for p in pairs]
            summary[name] = {
                "parent": spread(a),
                "change": spread(b),
                "change_won": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
                "pairs": len(pairs),
                "median_ratio": statistics.median(b) / statistics.median(a),
            }
        entry["summary"] = summary
    return workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--parent-rev", required=True, help="commit of the parent checkout")
    ap.add_argument("--change-rev", required=True, help="commit of the changed checkout")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = runs(args.parent), runs(args.change)
    lengths = run_lengths(parent, change)
    if len(lengths) > 1:
        print("bench_ab: the runs differ in length:", file=sys.stderr)
        for seconds, files in sorted(lengths.items()):
            print(f"  --seconds {seconds}: {' '.join(files)}", file=sys.stderr)
        return 1
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    workloads = compare(parent, change, spec["end_to_end"], counts)
    if not workloads:
        print("bench_ab: no run of the same workload and seed on both sides",
              file=sys.stderr)
        return 1
    (seconds,) = lengths
    payload = {
        "parent": args.parent_rev,
        "change": args.change_rev,
        "seconds": seconds,
        "machine": next(iter(parent.values()))["machine"],
        "time_unit": "reference seconds (perfbench/run.py REFERENCE_S)",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    for workload, entry in workloads.items():
        for name, s in entry.get("summary", {}).items():
            print(f"{workload:13s} {name:12s} parent {s['parent']['median']:.4g} "
                  f"change {s['change']['median']:.4g} "
                  f"won {s['change_won']}/{s['pairs']}")
        tail = ", ".join(f"{name} {c['parent']}->{c['change']}"
                         for name, c in entry.get("tail_items", {}).items())
        print(f"{workload:13s} tail items (runs, parent->change): {tail}")
        for t in entry["traced"]:
            print(f"{workload:13s} traced seed {t['seed']}: parent {t['parent']} "
                  f"change {t['change']}")
            print(f"{workload:13s} traced seed {t['seed']} counts moved: {t['counts_moved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
