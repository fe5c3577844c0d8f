"""Checks of the benchmark itself (about two minutes on 2 cores):

    python3 -m pytest perfbench/test_perfbench.py

Traced counters repeat exactly for a seed, so they can serve as regression
signals; another seed relabels the inputs without changing any answer; and
a directory without the package makes the command fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, details


@pytest.mark.parametrize("workload", ["exact-zoo", "golden-suite", "large-n"])
def test_traced_counters_repeat_for_a_seed(workload):
    first, _ = bench(workload, 5, 1)
    second, _ = bench(workload, 5, 1)
    assert first["correct"] and second["correct"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    keys = [k for k in first["metrics"] if k.endswith(".calls")]
    keys += ["cover.min_cover.nodes", "mdim.mdim_exact.distinct_ratio"]
    for key in keys:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["cover.min_cover.calls"]["value"] > 0


def test_another_seed_gives_the_same_mu_under_other_labels():
    _, one = bench("exact-zoo", 1, 0)
    _, two = bench("exact-zoo", 2, 0)
    assert not one["fail_ratio"] and not two["fail_ratio"]
    pairs = list(zip(one["items"], two["items"]))
    assert pairs and len(one["items"]) == len(two["items"])
    for a, b in pairs:
        assert a["name"] == b["name"] and a["size"] == b["size"]
    unrelabeled = len({a["name"] for a, _ in pairs})  # the start of batch 0
    assert all(a["input"] == b["input"] for a, b in pairs[:unrelabeled])
    assert all(a["input"] != b["input"] for a, b in pairs[unrelabeled:])
    labels = [a["input"] for a in one["items"]]
    assert len(set(labels)) == len(labels)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-zoo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
