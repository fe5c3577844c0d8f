"""The benchmark's own calls into the package, run in process.

perfbench/workloads.py is kept fixed so that benchmark runs compare, so
the package must keep every name and return shape it calls.  These tests
import it read-only and run batch 0 of exact-zoo and large-n, and one
golden-suite pass, judged by perfbench's own checks; a change that breaks
a benchmark call fails here, not only in the two-minute
perfbench/test_perfbench.py.  They also pin which searches keep one open
set and how many cover instances each workload builds.
"""

import importlib
import sys
from pathlib import Path

import pytest

import mdimlab
from mdimlab import mdim

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        yield importlib.import_module("workloads")
    for name in ("workloads", "check"):  # perfbench's modules, imported by name
        sys.modules.pop(name, None)


def no_pause():
    pass


@pytest.fixture
def builds(monkeypatch) -> list:
    """The shape of every matrix that an instance is built from while the
    test runs, through mdim.build_instance, the name that the distance and
    design instances are built through."""
    built = []
    build = mdim.build_instance

    def count(matrix):
        built.append(matrix.shape)
        return build(matrix)

    monkeypatch.setattr(mdim, "build_instance", count)
    return built


def builds_per_item(run, builds: list) -> list[int]:
    """The instances built by each item or golden row of run(pause), read
    at the pauses before every item and once at the end."""
    marks: list[int] = []
    run(lambda: marks.append(len(builds)))
    return [b - a for a, b in zip(marks, marks[1:])]


@pytest.mark.parametrize("setup", ["setup_exact_zoo", "setup_large_n"])
def test_batch_zero_runs_and_is_judged_correct(workloads, setup):
    items = getattr(workloads, setup)(mdimlab, ROOT, 0, 0)
    outcomes, answers = workloads.run_items(items, None, no_pause)
    workloads.judge_items(items, answers, outcomes)
    assert outcomes
    assert [(o.name, o.error) for o in outcomes if o.error is not None] == []


def test_a_golden_pass_runs_every_row_correct(workloads):
    outcomes = workloads.run_golden(mdimlab, ROOT, None, no_pause)
    assert len(outcomes) == 70
    assert [(o.name, o.error) for o in outcomes if o.error is not None] == []


def test_the_exact_zoo_and_golden_searches_keep_one_union_set(workloads, made_searches):
    # below cover.PER_ROOT_ITEMS open items; batch 1 of exact-zoo is relabelled
    for batch in (0, 1):
        items = workloads.setup_exact_zoo(mdimlab, ROOT, 0, batch)
        workloads.run_items(items, None, no_pause)
    workloads.run_golden(mdimlab, ROOT, None, no_pause)
    assert made_searches and not any(search.per_root for search in made_searches)


def test_the_wide_large_n_searches_keep_an_open_set_per_root(workloads, made_searches):
    # Q_7, Q_8, J(9,4), doubled O_5 and Taylor(P61); PG(2,7) incidence and
    # its semi sides search under one root
    items = workloads.setup_large_n(mdimlab, ROOT, 0, 0)
    workloads.run_items(items, None, no_pause)
    wide = sorted(search.inst.n_entities for search in made_searches if search.per_root)
    assert wide == [124, 126, 128, 252, 256]


def test_a_large_n_search_reuses_its_graph_s_instance(workloads, builds):
    # the structure stage's greedy builds each graph's instance, and the
    # budgeted mdim_exact on the same graph reads it; the halves, folds,
    # Paley base and the two semi sides build their own
    items = workloads.setup_large_n(mdimlab, ROOT, 0, 0)
    per_item = builds_per_item(lambda pause: workloads.run_items(items, None, pause), builds)
    assert sum(per_item) == 21
    assert [n for item, n in zip(items, per_item) if item.name.endswith(".search")] == [0] * 6


def test_an_exact_zoo_batch_builds_one_instance_per_item(workloads, builds):
    # every item solves a fresh graph once, so nothing is reused
    items = workloads.setup_exact_zoo(mdimlab, ROOT, 0, 1)
    per_item = builds_per_item(lambda pause: workloads.run_items(items, None, pause), builds)
    assert per_item == [1] * 10


def test_a_golden_pass_builds_each_graph_s_instance_once(workloads, builds):
    # bounds_chain's greedy and exact solves of one graph share its instance
    per_row = builds_per_item(lambda pause: workloads.run_golden(mdimlab, ROOT, None, pause),
                              builds)
    assert len(per_row) == 70 and sum(per_row) == 266
