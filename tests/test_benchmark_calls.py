"""The benchmark's own calls into the package, run in process.

perfbench/workloads.py is kept fixed so that benchmark runs compare, so
the package must keep every name and return shape it calls.  These tests
import it read-only and run batch 0 of exact-zoo and large-n, and one
golden-suite pass, judged by perfbench's own checks; a change that breaks
a benchmark call fails here, not only in the two-minute
perfbench/test_perfbench.py.
"""

import importlib
import sys
from pathlib import Path

import pytest

import mdimlab

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
